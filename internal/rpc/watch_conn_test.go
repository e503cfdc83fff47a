package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// writeCounter is a listener that counts the writes made on each connection
// it accepts, in accept order.
type writeCounter struct {
	net.Listener
	mu     sync.Mutex
	writes []*atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int64)
	l.mu.Lock()
	l.writes = append(l.writes, n)
	l.mu.Unlock()
	return &writeCountingConn{Conn: c, writes: n}, nil
}

// conn returns the write counter of the i-th accepted connection.
func (l *writeCounter) conn(i int) *atomic.Int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes[i]
}

// total returns the writes made on every accepted connection.
func (l *writeCounter) total() (n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range l.writes {
		n += w.Load()
	}
	return n
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// startWatchedServer serves an instance with a change feed whose metrics go
// to reg, through a listener that counts each connection's writes.
func startWatchedServer(t testing.TB, reg *metrics.Registry, feedOpts ...feed.LogOption) (*writeCounter, string) {
	t.Helper()
	feedOpts = append([]feed.LogOption{feed.WithLogMetrics(reg)}, feedOpts...)
	inst := registry.NewInstance(2, memcache.New(memcache.Config{}), registry.WithChangeFeed(feedOpts...))
	t.Cleanup(func() { inst.Close() })
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &writeCounter{Listener: inner}
	srv := NewServer(inst, nil, WithServerMetrics(nil))
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return ln, inner.Addr().String()
}

// dialOne is a client of one pooled connection, so that its watches and its
// calls share it.
func dialOne(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(tctx, addr, WithPoolSize(1), WithTimeout(5*time.Second), WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A consumer that stops reading ends its own stream with feed.ErrLagged
// once it has taken no event for watchStall; the connection's reader does
// not wait for it meanwhile, so the calls that share the connection keep
// completing, and the server's watch is cancelled.
func TestWatchLaggingConsumerLeavesCallsFlowing(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := startWatchedServer(t, reg)
	client := dialOne(t, addr)
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	put := func(i int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(tctx, watchStall/2)
		defer cancel()
		if _, err := client.Put(ctx, wireEntry(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("put %d beside a stalled watch: %v", i, err)
		}
	}
	const puts = 4 * watchEventBatch
	for i := range puts {
		put(i)
	}
	if !eventually(func() bool { return w.Err() != nil }) {
		t.Fatal("a stalled stream did not end")
	}
	if err := w.Err(); !errors.Is(err, feed.ErrLagged) {
		t.Fatalf("stalled stream ended with %v, want feed.ErrLagged", err)
	}
	put(puts)
	n := 0
	for ev := range w.Events() {
		if n++; ev.Seq != uint64(n) {
			t.Fatalf("event %d has seq %d", n, ev.Seq)
		}
	}
	if n == 0 || n >= puts {
		t.Errorf("a stalled consumer was handed %d of %d events, want its buffer's worth", n, puts)
	}
	subscribers := reg.Gauge("feed_subscribers")
	if !eventually(func() bool { return subscribers.Value() == 0 }) {
		t.Errorf("feed_subscribers = %d after the lagged stream's cancel, want 0", subscribers.Value())
	}
}

// Close sends the cancel: the server's stream goroutine ends and its Tail
// observer detaches, while the shared connection goes on serving calls.
func TestWatchCloseCancelsServerStream(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := startWatchedServer(t, reg)
	client := dialOne(t, addr)
	streaming := func() bool { return strings.Contains(allGoroutines(), "streamWatch") }
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subscribers := reg.Gauge("feed_subscribers")
	if !eventually(func() bool { return subscribers.Value() == 1 && streaming() }) {
		t.Fatalf("feed_subscribers = %d, stream goroutine running %v, want 1 and true", subscribers.Value(), streaming())
	}
	if _, err := client.Put(tctx, wireEntry("before")); err != nil {
		t.Fatal(err)
	}
	if got := watchCollect(t, w, 1); got[0].Name != "before" {
		t.Fatalf("event = %+v", got[0])
	}
	w.Close()
	w.Close() // idempotent
	if _, ok := <-w.Events(); ok || w.Err() != nil {
		t.Fatalf("closed stream: events open %v, err %v", ok, w.Err())
	}
	if !eventually(func() bool { return subscribers.Value() == 0 && !streaming() }) {
		t.Fatalf("after Close: feed_subscribers = %d, stream goroutine running %v", subscribers.Value(), streaming())
	}
	if _, err := client.Put(tctx, wireEntry("after")); err != nil {
		t.Fatalf("put after the watch's close: %v", err)
	}
}

// allGoroutines is every goroutine's stack.
func allGoroutines() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// A watched Put's reply and its events leave the server in one write. A Put
// made on another connection has no reply there to ride, and its events
// still arrive, sent by the watch's own goroutine.
func TestWatchEventsRideTheReplyWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, addr := startWatchedServer(t, metrics.NewRegistry())
	client := dialOne(t, addr)
	other := dialOne(t, addr)
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writes := ln.conn(0)

	const puts = 200
	before := writes.Load()
	for i := range puts {
		if _, err := client.Put(tctx, wireEntry(fmt.Sprintf("mine%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := writes.Load() - before
	events := watchCollect(t, w, puts)
	t.Logf("%d watched puts: %d server writes on their connection", puts, got)
	if got > puts*11/10 {
		t.Errorf("%d server writes for %d watched puts, want about one each: the events did not ride the replies", got, puts)
	}

	before = writes.Load()
	for i := range puts {
		if _, err := other.Put(tctx, wireEntry(fmt.Sprintf("theirs%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	events = append(events, watchCollect(t, w, puts)...)
	t.Logf("%d puts on another connection: %d server writes on the watch's", puts, writes.Load()-before)
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// A fallback snapshot goes out before the watch is live: the replies written
// on the same connection meanwhile carry none of its events, and the live
// tail follows the snapshot with no gap and no duplicate.
func TestWatchFallbackSnapshotPrecedesLiveEvents(t *testing.T) {
	_, addr := startWatchedServer(t, metrics.NewRegistry(), feed.WithCapacity(4))
	client := dialOne(t, addr)
	const preloaded = 2 * watchEventBatch
	entries := make([]registry.Entry, preloaded)
	for i := range entries {
		entries[i] = wireEntry(fmt.Sprintf("pre%d", i))
	}
	if _, err := client.PutMany(tctx, entries); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := client.Put(tctx, wireEntry(fmt.Sprintf("live%d", i))); err != nil {
				done <- err
				return
			}
		}
	}()
	w, err := client.Watch(tctx, 1, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Fallback() {
		t.Fatal("a compacted cursor did not fall back to a snapshot")
	}
	head := w.StartSeq()
	var snapshot, live int
	next := head + 1
	for live < 64 {
		ev := watchCollect(t, w, 1)[0]
		switch {
		case ev.Seq == head && live == 0:
			snapshot++
		case ev.Seq == next:
			live++
			next++
		default:
			t.Fatalf("after %d snapshot and %d live events: seq %d, want %d (snapshot at %d)", snapshot, live, ev.Seq, next, head)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("put beside the snapshot: %v", err)
	}
	if snapshot < preloaded {
		t.Errorf("snapshot carried %d events, want at least the %d preloaded entries", snapshot, preloaded)
	}
}

// A fallback snapshot, or a backlog, arrives as fast as the server can send
// it, far faster than live events do. A consumer that keeps taking events
// receives all of it, however many times over it fills its buffer: what the
// buffer cannot take spills to the stream's own goroutine, and only a
// consumer that takes nothing for watchStall lags. One CPU, as geobench
// runs, so the reader takes the whole burst off the socket before the
// consumer runs at all.
func TestWatchBurstReachesAConsumerThatKeepsReading(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 32 * watchEventBatch
	entries := make([]registry.Entry, n)
	for i := range entries {
		entries[i] = wireEntry(fmt.Sprintf("k%d", i))
	}
	for _, tc := range []struct {
		name     string
		capacity int
	}{{"backlog", 2 * n}, {"snapshot", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startWatchedServer(t, metrics.NewRegistry(), feed.WithCapacity(tc.capacity))
			client := dialOne(t, addr)
			if _, err := client.PutMany(tctx, entries); err != nil {
				t.Fatal(err)
			}
			w, err := client.Watch(tctx, 0, WatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if w.Fallback() != (tc.name == "snapshot") {
				t.Fatalf("fallback = %v", w.Fallback())
			}
			got := watchCollect(t, w, n)
			if _, err := client.Put(tctx, wireEntry("after")); err != nil {
				t.Fatal(err)
			}
			if ev := watchCollect(t, w, 1)[0]; ev.Name != "after" || ev.Seq != n+1 {
				t.Fatalf("the live event after %d burst events = %+v", len(got), ev)
			}
		})
	}
}

// BenchmarkWatchedPut is a Put on a connection that also carries a watch of
// the server's feed, the durable_write workload's shape, reporting the
// server's writes per put: one, the reply carrying the put's event.
func BenchmarkWatchedPut(b *testing.B) {
	ln, addr := startWatchedServer(b, nil)
	client := dialOne(b, addr)
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	go func() {
		for range w.Events() {
		}
	}()
	entry := geobenchEntry(1)
	b.ReportAllocs()
	before := ln.total()
	for b.Loop() {
		if _, err := client.Put(tctx, entry); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ln.total()-before)/float64(b.N), "writes/op")
}
