package rpc

// Per-connection machinery: a connection read with conn.Read takes each small
// frame in one read; a frame's buffer grows with the bytes that arrive, not
// with its length prefix; the server serves admitted frames on dispatch
// goroutines it reuses and bounds; and a request too large to send is refused
// before any connection is touched. What a round trip costs a socket in reads
// and writes is counted in inbox_linux_test.go.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/feed"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// readFrame reads one length-prefixed message off r, as a test's own peer
// does, and returns its payload.
func readFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size > MaxMessageSize {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	_, err := io.ReadFull(r, payload)
	return payload, err
}

// readReply reads one reply off r into f.
func readReply(r io.Reader, f *ResponseFrame) error {
	payload, err := readFrame(r)
	if err != nil {
		return err
	}
	return decodeResponseFrame(payload, f)
}

// countingConn counts the Read calls made on a connection. It is no socket,
// so its reader fills the inbox with conn.Read.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// countingListener hands out its accepted connections as countingConns.
type countingListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, reads: l.reads}, nil
}

// readsPerFrameBound is what both read-count tests allow: one read per frame,
// with room for the odd segment split.
const readsPerFrameBound = 1.05

// A sequential Get's request arrives in one segment, and the server takes it,
// length prefix and payload, in one conn.Read. TestRoundTripReadsEachSocketOnce
// counts a socket's reads.
func TestServerReadsEachFrameOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reads := new(atomic.Int64)
	srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil)
	go srv.Serve(countingListener{Listener: ln, reads: reads})
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	const frames = 200
	name := geobenchEntry(1).Name
	before := reads.Load()
	for range frames {
		if _, err := client.Get(tctx, name); err != nil {
			t.Fatal(err)
		}
	}
	perFrame := float64(reads.Load()-before) / frames
	if perFrame > readsPerFrameBound {
		t.Errorf("the server made %.2f reads per request frame, want at most %v", perFrame, readsPerFrameBound)
	}
	t.Logf("server reads per request frame: %.3f", perFrame)
}

// The client's demultiplexer takes each reply in one conn.Read too.
func TestClientReadsEachReplyOnce(t *testing.T) {
	srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	reads := new(atomic.Int64)
	pc := newPoolConn(countingConn{Conn: conn, reads: reads}, 5*time.Second)
	defer pc.fail(errors.New("test over"))

	const frames = 200
	for i := range frames {
		f := RequestFrame{Header: Header{ID: uint64(i + 1), Kind: FrameSingle}, Req: Request{Op: OpGet, Name: geobenchEntry(1).Name}}
		frame, err := encodeRequest(&f)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := pc.do(tctx, f.Header.ID, frame, time.Now())
		if err != nil || !rf.Resp.OK {
			t.Fatalf("Get %d = %+v, %v", i, rf.Resp, err)
		}
	}
	// The read loop's first Read was counted when it started, and so may
	// its 201st be.
	perFrame := float64(reads.Load()-1) / frames
	if perFrame > readsPerFrameBound {
		t.Errorf("the client made %.2f reads per reply frame, want at most %v", perFrame, readsPerFrameBound)
	}
	t.Logf("client reads per reply frame: %.3f", perFrame)
}

// bodyWaitConn counts into waiting once its reader asks for more after the
// first want bytes: the server has read a frame's prefix and what was sent of
// its body, and waits for the rest. Only the server's read loop reads it, and
// since it is no socket, it reads with conn.Read.
type bodyWaitConn struct {
	net.Conn
	want, got int
	waiting   *atomic.Int64
}

func (c *bodyWaitConn) Read(p []byte) (int, error) {
	if c.got >= c.want && c.want > 0 {
		c.want = 0
		c.waiting.Add(1)
	}
	n, err := c.Conn.Read(p)
	c.got += n
	return n, err
}

type bodyWaitListener struct {
	net.Listener
	want    int
	waiting *atomic.Int64
}

func (l bodyWaitListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &bodyWaitConn{Conn: conn, want: l.want, waiting: l.waiting}, nil
}

// liveHeap returns the bytes of heap a full collection leaves live.
func liveHeap() uint64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// A length prefix alone buys no memory: eight connections that each announce
// a frame of MaxMessageSize, send 1 KiB of it and go idle leave the server's
// live heap within 4 MiB of where it was (it grew by 128 MiB while the
// declared length was allocated up front), and another client's calls
// complete meanwhile. The connections are wrapped, so this holds the reads
// made with conn.Read; TestRawReadLengthPrefixBuysNoMemory holds a socket's.
func TestLengthPrefixBuysNoMemory(t *testing.T) {
	const conns, sent = 8, 1 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	waiting := new(atomic.Int64)
	srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil, WithServerMetrics(nil))
	go srv.Serve(bodyWaitListener{Listener: ln, want: 4 + sent, waiting: waiting})
	t.Cleanup(func() { srv.Close() })

	before := liveHeap()
	msg := make([]byte, 4+sent)
	binary.BigEndian.PutUint32(msg, MaxMessageSize)
	for range conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if !eventually(func() bool { return waiting.Load() == conns }) {
		t.Fatalf("the server waits on %d of %d partial frames", waiting.Load(), conns)
	}
	grown := int64(liveHeap()) - int64(before)
	if grown >= 4<<20 {
		t.Errorf("%d partial frames of %d bytes grew the live heap by %.1f MiB, want under 4", conns, sent, float64(grown)/(1<<20))
	}
	t.Logf("live heap grew by %.2f MiB", float64(grown)/(1<<20))

	client, err := Dial(tctx, ln.Addr().String(), WithPoolSize(1), WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Get(tctx, "beside"); err != nil {
		t.Errorf("Get beside %d partial frames: %v", conns, err)
	}
}

// goroutineAPI records which goroutine served each Get.
type goroutineAPI struct {
	nullAPI
	mu  sync.Mutex
	ids map[string]int
}

func (a *goroutineAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)] // "goroutine 123 [running]:..."
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	a.mu.Lock()
	a.ids[id]++
	a.mu.Unlock()
	return a.nullAPI.Get(ctx, name)
}

// A closed-loop caller is served by one dispatch goroutine, not by a fresh
// one per frame.
func TestServerReusesDispatchWorker(t *testing.T) {
	api := &goroutineAPI{nullAPI: nullAPI{entry: geobenchEntry(1)}, ids: map[string]int{}}
	srv := NewServer(api, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	for range 200 {
		if _, err := client.Get(tctx, "reused"); err != nil {
			t.Fatal(err)
		}
	}
	api.mu.Lock()
	defer api.mu.Unlock()
	if len(api.ids) > 2 {
		t.Errorf("200 sequential Gets ran on %d goroutines, want at most 2", len(api.ids))
	}
	t.Logf("goroutines serving 200 sequential Gets: %v", api.ids)
}

// gatedAPI holds every Get until release is closed and records the most Gets
// it had executing at once.
type gatedAPI struct {
	nullAPI
	release       chan struct{}
	running, peak atomic.Int64
}

func (a *gatedAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	n := a.running.Add(1)
	defer a.running.Add(-1)
	for p := a.peak.Load(); n > p && !a.peak.CompareAndSwap(p, n); p = a.peak.Load() {
	}
	select {
	case <-a.release:
	case <-ctx.Done():
		return registry.Entry{}, ctx.Err()
	}
	return a.nullAPI.Get(ctx, name)
}

// rpcGoroutines returns the stacks of the goroutines running a method of
// this package, keyed by goroutine ID.
func rpcGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	out := map[string]string{}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "geomds/internal/rpc.(*") {
			id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
			out[id] = g
		}
	}
	return out
}

// eventually polls cond for up to five seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Pipelined calls beyond the in-flight bound wait, a burst leaves at most one
// idle worker behind on its connection, and Close leaves none at all.
func TestServerDispatchWorkersAreBounded(t *testing.T) {
	const inflight, callers, calls = 8, 8, 64
	before := rpcGoroutines()
	api := &gatedAPI{nullAPI: nullAPI{entry: geobenchEntry(1)}, release: make(chan struct{})}
	srv := NewServer(api, nil, WithMaxInflight(inflight))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(tctx, addr, WithPoolSize(1), WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for c := range callers {
		for range calls / callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Get(tctx, fmt.Sprintf("caller-%d", c)); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	if !eventually(func() bool { return api.running.Load() == inflight }) {
		t.Fatalf("%d of %d pipelined calls are executing, want %d", api.running.Load(), calls, inflight)
	}
	time.Sleep(50 * time.Millisecond) // room for a dispatcher that ignores the bound
	close(api.release)
	wg.Wait()
	if peak := api.peak.Load(); peak > inflight {
		t.Errorf("%d calls executed at once on one connection, want at most %d", peak, inflight)
	}
	if !eventually(func() bool { return runtime.NumGoroutine() <= baseline+1 }) {
		t.Errorf("%d goroutines after the burst, want at most %d (the baseline and one idle worker)", runtime.NumGoroutine(), baseline+1)
	}

	srv.Close()
	client.Close()
	leaked := func() string {
		for id, g := range rpcGoroutines() {
			if _, ok := before[id]; !ok {
				return g
			}
		}
		return ""
	}
	if !eventually(func() bool { return leaked() == "" }) {
		t.Errorf("a goroutine outlived Server.Close:\n%s", leaked())
	}
}

// The server may send a watch's ack and its first events in one segment, and
// the connection's reader hands out every frame of it: the ack to the
// handshake, the events to the stream.
func TestWatchHandshakeSharesReaderWithEvents(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-served })
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		payload, err := readFrame(conn)
		if err != nil {
			t.Error(err)
			return
		}
		var req RequestFrame
		_, _, err = decodeRequestPreamble(payload, &req)
		if err != nil {
			t.Error(err)
			return
		}
		replies := []ResponseFrame{{Header: Header{ID: req.Header.ID, Kind: FrameWatch}, Resp: Response{OK: true}}}
		for seq := uint64(1); seq <= 3; seq++ {
			replies = append(replies, ResponseFrame{
				Header: Header{ID: req.Header.ID, Kind: FrameWatchEvent},
				Resp:   Response{OK: true},
				Events: []feed.Event{{Seq: seq, Op: feed.OpPut, Name: fmt.Sprintf("ev-%d", seq)}},
			})
		}
		var wire []byte
		for i := range replies {
			frame, _, err := encodeReply(&replies[i])
			if err != nil {
				t.Error(err)
				return
			}
			wire = append(wire, frame.b...)
			releaseFrame(frame)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Error(err)
			return
		}
		readFrame(conn) // until the client hangs up
	}()

	// Dial is what builds a Client; the watch handshake is reached without it.
	client := &Client{addr: ln.Addr().String(), timeout: 5 * time.Second, pool: 1, conns: make([]*poolConn, 1)}
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, ev := range watchCollect(t, w, 3) {
		if want := uint64(i + 1); ev.Seq != want || ev.Name != fmt.Sprintf("ev-%d", want) {
			t.Errorf("event %d = %+v, want ev-%d at seq %d", i, ev, want, want)
		}
	}
}

// A request larger than MaxMessageSize is refused before a connection is
// taken: the caller learns its size, the error is not a transport failure,
// and nothing is dialed, neither for it nor for a retry.
func TestOversizedRequestIsRefusedBeforeDialing(t *testing.T) {
	srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := metrics.NewRegistry()
	client, err := Dial(tctx, addr, WithPoolSize(4), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	dials := reg.Counter("rpc_client_dials_total")
	before := dials.Value()

	name := strings.Repeat("n", 1024)
	names := make([]string, MaxMessageSize/len(name)+1)
	for i := range names {
		names[i] = name
	}
	_, err = client.GetMany(tctx, names)
	m := regexp.MustCompile(`message of (\d+) bytes exceeds`).FindStringSubmatch(fmt.Sprint(err))
	if m == nil {
		t.Fatalf("GetMany of %d names = %v, want an error naming the frame's size", len(names), err)
	}
	if size, _ := strconv.Atoi(m[1]); size <= MaxMessageSize {
		t.Errorf("the error names %d bytes, not more than the limit of %d", size, MaxMessageSize)
	}
	if errors.Is(err, registry.ErrUnavailable) {
		t.Errorf("an oversized request reads as a transport failure: %v", err)
	}
	if n := dials.Value() - before; n != 0 {
		t.Errorf("an oversized request dialed %d connections, want 0", n)
	}
}
