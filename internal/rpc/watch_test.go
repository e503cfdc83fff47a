package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

// startFeedServer is startTestServer over an instance with a change feed,
// returning the instance too so tests can compare against the source log.
func startFeedServer(t *testing.T, site cloud.SiteID, opts ...registry.InstanceOption) (*registry.Instance, *Server, *Client) {
	t.Helper()
	opts = append([]registry.InstanceOption{registry.WithChangeFeed()}, opts...)
	inst := registry.NewInstance(site, memcache.New(memcache.Config{}), opts...)
	t.Cleanup(func() { inst.Close() })
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return inst, srv, client
}

func watchCollect(t *testing.T, w *WatchStream, n int) []feed.Event {
	t.Helper()
	out := make([]feed.Event, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch ended early (%v) after %d/%d events", w.Err(), len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d/%d events: %+v", len(out), n, out)
		}
	}
	return out
}

func TestWatchStreamsCommittedMutations(t *testing.T) {
	_, _, client := startFeedServer(t, 2)
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.StartSeq() != 0 || w.Fallback() {
		t.Fatalf("ack = %+v, want fresh stream from 0", w.ack)
	}
	if _, err := client.Create(tctx, wireEntry("watched")); err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(tctx, "watched"); err != nil {
		t.Fatal(err)
	}
	got := watchCollect(t, w, 2)
	if got[0].Op != feed.OpPut || got[0].Name != "watched" || got[0].Seq != 1 {
		t.Fatalf("event 0 = %+v", got[0])
	}
	if got[1].Op != feed.OpDelete || got[1].Seq != 2 {
		t.Fatalf("event 1 = %+v", got[1])
	}
}

func TestWatchPrefixFilter(t *testing.T) {
	_, _, client := startFeedServer(t, 2)
	w, err := client.Watch(tctx, 0, WatchOptions{Prefix: "jobs/"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, name := range []string{"jobs/a", "other/b", "jobs/c"} {
		if _, err := client.Create(tctx, wireEntry(name)); err != nil {
			t.Fatal(err)
		}
	}
	got := watchCollect(t, w, 2)
	if got[0].Name != "jobs/a" || got[1].Name != "jobs/c" {
		t.Fatalf("filtered names = %q, %q", got[0].Name, got[1].Name)
	}
}

// TestWatchReconnectResumesWithoutGapsOrDuplicates kills a watch mid-stream
// and resumes from its cursor on a fresh stream: the union of the two runs
// must deliver every sequence exactly once.
func TestWatchReconnectResumesWithoutGapsOrDuplicates(t *testing.T) {
	_, _, client := startFeedServer(t, 2)
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := client.Create(tctx, wireEntry(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w, err := client.Watch(tctx, 0, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := watchCollect(t, w, n/3)
	cursor := first[len(first)-1].Seq
	w.Close() // connection torn down mid-stream

	w2, err := client.Watch(tctx, cursor, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Fallback() {
		t.Fatal("in-window resume must not fall back to a snapshot")
	}
	rest := watchCollect(t, w2, n-len(first))
	seen := make(map[uint64]int, n)
	for _, ev := range append(first, rest...) {
		seen[ev.Seq]++
	}
	for s := uint64(1); s <= n; s++ {
		if seen[s] != 1 {
			t.Fatalf("seq %d delivered %d times across reconnect", s, seen[s])
		}
	}
}

// TestWatchCursorTooOldFallsBackToSnapshot subscribes with a cursor the
// server compacted away: the ack reports the fallback and the current state
// arrives as put events at the snapshot head before the live tail.
func TestWatchCursorTooOldFallsBackToSnapshot(t *testing.T) {
	_, _, client := startFeedServer(t, 2, registry.WithChangeFeed(feed.WithCapacity(4)))
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := client.Create(tctx, wireEntry(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w, err := client.Watch(tctx, 1, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Fallback() || w.StartSeq() != n {
		t.Fatalf("ack = %+v, want fallback at head %d", w.ack, n)
	}
	snapshot := watchCollect(t, w, n)
	names := make(map[string]bool, n)
	for _, ev := range snapshot {
		if ev.Op != feed.OpPut || ev.Seq != n {
			t.Fatalf("snapshot event = %+v, want put at head %d", ev, n)
		}
		names[ev.Name] = true
	}
	if len(names) != n {
		t.Fatalf("snapshot covered %d names, want %d", len(names), n)
	}
	// The tail continues with live sequence numbers after the head.
	if _, err := client.Create(tctx, wireEntry("after")); err != nil {
		t.Fatal(err)
	}
	tail := watchCollect(t, w, 1)
	if tail[0].Seq != n+1 || tail[0].Name != "after" {
		t.Fatalf("tail event = %+v", tail[0])
	}
}

func TestWatchNoFallbackSurfacesCompacted(t *testing.T) {
	_, _, client := startFeedServer(t, 2, registry.WithChangeFeed(feed.WithCapacity(4)))
	for i := 0; i < 16; i++ {
		if _, err := client.Create(tctx, wireEntry(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Watch(tctx, 1, WatchOptions{NoFallback: true}); !errors.Is(err, feed.ErrCompacted) {
		t.Fatalf("err = %v, want feed.ErrCompacted", err)
	}
}

func TestWatchRefusedWithoutChangeFeed(t *testing.T) {
	_, client := startTestServer(t, 2) // instance without WithChangeFeed
	if _, err := client.Watch(tctx, 0, WatchOptions{}); err == nil {
		t.Fatal("watch against a feed-less registry must fail")
	}
}

// TestWatchOpRefusedOutsideWatchFrames names the watch op in a batch frame:
// the server must answer a clean bad-op error, not hang or break the
// connection.
func TestWatchOpRefusedOutsideWatchFrames(t *testing.T) {
	_, client := startTestServer(t, 2)
	resps, err := client.Batch(tctx, []Request{{Op: OpWatch}, {Op: OpPing}})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].OK || resps[0].Err != ErrBadOp {
		t.Fatalf("watch op answered %+v, want bad-op refusal", resps[0])
	}
	if !resps[1].OK {
		t.Fatalf("ping after the refusal = %+v", resps[1])
	}
}

// TestWatchCombinerOverRemoteShards fans two remote registries' watch
// streams into one combiner: a WatchStream is a feed.Stream, in order per
// source.
func TestWatchCombinerOverRemoteShards(t *testing.T) {
	_, _, clientA := startFeedServer(t, 0)
	_, _, clientB := startFeedServer(t, 1)
	source := func(name string, c *Client) feed.Source {
		return feed.Source{Name: name, Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			return c.Watch(ctx, from, WatchOptions{})
		}}
	}
	comb := feed.NewCombiner(
		[]feed.Source{source("site-0", clientA), source("site-1", clientB)},
		feed.WithResubscribeBackoff(time.Millisecond, 50*time.Millisecond),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	comb.Start(ctx)
	defer comb.Close()

	const n = 8
	for i := 0; i < n; i++ {
		if _, err := clientA.Create(tctx, wireEntry(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := clientB.Create(tctx, wireEntry(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string][]uint64{}
	timeout := time.After(10 * time.Second)
	for total := 0; total < 2*n; total++ {
		select {
		case ev := <-comb.Events():
			seen[ev.Source] = append(seen[ev.Source], ev.Seq)
		case <-timeout:
			t.Fatalf("timed out with %v", seen)
		}
	}
	for _, source := range []string{"site-0", "site-1"} {
		seqs := seen[source]
		if len(seqs) != n {
			t.Fatalf("source %s delivered %d events, want %d", source, len(seqs), n)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("source %s out of order: %v", source, seqs)
			}
		}
	}
}

// TestWatchCoalescesReplicaEvents counts the frames of a raw watch stream
// over an R=2 tier: each put publishes one relay event per replica, and the
// stream yields once before draining, so on one CPU the two go out in one
// frame, after the put's reply, instead of one frame each.
func TestWatchCoalescesReplicaEvents(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shards := make([]registry.API, 4)
	for i := range shards {
		inst := registry.NewInstance(2, memcache.New(memcache.Config{}), registry.WithChangeFeed())
		t.Cleanup(func() { inst.Close() })
		shards[i] = inst
	}
	router, err := registry.NewRouter(2, shards, registry.WithRouterReplication(2), registry.WithRouterMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv := NewServer(router, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := writeRequest(conn, &RequestFrame{Header: Header{ID: 1, Kind: FrameWatch}}); err != nil {
		t.Fatal(err)
	}
	var ack ResponseFrame
	if err := readReply(conn, &ack); err != nil || ack.Header.Kind != FrameWatch || !ack.Resp.OK {
		t.Fatalf("watch ack = %+v, %v", ack, err)
	}

	const puts = 200
	type tally struct {
		frames, events int
		err            error
	}
	counted := make(chan tally, 1)
	go func() {
		var c tally
		for c.events < 2*puts && c.err == nil {
			var rf ResponseFrame
			if c.err = readReply(conn, &rf); c.err == nil && rf.Header.Kind == FrameWatchEvent {
				c.frames++
				c.events += len(rf.Events)
			}
		}
		counted <- c
	}()
	for i := range puts {
		if _, err := client.Put(tctx, wireEntry(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c := <-counted
	if c.err != nil || c.events != 2*puts {
		t.Fatalf("watch stream carried %d of %d events: %v", c.events, 2*puts, c.err)
	}
	t.Logf("%d puts, %d events in %d frames (%.2f per put)", puts, c.events, c.frames, float64(c.frames)/puts)
	if c.frames > puts*5/4 {
		t.Errorf("%d frames for %d replicated puts, want at most %d: the replicas' events were not coalesced", c.frames, puts, puts*5/4)
	}
}
