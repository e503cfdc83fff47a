package feed

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/metrics"
)

// logSource adapts an in-process Log to a combiner Source, with the
// snapshot fallback serving the given state function.
func logSource(name string, l *Log, state func() []Event) Source {
	return Source{
		Name: name,
		Subscribe: func(ctx context.Context, from uint64) (Stream, error) {
			return l.Subscribe(from)
		},
		Snapshot: func(ctx context.Context) ([]Event, uint64, error) {
			head := l.Seq()
			if state == nil {
				return nil, head, nil
			}
			return state(), head, nil
		},
	}
}

func TestCombinerMergesSourcesInOrder(t *testing.T) {
	a, b := NewLog(), NewLog()
	c := NewCombiner([]Source{logSource("a", a, nil), logSource("b", b, nil)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	for i := 0; i < 5; i++ {
		a.Append(OpPut, fmt.Sprintf("a%d", i), nil)
		b.Append(OpPut, fmt.Sprintf("b%d", i), nil)
	}
	seen := map[string][]uint64{}
	timeout := time.After(5 * time.Second)
	for n := 0; n < 10; n++ {
		select {
		case ev := <-c.Events():
			seen[ev.Source] = append(seen[ev.Source], ev.Seq)
		case <-timeout:
			t.Fatalf("timed out with %v", seen)
		}
	}
	for _, name := range []string{"a", "b"} {
		seqs := seen[name]
		if len(seqs) != 5 {
			t.Fatalf("source %s delivered %d events", name, len(seqs))
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("source %s out of order: %v", name, seqs)
			}
		}
	}
	if c.Cursor("a") != 5 || c.Cursor("b") != 5 {
		t.Fatalf("cursors = %d, %d", c.Cursor("a"), c.Cursor("b"))
	}
}

func TestCombinerResubscribesAfterStreamLoss(t *testing.T) {
	l := NewLog()
	reg := metrics.NewRegistry()

	var mu sync.Mutex
	var streams []*Subscription
	src := Source{
		Name: "s",
		Subscribe: func(ctx context.Context, from uint64) (Stream, error) {
			sub, err := l.Subscribe(from)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			streams = append(streams, sub)
			mu.Unlock()
			return sub, nil
		},
	}
	c := NewCombiner([]Source{src},
		WithCombinerMetrics(reg),
		WithResubscribeBackoff(time.Millisecond, 10*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	l.Append(OpPut, "k1", nil)
	l.Append(OpPut, "k2", nil)
	var got []uint64
	timeout := time.After(5 * time.Second)
	next := func() SourceEvent {
		select {
		case ev := <-c.Events():
			return ev
		case <-timeout:
			t.Fatalf("timed out; got %v", got)
			return SourceEvent{}
		}
	}
	got = append(got, next().Seq, next().Seq)

	// Kill the live stream out from under the combiner; it must resume
	// from its cursor with no gap and no duplicate.
	mu.Lock()
	streams[0].Close()
	mu.Unlock()
	l.Append(OpPut, "k3", nil)
	l.Append(OpPut, "k4", nil)
	got = append(got, next().Seq, next().Seq)
	for i, want := range []uint64{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("delivered seqs %v, want 1..4 exactly once", got)
		}
	}
	if reg.Counter("feed_resumes_total").Value() == 0 {
		t.Fatal("resume not counted")
	}
}

func TestCombinerSnapshotFallbackOnCompaction(t *testing.T) {
	l := NewLog(WithCapacity(4))
	reg := metrics.NewRegistry()
	state := func() []Event {
		// The source's current materialized state: one entry.
		return []Event{{Op: OpPut, Name: "live", Value: []byte("v")}}
	}
	for i := 0; i < 32; i++ {
		l.Append(OpPut, "live", []byte("v"))
	}
	// Cursor 1 is long compacted: the combiner must fall back to the
	// snapshot and then tail.
	src := logSource("s", l, state)
	src.From = 1
	c := NewCombiner([]Source{src}, WithCombinerMetrics(reg),
		WithResubscribeBackoff(time.Millisecond, 10*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	timeout := time.After(5 * time.Second)
	var first SourceEvent
	select {
	case first = <-c.Events():
	case <-timeout:
		t.Fatal("no snapshot event")
	}
	if first.Name != "live" || first.Op != OpPut {
		t.Fatalf("snapshot event = %+v", first.Event)
	}
	if first.Seq != 32 {
		t.Fatalf("snapshot event seq = %d, want head 32", first.Seq)
	}
	// Tail continues after the snapshot head.
	l.Append(OpDelete, "live", nil)
	select {
	case ev := <-c.Events():
		if ev.Seq != 33 || ev.Op != OpDelete {
			t.Fatalf("tail event = %+v", ev.Event)
		}
	case <-timeout:
		t.Fatal("no tail event after fallback")
	}
	if reg.Counter("feed_snapshot_fallbacks_total").Value() != 1 {
		t.Fatalf("feed_snapshot_fallbacks_total = %d", reg.Counter("feed_snapshot_fallbacks_total").Value())
	}
}

func TestCombinerHealthBreaker(t *testing.T) {
	var mu sync.Mutex
	transitions := []bool{}
	fail := true
	l := NewLog()
	src := Source{
		Name: "s",
		Subscribe: func(ctx context.Context, from uint64) (Stream, error) {
			mu.Lock()
			f := fail
			mu.Unlock()
			if f {
				return nil, fmt.Errorf("dial refused")
			}
			return l.Subscribe(from)
		},
	}
	c := NewCombiner([]Source{src},
		WithFailureThreshold(2),
		WithResubscribeBackoff(time.Millisecond, 2*time.Millisecond),
		WithHealthFunc(func(_ string, healthy bool) {
			mu.Lock()
			transitions = append(transitions, healthy)
			mu.Unlock()
		}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for c.Healthy("s") {
		if time.Now().After(deadline) {
			t.Fatal("source never marked down")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	for !c.Healthy("s") {
		if time.Now().After(deadline) {
			t.Fatal("source never recovered")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) < 2 || transitions[0] || !transitions[len(transitions)-1] {
		t.Fatalf("health transitions = %v, want down then up", transitions)
	}
}

func TestCombinerCancelledMidEventDeliversAtMostOnce(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 20; i++ {
		l.Append(OpPut, fmt.Sprintf("k%d", i), nil)
	}
	// A tiny output buffer forces the combiner to block mid-stream when
	// the consumer stops reading.
	c := NewCombiner([]Source{logSource("s", l, nil)}, WithCombinerBuffer(1))
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)

	// Consume a few events, then cancel while the combiner is blocked on
	// the next send.
	var delivered []uint64
	for i := 0; i < 5; i++ {
		ev := <-c.Events()
		delivered = append(delivered, ev.Seq)
	}
	cancel()
	c.Close()
	for ev := range c.Events() { // drain whatever was already buffered
		delivered = append(delivered, ev.Seq)
	}
	cursor := c.Cursor("s")

	// Resume a fresh combiner from the recorded cursor: the union of the
	// two runs must cover 1..20 exactly once.
	c2 := NewCombiner([]Source{{
		Name:      "s",
		From:      cursor,
		Subscribe: func(ctx context.Context, from uint64) (Stream, error) { return l.Subscribe(from) },
	}})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	c2.Start(ctx2)
	defer c2.Close()
	timeout := time.After(5 * time.Second)
	for len(delivered) < 20 {
		select {
		case ev := <-c2.Events():
			delivered = append(delivered, ev.Seq)
		case <-timeout:
			t.Fatalf("timed out; delivered %v", delivered)
		}
	}
	seen := map[uint64]int{}
	for _, s := range delivered {
		seen[s]++
	}
	for i := uint64(1); i <= 20; i++ {
		if seen[i] != 1 {
			t.Fatalf("seq %d delivered %d times (delivered %v)", i, seen[i], delivered)
		}
	}
}

// TestCombinerStreamStateBracketsEveryGap pins the contract the near cache's
// gap detection rests on: connected=true after each successful subscribe,
// connected=false the moment the stream ends — here a lag drop — and before
// the combiner goes back to the source, and connected=true again once the
// snapshot fallback has re-established the stream.
func TestCombinerStreamStateBracketsEveryGap(t *testing.T) {
	l := NewLog(WithCapacity(4))
	var (
		mu    sync.Mutex
		trace []string
	)
	note := func(s string) {
		mu.Lock()
		trace = append(trace, s)
		mu.Unlock()
	}
	src := Source{
		Name: "s",
		Subscribe: func(ctx context.Context, from uint64) (Stream, error) {
			note(fmt.Sprintf("subscribe@%d", from))
			// One event of headroom: a consumer two events behind is dropped.
			return l.Subscribe(from, WithBuffer(1))
		},
		Snapshot: func(ctx context.Context) ([]Event, uint64, error) {
			note("snapshot")
			return []Event{{Op: OpPut, Name: "live"}}, l.Seq(), nil
		},
	}
	c := NewCombiner([]Source{src},
		WithCombinerBuffer(1),
		WithResubscribeBackoff(time.Millisecond, 10*time.Millisecond),
		WithStreamStateFunc(func(source string, connected bool) {
			if source != "s" {
				t.Errorf("stream state for unknown source %q", source)
			}
			note(fmt.Sprintf("connected=%v", connected))
		}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	traced := func(n int) []string {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := append([]string(nil), trace...)
			mu.Unlock()
			if len(got) >= n || time.Now().After(deadline) {
				return got
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := traced(2); len(got) != 2 {
		t.Fatalf("the first subscription never went live; trace %v", got)
	}

	// Publish far past the subscription's headroom and the log's retention
	// while nobody reads the combiner: the subscription is dropped for
	// lagging, and its cursor falls out of the retained window.
	for i := 0; i < 32; i++ {
		l.Append(OpPut, "live", nil)
	}
	// Drain until the snapshot's event (stamped with the head, 32) arrives:
	// by then the combiner has been through the whole gap.
	timeout := time.After(5 * time.Second)
	for seq := uint64(0); seq != 32; {
		select {
		case ev := <-c.Events():
			seq = ev.Seq
		case <-timeout:
			t.Fatalf("snapshot event never arrived; trace %v", traced(0))
		}
	}
	// connected=true is reported right after the fallback's events are queued.
	// The resume cursor (after "subscribe@") depends on how many events the
	// combiner forwarded before the drop; everything else is fixed.
	got := traced(7)
	if len(got) != 7 || got[0] != "subscribe@0" || got[1] != "connected=true" ||
		got[2] != "connected=false" || !strings.HasPrefix(got[3], "subscribe@") || got[4] != "snapshot" ||
		got[5] != "subscribe@32" || got[6] != "connected=true" {
		t.Fatalf("trace = %v,\nwant subscribe@0 connected=true connected=false subscribe@<cursor> snapshot subscribe@32 connected=true", got)
	}
}
