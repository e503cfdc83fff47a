package feed

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/metrics"
)

func collect(t *testing.T, sub *Subscription, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("subscription ended early (%v) after %d/%d events", sub.Err(), len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d/%d events", len(out), n)
		}
	}
	return out
}

func TestLogAppendAssignsSequence(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 5; i++ {
		if got := l.Append(OpPut, fmt.Sprintf("k%d", i), []byte("v")); got != uint64(i) {
			t.Fatalf("append %d: seq = %d", i, got)
		}
	}
	if l.Seq() != 5 {
		t.Fatalf("head = %d, want 5", l.Seq())
	}
}

// relayInto returns the observer a router installs on a shard log: it
// republishes each event into relay, tagged with origin.
func relayInto(relay *Log, origin string) func(*Event) {
	return func(ev *Event) {
		if ev != nil {
			relay.Publish(&Event{Op: ev.Op, Name: ev.Name, Value: ev.Value, Origin: origin, Commit: ev.Commit, Sync: ev.Sync})
		}
	}
}

// TestLogObserverRepublishesSynchronously: two sources whose observers
// republish into one log put each accepted event there before Publish
// returns, re-sequenced, with the origin label, commit time and Sync mark;
// nothing published after the source closed is relayed.
func TestLogObserverRepublishesSynchronously(t *testing.T) {
	relay := NewLog()
	a, b := NewLog(), NewLog()
	a.Observe(relayInto(relay, "a"))
	b.Observe(relayInto(relay, "b"))
	a.Publish(&Event{Op: OpPut, Name: "x", Value: []byte("v"), Commit: 42})
	b.Append(OpDelete, "y", nil)
	a.Publish(&Event{Op: OpPut, Name: "z", Sync: true})
	a.Close()
	a.Publish(&Event{Op: OpPut, Name: "after-close"})
	if relay.Seq() != 3 {
		t.Fatalf("relay head = %d right after the publishes, want 3", relay.Seq())
	}
	sub, err := relay.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, 3)
	want := []Event{
		{Seq: 1, Op: OpPut, Name: "x", Value: []byte("v"), Origin: "a", Commit: 42},
		{Seq: 2, Op: OpDelete, Name: "y", Origin: "b"},
		{Seq: 3, Op: OpPut, Name: "z", Origin: "a", Sync: true},
	}
	for i, ev := range got {
		w := want[i]
		if ev.Seq != w.Seq || ev.Op != w.Op || ev.Name != w.Name || string(ev.Value) != string(w.Value) ||
			ev.Origin != w.Origin || ev.Sync != w.Sync || (w.Commit != 0 && ev.Commit != w.Commit) || ev.Commit == 0 {
			t.Errorf("relayed event %d = %+v, want %+v", i, ev, w)
		}
	}
}

// TestLogObserverLifecycle: two observers each see every event, sequenced,
// in the order they were added; detaching one leaves the other; a close
// reaches each attached observer once as nil, and Observe on a closed log
// calls its observer with nil at once.
func TestLogObserverLifecycle(t *testing.T) {
	l := NewLog()
	var seen []string
	closes := map[string]int{}
	observe := func(tag string) func(*Event) {
		return func(ev *Event) {
			if ev == nil {
				closes[tag]++
				return
			}
			seen = append(seen, fmt.Sprintf("%s:%d:%s", tag, ev.Seq, ev.Name))
		}
	}
	detachFirst := l.Observe(observe("first"))
	l.Observe(observe("second"))
	l.Append(OpPut, "k1", nil)
	l.Append(OpDelete, "k2", nil)
	detachFirst()
	detachFirst()
	l.Append(OpPut, "k3", nil)
	l.Observe(observe("third"))
	l.Append(OpPut, "k4", nil)
	l.Close()
	l.Close()
	l.Append(OpPut, "after-close", nil)
	if want := "[first:1:k1 second:1:k1 first:2:k2 second:2:k2 second:3:k3 second:4:k4 third:4:k4]"; fmt.Sprint(seen) != want {
		t.Errorf("observed %v, want %s", seen, want)
	}
	if want := "map[second:1 third:1]"; fmt.Sprint(closes) != want {
		t.Errorf("the close reached the observers %v times, want %s", closes, want)
	}
	l.Observe(observe("late"))()
	if closes["late"] != 1 || len(seen) != 7 {
		t.Errorf("observing a closed log: %d close calls, %d events; want the close at once and no event", closes["late"], len(seen))
	}
}

// TestLogTail: a Tail observer sees the retained events after its cursor,
// then every live one, each once and in order; it refuses a cursor outside
// the window and a closed log as Subscribe does; and it counts in
// feed_subscribers until it is detached (once, however often detach is
// called) or the log closes, which calls it with nil.
func TestLogTail(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLog(WithCapacity(4), WithLogMetrics(reg))
	subscribers := reg.Gauge("feed_subscribers")
	for i := range 6 {
		l.Append(OpPut, fmt.Sprintf("k%d", i+1), nil)
	}
	if _, err := l.Tail(1, func(*Event) {}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("tail from an evicted cursor: %v, want ErrCompacted", err)
	}
	if _, err := l.Tail(7, func(*Event) {}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("tail from past the head: %v, want ErrCompacted", err)
	}
	var seen []uint64
	closed := 0
	detach, err := l.Tail(3, func(ev *Event) {
		if ev == nil {
			closed++
			return
		}
		seen = append(seen, ev.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(OpPut, "k7", nil)
	if fmt.Sprint(seen) != "[4 5 6 7]" || subscribers.Value() != 1 {
		t.Fatalf("tail from 3 saw %v with feed_subscribers %d, want [4 5 6 7] and 1", seen, subscribers.Value())
	}
	detach()
	detach()
	l.Append(OpPut, "k8", nil)
	if len(seen) != 4 || subscribers.Value() != 0 {
		t.Fatalf("after detach: saw %v with feed_subscribers %d, want no more events and 0", seen, subscribers.Value())
	}

	if _, err := l.Tail(l.Seq(), func(ev *Event) {
		if ev == nil {
			closed++
		}
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if closed != 1 || subscribers.Value() != 0 {
		t.Fatalf("close reached the tail %d times and left feed_subscribers %d, want 1 and 0", closed, subscribers.Value())
	}
	if _, err := l.Tail(l.Seq(), func(*Event) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("tail of a closed log: %v, want ErrClosed", err)
	}
}

func TestSubscribeReplaysBacklogThenTails(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(OpPut, fmt.Sprintf("k%d", i), nil)
	}
	sub, err := l.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	l.Append(OpDelete, "k0", nil)
	got := collect(t, sub, 7)
	for i, ev := range got {
		if ev.Seq != uint64(5+i) {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, 5+i)
		}
	}
	if got[6].Op != OpDelete {
		t.Fatalf("tail event op = %v", got[6].Op)
	}
}

func TestSubscribeCursorOutsideWindow(t *testing.T) {
	l := NewLog(WithCapacity(4))
	for i := 0; i < 10; i++ {
		l.Append(OpPut, "k", nil)
	}
	// Events 1..6 were evicted; cursor 2 is compacted.
	if _, err := l.Subscribe(2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stale cursor: err = %v, want ErrCompacted", err)
	}
	// A cursor beyond the head (from another incarnation) is invalid too.
	if _, err := l.Subscribe(99); !errors.Is(err, ErrCompacted) {
		t.Fatalf("future cursor: err = %v, want ErrCompacted", err)
	}
	// The newest retained window resumes fine.
	sub, err := l.Subscribe(6)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := collect(t, sub, 4)
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("window replay = %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
}

// TestLogRetainNone: a log that retains nothing goes on numbering its events
// and delivering them to its subscribers and observers, but no cursor from
// before its head resumes, the events it held included.
func TestLogRetainNone(t *testing.T) {
	l := NewLog(WithCapacity(4))
	for range 3 {
		l.Append(OpPut, "k", []byte("v"))
	}
	sub, err := l.Subscribe(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var observed []uint64
	l.Observe(func(ev *Event) {
		if ev != nil {
			observed = append(observed, ev.Seq)
		}
	})
	l.RetainNone()
	if _, err := l.Subscribe(2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("cursor inside the window it had: err = %v, want ErrCompacted", err)
	}
	for range 6 { // more than the capacity it had
		l.Append(OpPut, "k", []byte("v"))
	}
	if l.Seq() != 9 || l.Floor() != 9 {
		t.Fatalf("head %d, floor %d after 9 events; want 9 and 9", l.Seq(), l.Floor())
	}
	if _, err := l.Subscribe(8); !errors.Is(err, ErrCompacted) {
		t.Fatalf("subscribe one event back: err = %v, want ErrCompacted", err)
	}
	if _, err := l.Tail(8, func(*Event) {}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("tail one event back: err = %v, want ErrCompacted", err)
	}
	var tailed []uint64
	if _, err := l.Tail(9, func(ev *Event) { tailed = append(tailed, ev.Seq) }); err != nil {
		t.Fatalf("tail from the head: %v", err)
	}
	l.Append(OpDelete, "k", nil)
	got := collect(t, sub, 7)
	if got[0].Seq != 4 || got[6].Seq != 10 || got[6].Op != OpDelete {
		t.Fatalf("subscriber saw %d..%d (last %v), want 4..10 ending in the delete", got[0].Seq, got[6].Seq, got[6].Op)
	}
	if fmt.Sprint(observed) != "[4 5 6 7 8 9 10]" || fmt.Sprint(tailed) != "[10]" {
		t.Fatalf("observer saw %v and tail %v, want [4 5 6 7 8 9 10] and [10]", observed, tailed)
	}
}

func TestStartAtSetsFloor(t *testing.T) {
	l := NewLog()
	l.StartAt(100) // a shard recovered its WAL to seq 100
	if _, err := l.Subscribe(50); !errors.Is(err, ErrCompacted) {
		t.Fatalf("pre-restart cursor: err = %v, want ErrCompacted", err)
	}
	sub, err := l.Subscribe(100)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if seq := l.Publish(&Event{Seq: 101, Op: OpPut, Name: "k"}); seq != 101 {
		t.Fatalf("publish after StartAt: seq %d", seq)
	}
	if got := collect(t, sub, 1); got[0].Seq != 101 {
		t.Fatalf("tail seq = %d", got[0].Seq)
	}
}

func TestSlowSubscriberDroppedWithLagged(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0, WithBuffer(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append(OpPut, "k", nil)
	}
	// Drain what arrived before the drop, then observe the closed channel.
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("delivered %d events before drop, want 2", n)
	}
	if !errors.Is(sub.Err(), ErrLagged) {
		t.Fatalf("err = %v, want ErrLagged", sub.Err())
	}
	// The log itself lost nothing: resume from the last delivered cursor.
	resumed, err := l.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	got := collect(t, resumed, 3)
	if got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("resume replay = %d..%d, want 3..5", got[0].Seq, got[2].Seq)
	}
}

func TestLogCloseEndsSubscriptions(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("events channel still open after log close")
	}
	if !errors.Is(sub.Err(), ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", sub.Err())
	}
	if _, err := l.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close: err = %v", err)
	}
	if seq := l.Append(OpPut, "k", nil); seq != 0 {
		t.Fatalf("publish after close returned seq %d", seq)
	}
}

func TestSubscriptionCloseIdempotent(t *testing.T) {
	l := NewLog()
	sub, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close()
	if sub.Err() != nil {
		t.Fatalf("clean close err = %v", sub.Err())
	}
	l.Append(OpPut, "k", nil) // must not panic on the closed channel
}

func TestLogMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLog(WithLogMetrics(reg))
	sub, _ := l.Subscribe(0)
	l.Append(OpPut, "k", nil)
	if got := reg.Counter("feed_events_total").Value(); got != 1 {
		t.Fatalf("feed_events_total = %d", got)
	}
	if got := reg.Gauge("feed_subscribers").Value(); got != 1 {
		t.Fatalf("feed_subscribers = %d", got)
	}
	sub.Close()
	if got := reg.Gauge("feed_subscribers").Value(); got != 0 {
		t.Fatalf("feed_subscribers after close = %d", got)
	}
}

// publishBuffer is the subscriber buffer of the publish rungs: drained before
// it fills, so no subscriber is dropped.
const publishBuffer = 4096

// subscribedLog returns a log with n subscribers, and a function that empties
// their buffers.
func subscribedLog(tb testing.TB, n int) (*Log, func()) {
	tb.Helper()
	l := NewLog()
	subs := make([]*Subscription, n)
	for i := range subs {
		sub, err := l.Subscribe(0, WithBuffer(publishBuffer))
		if err != nil {
			tb.Fatal(err)
		}
		subs[i] = sub
	}
	return l, func() {
		for _, sub := range subs {
			for len(sub.Events()) > 0 {
				<-sub.Events()
			}
		}
	}
}

// publishKeys and publishValue are geobench's keys and its 38-byte encoded
// entry.
func publishKeys() ([]string, []byte) {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("data/f%07d", i)
	}
	return keys, make([]byte, 38)
}

// TestAppendAllocations: publishing allocates nothing, with or without
// subscribers, to one observer or two, to a Tail observer, or through a
// relaying observer into a log that has one, from a log that retains its
// window or none.
func TestAppendAllocations(t *testing.T) {
	keys, value := publishKeys()
	observed, twice := NewLog(), NewLog()
	observed.Observe(func(*Event) {})
	twice.Observe(func(*Event) {})
	twice.Observe(func(*Event) {})
	tailed := NewLog()
	if _, err := tailed.Tail(0, func(*Event) {}); err != nil {
		t.Fatal(err)
	}
	relaying, relay := NewLog(), NewLog()
	relaying.Observe(relayInto(relay, "shard-0"))
	relay.Observe(func(*Event) {})
	unretained := NewLog()
	unretained.Observe(relayInto(relay, "shard-1"))
	unretained.RetainNone()
	type row struct {
		name string
		log  *Log
	}
	rows := []row{{"an observer", observed}, {"two observers", twice}, {"a Tail observer", tailed}, {"a relaying observer", relaying},
		{"a relaying observer on a log that retains nothing", unretained}}
	for _, n := range []int{0, 1, 16} {
		l, _ := subscribedLog(t, n)
		rows = append(rows, row{fmt.Sprintf("%d subscribers", n), l})
	}
	for _, r := range rows {
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			r.log.Append(OpPut, keys[i%len(keys)], value)
			i++
		}); allocs != 0 {
			t.Errorf("Append with %s cost %v allocations, want 0", r.name, allocs)
		}
	}
	if relay.Seq() == 0 {
		t.Error("the relaying observer republished nothing")
	}
}

// BenchmarkLogPublish is the in-package rung of the ladder's
// feed.publish_ns_* rows (benchmark/ladder.go): Append with 0, 1 and 16
// subscribers, whose buffers are emptied, untimed, before they fill, and
// with one Tail observer, a served watch's way of reading the log.
func BenchmarkLogPublish(b *testing.B) {
	keys, value := publishKeys()
	for _, n := range []int{0, 1, 16} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			l, drain := subscribedLog(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%publishBuffer == publishBuffer-1 {
					b.StopTimer()
					drain()
					b.StartTimer()
				}
				l.Append(OpPut, keys[i%len(keys)], value)
			}
		})
	}
	b.Run("tail", func(b *testing.B) {
		l := NewLog()
		if _, err := l.Tail(0, func(*Event) {}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			l.Append(OpPut, keys[i%len(keys)], value)
		}
	})
}
