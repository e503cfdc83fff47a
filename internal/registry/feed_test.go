package registry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/store"
)

// collectFeed drains n events from the subscription, failing the test if the
// stream ends or stalls first.
func collectFeed(t *testing.T, sub *feed.Subscription, n int) []feed.Event {
	t.Helper()
	out := make([]feed.Event, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("feed ended early (%v) after %d/%d events", sub.Err(), len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d/%d events: %+v", len(out), n, out)
		}
	}
	return out
}

func TestInstanceFeedPublishesCommittedMutations(t *testing.T) {
	ctx := context.Background()
	inst := NewInstance(3, memcache.New(memcache.Config{}), WithChangeFeed())
	defer inst.Close()
	log := inst.ChangeFeed()
	if log == nil {
		t.Fatal("ChangeFeed() = nil with WithChangeFeed")
	}
	sub, err := log.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if _, err := inst.Create(ctx, NewEntry("a", 1, "t", Location{Site: 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.AddLocation(ctx, "a", Location{Site: 4}); err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	got := collectFeed(t, sub, 3)
	wantOps := []feed.Op{feed.OpPut, feed.OpPut, feed.OpDelete}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) || ev.Op != wantOps[i] || ev.Name != "a" {
			t.Fatalf("event %d = %+v, want seq %d op %v name a", i, ev, i+1, wantOps[i])
		}
	}
	// Put events carry the encoded entry.
	e, err := DecodeEntry(got[1].Value)
	if err != nil {
		t.Fatalf("decoding put event value: %v", err)
	}
	if len(e.Locations) != 2 {
		t.Fatalf("decoded entry has %d locations, want 2", len(e.Locations))
	}
}

func TestInstanceFeedSkipsNoopDeletes(t *testing.T) {
	ctx := context.Background()
	inst := NewInstance(3, memcache.New(memcache.Config{}), WithChangeFeed())
	defer inst.Close()
	sub, err := inst.ChangeFeed().Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Deleting names that do not exist must publish nothing: a replication
	// consumer applying deletes everywhere would otherwise echo them forever.
	if _, err := inst.DeleteMany(ctx, []string{"ghost1", "ghost2"}); err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(ctx, "ghost3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete absent: %v", err)
	}
	if _, err := inst.Create(ctx, NewEntry("real", 1, "t", Location{Site: 3})); err != nil {
		t.Fatal(err)
	}
	got := collectFeed(t, sub, 1)
	if got[0].Op != feed.OpPut || got[0].Name != "real" {
		t.Fatalf("first event = %+v, want the put of %q", got[0], "real")
	}
}

func TestDurableFeedResumeTokensSurviveRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	inst, err := OpenInstance(3, memcache.New(memcache.Config{}), dir, nil, WithChangeFeed())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := inst.ChangeFeed().Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := inst.Create(ctx, NewEntry(fmt.Sprintf("k%d", i), 1, "t", Location{Site: 3})); err != nil {
			t.Fatal(err)
		}
	}
	got := collectFeed(t, sub, 4)
	cursor := got[1].Seq // a consumer that stopped after the second event
	if walSeq, ok := inst.DurableSeq(); !ok || got[3].Seq != walSeq {
		t.Fatalf("feed head %d, WAL seq %d ok=%v — events must ride the WAL sequence", got[3].Seq, walSeq, ok)
	}
	sub.Close()
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart. The feed's floor is the recovered WAL position: the stored
	// state is durable but the event window is gone, so a pre-restart cursor
	// is compacted and must take the snapshot fallback rather than silently
	// missing k2 and k3.
	inst2, err := OpenInstance(3, memcache.New(memcache.Config{}), dir, nil, WithChangeFeed())
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	if _, err := inst2.ChangeFeed().Subscribe(cursor); !errors.Is(err, feed.ErrCompacted) {
		t.Fatalf("pre-restart cursor: err = %v, want ErrCompacted", err)
	}
	events, head, err := inst2.FeedSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if walSeq, _ := inst2.DurableSeq(); head != walSeq {
		t.Fatalf("snapshot head = %d, want recovered WAL seq %d", head, walSeq)
	}
	if len(events) != 4 {
		t.Fatalf("snapshot carries %d events, want the 4 recovered entries", len(events))
	}
	// Tailing from the snapshot head picks up exactly the post-restart
	// mutations, under continuing WAL sequence numbers.
	tail, err := inst2.ChangeFeed().Subscribe(head)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, err := inst2.Create(ctx, NewEntry("k4", 1, "t", Location{Site: 3})); err != nil {
		t.Fatal(err)
	}
	next := collectFeed(t, tail, 1)
	if next[0].Seq != head+1 || next[0].Name != "k4" {
		t.Fatalf("post-restart event = %+v, want k4 at seq %d", next[0], head+1)
	}
}

// TestSharedLogFeedsAreDense: instances that are members of one log each
// number their feed densely, whatever the other members log. After a restart
// each feed starts at the sequence number of its member's last record, which
// is at least the old feed head, so a cursor from before the restart takes
// the snapshot fallback instead of being misread.
func TestSharedLogFeedsAreDense(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() []*Instance {
		members, err := store.OpenShared(dir, []store.Backing{memcache.New(memcache.Config{}), memcache.New(memcache.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		return []*Instance{NewInstance(3, members[0], WithChangeFeed()), NewInstance(3, members[1], WithChangeFeed())}
	}
	insts := open()
	subs := make([]*feed.Subscription, len(insts))
	for i, inst := range insts {
		sub, err := inst.ChangeFeed().Subscribe(0)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	for i := 0; i < 6; i++ {
		if _, err := insts[i%2].Create(ctx, NewEntry(fmt.Sprintf("k%d", i), 1, "t", Location{Site: 3})); err != nil {
			t.Fatal(err)
		}
	}
	for m, sub := range subs {
		for i, ev := range collectFeed(t, sub, 3) {
			if want := uint64(i + 1); ev.Seq != want || ev.Name != fmt.Sprintf("k%d", 2*i+m) {
				t.Errorf("member %d event %d = %s at seq %d, want k%d at %d", m, i, ev.Name, ev.Seq, 2*i+m, want)
			}
		}
		if seq, _ := insts[m].DurableSeq(); insts[m].ChangeFeed().Seq() != 3 || seq != uint64(5+m) {
			t.Errorf("member %d: feed head %d, DurableSeq %d; want 3, %d", m, insts[m].ChangeFeed().Seq(), seq, 5+m)
		}
	}
	resumed, err := insts[0].ChangeFeed().Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectFeed(t, resumed, 2); got[0].Seq != 2 || got[1].Seq != 3 {
		t.Errorf("resuming member 0's feed from seq 1 gave seqs %d, %d; want 2, 3", got[0].Seq, got[1].Seq)
	}
	resumed.Close()
	for _, inst := range insts {
		if err := inst.Close(); err != nil {
			t.Fatal(err)
		}
	}

	insts = open()
	defer func() {
		for _, inst := range insts {
			inst.Close()
		}
	}()
	for m, inst := range insts {
		if head := inst.ChangeFeed().Seq(); head != uint64(5+m) {
			t.Errorf("member %d restarted its feed at %d, want its last record's seq %d", m, head, 5+m)
		}
		if _, err := inst.ChangeFeed().Subscribe(3); !errors.Is(err, feed.ErrCompacted) {
			t.Errorf("member %d: the pre-restart head 3 as a cursor: %v, want ErrCompacted", m, err)
		}
	}
	tail, err := insts[0].ChangeFeed().Subscribe(insts[0].ChangeFeed().Seq())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, err := insts[0].Create(ctx, NewEntry("k6", 1, "t", Location{Site: 3})); err != nil {
		t.Fatal(err)
	}
	if next := collectFeed(t, tail, 1); next[0].Seq != 6 {
		t.Errorf("first event after the restart has seq %d, want 6: the feed goes on densely from member 0's 5", next[0].Seq)
	}
}

// newFeedRouter is newTestRouter with change feeds on every shard.
func newFeedRouter(t *testing.T, n int, opts ...RouterOption) (*Router, map[cloud.SiteID]*Instance) {
	t.Helper()
	insts := make([]*Instance, n)
	apis := make([]API, n)
	for i := range insts {
		insts[i] = NewInstance(7, memcache.New(memcache.Config{}), WithChangeFeed())
		apis[i] = insts[i]
	}
	r, err := NewRouter(7, apis, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChangeFeed() == nil {
		t.Fatal("router over feeding shards has no relay feed")
	}
	byID := make(map[cloud.SiteID]*Instance, n)
	for i, inst := range insts {
		byID[cloud.SiteID(i)] = inst
	}
	return r, byID
}

func TestRouterWithoutFeedingShardsHasNoRelay(t *testing.T) {
	r, _ := newTestRouter(t, 2)
	defer r.Close()
	if r.ChangeFeed() != nil {
		t.Fatal("relay enabled although shards expose no feeds")
	}
}

// TestRouterFeedKillAndResume subscribes to a replicated tier's feed,
// kills the subscription mid-stream and resumes from its cursor: the two
// runs together must deliver every relay sequence exactly once, and every
// key's put must appear once per replica.
func TestRouterFeedKillAndResume(t *testing.T) {
	ctx := context.Background()
	const rep = 2
	r, _ := newFeedRouter(t, 4, WithRouterReplication(rep))
	defer r.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if _, err := r.Create(ctx, testEntry(fmt.Sprintf("kr/key/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	total := n * rep // every create lands on rep shards, each feeding the relay

	sub, err := r.ChangeFeed().Subscribe(0, feed.WithBuffer(total))
	if err != nil {
		t.Fatal(err)
	}
	first := collectFeed(t, sub, total/3)
	cursor := first[len(first)-1].Seq
	sub.Close() // the consumer dies mid-stream

	resumed, err := r.ChangeFeed().Subscribe(cursor, feed.WithBuffer(total))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	rest := collectFeed(t, resumed, total-len(first))

	seqs := make(map[uint64]int, total)
	puts := make(map[string]int, n)
	for _, ev := range append(first, rest...) {
		seqs[ev.Seq]++
		if ev.Op == feed.OpPut {
			puts[ev.Name]++
		}
	}
	for s := uint64(1); s <= uint64(total); s++ {
		if seqs[s] != 1 {
			t.Fatalf("relay seq %d delivered %d times across kill+resume", s, seqs[s])
		}
	}
	for name, c := range puts {
		if c != rep {
			t.Fatalf("key %s has %d put events, want one per replica (%d)", name, c, rep)
		}
	}
}

// newRelayTier builds a 4-shard, R=2 router over feeding instances, memory-only
// or the members of one shared log in a temporary directory, and returns the
// shards' own logs too.
func newRelayTier(t *testing.T, durable bool, feedOpts ...feed.LogOption) (*Router, []*feed.Log) {
	t.Helper()
	backings := make([]store.Backing, 4)
	for i := range backings {
		backings[i] = memcache.New(memcache.Config{})
	}
	apis := make([]API, len(backings))
	logs := make([]*feed.Log, len(backings))
	var members []*store.Durable
	if durable {
		var err error
		if members, err = store.OpenShared(t.TempDir(), backings, store.WithFsync(store.FsyncNever)); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range backings {
		var s Store = b
		if durable {
			s = members[i]
		}
		inst := NewInstance(7, s, WithChangeFeed(feedOpts...))
		t.Cleanup(func() { inst.Close() })
		apis[i], logs[i] = inst, inst.ChangeFeed()
	}
	r, err := NewRouter(7, apis, WithRouterReplication(2), WithRouterMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, logs
}

// TestRouterFeedRelayIsSynchronous: the shards' logs publish into the relay
// as they commit, so once an acknowledged write returns, the relay head
// already covers one event per replica, each labelled with its replica's
// shard, and FeedBarrier is that head. Nothing here sleeps or polls.
func TestRouterFeedRelayIsSynchronous(t *testing.T) {
	ctx := context.Background()
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "shared-log"}[durable], func(t *testing.T) {
			r, _ := newRelayTier(t, durable)
			relay := r.ChangeFeed()
			sub, err := relay.Subscribe(0, feed.WithBuffer(64))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			entries := func(names ...string) []Entry {
				out := make([]Entry, len(names))
				for i, name := range names {
					out[i] = testEntry(name)
				}
				return out
			}
			steps := []struct {
				op   string
				do   func() error
				want map[string]feed.Op // one event per replica of each name
			}{
				{"Create", func() error { _, err := r.Create(ctx, testEntry("a")); return err }, map[string]feed.Op{"a": feed.OpPut}},
				{"Put", func() error { _, err := r.Put(ctx, testEntry("a")); return err }, map[string]feed.Op{"a": feed.OpPut}},
				{"Delete", func() error { return r.Delete(ctx, "a") }, map[string]feed.Op{"a": feed.OpDelete}},
				{"PutMany", func() error { _, err := r.PutMany(ctx, entries("b", "c", "d")); return err },
					map[string]feed.Op{"b": feed.OpPut, "c": feed.OpPut, "d": feed.OpPut}},
				{"DeleteMany", func() error { _, err := r.DeleteMany(ctx, []string{"b", "c", "ghost"}); return err },
					map[string]feed.Op{"b": feed.OpDelete, "c": feed.OpDelete}},
				{"Merge", func() error { _, err := r.Merge(ctx, entries("e", "f")); return err },
					map[string]feed.Op{"e": feed.OpPut, "f": feed.OpPut}},
			}
			for _, step := range steps {
				before := relay.Seq()
				if err := step.do(); err != nil {
					t.Fatalf("%s: %v", step.op, err)
				}
				head := relay.Seq()
				if want := before + uint64(2*len(step.want)); head != want {
					t.Fatalf("%s returned with the relay head at %d, want %d: one event per replica", step.op, head, want)
				}
				if barrier, err := r.FeedBarrier(ctx); err != nil || barrier != head {
					t.Fatalf("%s: FeedBarrier = %d, %v; want the head %d at once", step.op, barrier, err, head)
				}
				origins := make(map[string][]string)
				for seq := before + 1; seq <= head; seq++ {
					var ev feed.Event
					select {
					case ev = <-sub.Events():
					default:
						t.Fatalf("%s: relay head %d but the subscriber holds nothing after seq %d", step.op, head, seq-1)
					}
					if ev.Seq != seq || ev.Op != step.want[ev.Name] {
						t.Fatalf("%s: event %+v, want seq %d and op %v", step.op, ev, seq, step.want[ev.Name])
					}
					origins[ev.Name] = append(origins[ev.Name], ev.Origin)
				}
				for name := range step.want {
					var want []string
					for _, id := range r.replicaIDs(name) {
						want = append(want, fmt.Sprintf("shard-%d", id))
					}
					slices.Sort(want)
					slices.Sort(origins[name])
					if !slices.Equal(origins[name], want) {
						t.Errorf("%s: %s relayed from %v, want its replicas %v", step.op, name, origins[name], want)
					}
				}
			}
		})
	}
}

// TestRouterFeedRelayUnderLaggingSubscriber: eight writers commit through the
// tier while a relay subscriber with a one-event buffer keeps being dropped
// with ErrLagged and resubscribing from its cursor. Nothing deadlocks, the
// subscriber sees every relay sequence exactly once, and each shard's events
// reach the relay in the shard's own order.
func TestRouterFeedRelayUnderLaggingSubscriber(t *testing.T) {
	ctx := context.Background()
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "shared-log"}[durable], func(t *testing.T) {
			const writers, perWriter = 8, 150
			r, logs := newRelayTier(t, durable, feed.WithCapacity(1<<13))
			shardSubs := make([]*feed.Subscription, len(logs))
			for i, log := range logs {
				sub, err := log.Subscribe(0, feed.WithBuffer(1<<13))
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				shardSubs[i] = sub
			}
			relay := r.ChangeFeed()

			var wg sync.WaitGroup
			var writes atomic.Int64
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range perWriter {
						name := fmt.Sprintf("w%d/k%d", w, i)
						if _, err := r.Create(ctx, testEntry(name)); err != nil {
							t.Error(err)
							return
						}
						writes.Add(1)
						if i%3 == 2 {
							if err := r.Delete(ctx, name); err != nil {
								t.Error(err)
								return
							}
							writes.Add(1)
						}
					}
				}()
			}
			writersDone := make(chan struct{})
			go func() { wg.Wait(); close(writersDone) }()

			var (
				got    []feed.Event
				cursor uint64
				lagged int
			)
			deadline := time.After(30 * time.Second)
			finished := false
			for !finished || cursor < relay.Seq() {
				sub, err := relay.Subscribe(cursor, feed.WithBuffer(1))
				if err != nil {
					t.Fatalf("resubscribing from %d: %v", cursor, err)
				}
			stream:
				for {
					select {
					case ev, ok := <-sub.Events():
						if !ok {
							if !errors.Is(sub.Err(), feed.ErrLagged) {
								t.Fatalf("subscription ended with %v, want ErrLagged", sub.Err())
							}
							lagged++
							break stream
						}
						if ev.Seq != cursor+1 {
							t.Fatalf("relay delivered seq %d after %d: a sequence lost or duplicated", ev.Seq, cursor)
						}
						cursor = ev.Seq
						got = append(got, ev)
					case <-writersDone:
						writersDone, finished = nil, true
					case <-deadline:
						t.Fatalf("stuck at relay seq %d of %d after %d lags", cursor, relay.Seq(), lagged)
					}
					if finished && cursor == relay.Seq() {
						sub.Close()
						break stream
					}
				}
			}
			if want := uint64(2 * writes.Load()); cursor != want {
				t.Fatalf("relay carried %d events for %d acknowledged R=2 writes, want %d", cursor, writes.Load(), want)
			}
			if lagged == 0 {
				t.Error("the one-event subscriber was never dropped: the stress did not exercise resubscription")
			}
			for i, sub := range shardSubs {
				origin := fmt.Sprintf("shard-%d", i)
				for _, ev := range got {
					if ev.Origin != origin {
						continue
					}
					var own feed.Event
					select {
					case own = <-sub.Events():
					default:
						t.Fatalf("%s relayed %v %s that the shard never published", origin, ev.Op, ev.Name)
					}
					if own.Name != ev.Name || own.Op != ev.Op || own.Commit != ev.Commit {
						t.Fatalf("%s relayed %v %s out of its order: the shard published %v %s next", origin, ev.Op, ev.Name, own.Op, own.Name)
					}
				}
				if n := len(sub.Events()); n != 0 {
					t.Errorf("%s published %d events the relay never carried", origin, n)
				}
			}
			t.Logf("%d writes, %d relay events, %d ErrLagged drops", writes.Load(), cursor, lagged)
		})
	}
}

// TestRouterFeedAfterRestartFallsBackToSnapshot: the relay of a tier whose
// shards recovered state from their log starts past the events it cannot
// replay, so a cursor of 0 is compacted and the snapshot carries the state.
func TestRouterFeedAfterRestartFallsBackToSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() (*Router, []*Instance) {
		backings := []store.Backing{memcache.New(memcache.Config{}), memcache.New(memcache.Config{})}
		members, err := store.OpenShared(dir, backings)
		if err != nil {
			t.Fatal(err)
		}
		insts := []*Instance{NewInstance(7, members[0], WithChangeFeed()), NewInstance(7, members[1], WithChangeFeed())}
		r, err := NewRouter(7, []API{insts[0], insts[1]}, WithRouterReplication(2), WithRouterMetrics(nil))
		if err != nil {
			t.Fatal(err)
		}
		return r, insts
	}
	r, insts := open()
	if head := r.ChangeFeed().Seq(); head != 0 {
		t.Fatalf("relay over empty shards starts at %d, want 0", head)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	for _, inst := range insts {
		if err := inst.Close(); err != nil {
			t.Fatal(err)
		}
	}

	r, insts = open()
	defer func() {
		r.Close()
		for _, inst := range insts {
			inst.Close()
		}
	}()
	if _, err := r.ChangeFeed().Subscribe(0); !errors.Is(err, feed.ErrCompacted) {
		t.Fatalf("cursor 0 on a recovered tier's relay: err = %v, want ErrCompacted", err)
	}
	events, head, err := r.FeedSnapshot(ctx)
	if err != nil || head != 1 || len(events) != 3 {
		t.Fatalf("FeedSnapshot = %d events at head %d, %v; want the 3 recovered names at 1", len(events), head, err)
	}
	tail, err := r.ChangeFeed().Subscribe(head)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, err := r.Create(ctx, testEntry("d")); err != nil {
		t.Fatal(err)
	}
	if got := collectFeed(t, tail, 2); got[0].Seq != 2 || got[1].Seq != 3 || got[0].Name != "d" {
		t.Fatalf("tail after the snapshot = %+v, want d's two replica events at 2 and 3", got)
	}
}

// TestRouterRelayIsTheTiersOnlyWindow: a router that relays its shards' feeds
// holds the tier's one retained window. After more events than FeedCapacity,
// no shard log resumes from before its head, while the relay, which keeps the
// capacity the shards were given, resumes from anywhere inside it.
// (TestBuildShardedFeedHonoursCapacityAndMetrics in internal/site holds the
// relay to a FeedCapacity set through site.Config.)
func TestRouterRelayIsTheTiersOnlyWindow(t *testing.T) {
	ctx := context.Background()
	const capacity = 16
	r, logs := newRelayTier(t, false, feed.WithCapacity(capacity))
	for i := range capacity { // 2 × capacity events at R = 2
		if _, err := r.Create(ctx, testEntry(fmt.Sprintf("win/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, log := range logs {
		head := log.Seq()
		if head == 0 {
			t.Fatalf("shard %d published nothing", i)
		}
		if _, err := log.Subscribe(head - 1); !errors.Is(err, feed.ErrCompacted) {
			t.Errorf("shard %d: subscribe one event before its head %d: err = %v, want ErrCompacted (the relay retains its events)", i, head, err)
		}
	}
	relay := r.ChangeFeed()
	head := relay.Seq()
	if head != 2*capacity {
		t.Fatalf("relay head %d, want %d", head, 2*capacity)
	}
	if _, err := relay.Subscribe(head - capacity - 1); !errors.Is(err, feed.ErrCompacted) {
		t.Errorf("relay: subscribe %d events back: err = %v, want ErrCompacted", capacity+1, err)
	}
	for from := head - capacity; from <= head; from++ {
		sub, err := relay.Subscribe(from)
		if err != nil {
			t.Fatalf("relay: subscribe from %d with head %d: %v", from, head, err)
		}
		if got := len(sub.Events()); got != int(head-from) {
			t.Errorf("relay: subscribe from %d replayed %d events, want %d", from, got, head-from)
		}
		sub.Close()
	}
}

// wrappedShard is a feeding shard the router cannot see as an *Instance, as
// a tracing decorator wraps one.
type wrappedShard struct{ *Instance }

// TestRouterFeedSnapshotCarriesEveryNameOnce: a tier's snapshot carries every
// live name exactly once, from the first reachable shard by id that holds it,
// with every shard up, with one marked down, with a name only on a shard that
// is not first in its replica set, as after a recovery and before its sweep
// (a rule that keeps a name only at its primary misses that one), and with
// shards behind a wrapper, which are read through their own FeedSnapshot.
func TestRouterFeedSnapshotCarriesEveryNameOnce(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		name    string
		down    cloud.SiteID // -1: none
		stray   bool
		wrapped bool
	}{
		{"all shards up", -1, false, false},
		{"one shard down", 1, false, false},
		{"name only on its second replica", -1, true, false},
		{"wrapped shards, name only on its second replica", -1, true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			shards := make(map[cloud.SiteID]*Instance)
			apis := make([]API, 4)
			for i := range apis {
				inst := NewInstance(7, memcache.New(memcache.Config{}), WithChangeFeed())
				shards[cloud.SiteID(i)], apis[i] = inst, inst
				if row.wrapped {
					apis[i] = wrappedShard{inst}
				}
			}
			r, err := NewRouter(7, apis, WithRouterReplication(2), WithRouterHealth(0, time.Hour), WithRouterMetrics(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := make(map[string]bool)
			for i := range 200 {
				name := fmt.Sprintf("snap/%d", i)
				if _, err := r.Create(ctx, testEntry(name)); err != nil {
					t.Fatal(err)
				}
				want[name] = true
			}
			if row.stray {
				name := "stray/0"
				second := r.placer.Homes(name, 2)[1]
				if _, err := shards[second].store.Put(name, AppendEntry(nil, testEntry(name)), 0); err != nil {
					t.Fatal(err)
				}
				want[name] = true
			}
			if row.down >= 0 {
				r.MarkShardDown(row.down)
			}
			events, head, err := r.FeedSnapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool, len(events))
			for _, ev := range events {
				if seen[ev.Name] {
					t.Fatalf("%s carried twice", ev.Name)
				}
				seen[ev.Name] = true
				first := cloud.SiteID(-1)
				for id := range cloud.SiteID(4) {
					if id != row.down && shards[id].store.Contains(ev.Name) {
						first = id
						break
					}
				}
				if ev.Op != feed.OpPut || ev.Seq != head || ev.Origin != fmt.Sprintf("shard-%d", first) {
					t.Errorf("%s: %v at seq %d from %q, want a put at the head %d from shard-%d", ev.Name, ev.Op, ev.Seq, ev.Origin, head, first)
				}
				if e, err := DecodeEntry(ev.Value); err != nil || e.Name != ev.Name {
					t.Errorf("%s: value decodes to %q, %v", ev.Name, e.Name, err)
				}
			}
			for name := range want {
				if !seen[name] {
					t.Errorf("%s missing from the snapshot", name)
				}
			}
			if len(seen) != len(want) {
				t.Errorf("snapshot carried %d names, want %d", len(seen), len(want))
			}
		})
	}
}
