package registry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
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

// TestRouterFeedAcrossRebalance pins the migration rule: a watch on the
// tier's combined feed keeps seeing a key across AddShard — the sweep
// surfaces as a put event originated at the key's new home shard plus a
// delete event originated at its old home — instead of the subscription
// being dropped or the key silently vanishing.
func TestRouterFeedAcrossRebalance(t *testing.T) {
	ctx := context.Background()
	r, _ := newFeedRouter(t, 2)
	defer r.Close()
	sub, err := r.ChangeFeed().Subscribe(0, feed.WithBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const n = 32
	oldHome := make(map[string]cloud.SiteID, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("feed/key/%d", i)
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
		oldHome[name] = r.Home(name)
	}
	collectFeed(t, sub, n) // the creates themselves

	id := r.AddShard(NewInstance(7, memcache.New(memcache.Config{}), WithChangeFeed()))
	r.Wait()

	var moved []string
	for name, old := range oldHome {
		if r.Home(name) == id && old != id {
			moved = append(moved, name)
		}
	}
	if len(moved) == 0 {
		t.Fatal("consistent-hash ring moved no keys to the new shard")
	}
	// The sweep's migration events: put at the new home, delete at the old.
	type pair struct{ put, del bool }
	seen := make(map[string]*pair, len(moved))
	for _, name := range moved {
		seen[name] = &pair{}
	}
	newLabel := fmt.Sprintf("shard-%d", id)
	deadline := time.After(10 * time.Second)
	for done := 0; done < len(moved); {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("watch dropped during rebalance (%v)", sub.Err())
			}
			p := seen[ev.Name]
			if p == nil {
				continue
			}
			switch {
			case ev.Op == feed.OpPut && ev.Origin == newLabel && !p.put:
				p.put = true
			case ev.Op == feed.OpDelete && ev.Origin == fmt.Sprintf("shard-%d", oldHome[ev.Name]) && !p.del:
				p.del = true
			}
			if p.put && p.del {
				done++
			}
		case <-deadline:
			t.Fatalf("migration events incomplete: %+v", seen)
		}
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
