package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
)

// newShard returns one in-process shard instance backed by an unbounded,
// zero-service-time cache.
func newShard(site cloud.SiteID) *Instance {
	return NewInstance(site, memcache.New(memcache.Config{}))
}

// newTestRouter builds a router over n fresh in-process shards, returning the
// shard instances keyed by the IDs the router assigned.
func newTestRouter(t *testing.T, n int, opts ...RouterOption) (*Router, map[cloud.SiteID]*Instance) {
	t.Helper()
	insts := make([]*Instance, n)
	apis := make([]API, n)
	for i := range insts {
		insts[i] = newShard(7)
		apis[i] = insts[i]
	}
	r, err := NewRouter(7, apis, opts...)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[cloud.SiteID]*Instance, n)
	for i, inst := range insts {
		byID[cloud.SiteID(i)] = inst
	}
	return r, byID
}

func testEntry(name string) Entry {
	return NewEntry(name, 1024, "router-test", Location{Site: 7, Node: 1})
}

// holds reports whether the shard stores name, the way a caller finds out: a
// Get that answers or fails ErrNotFound. Any other failure fails the test.
func holds(t *testing.T, shard API, name string) bool {
	t.Helper()
	_, err := shard.Get(context.Background(), name)
	if err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatalf("get %q: %v", name, err)
	}
	return err == nil
}

func TestRouterSingleKeyOpsLandOnHomeShard(t *testing.T) {
	ctx := context.Background()
	r, shards := newTestRouter(t, 4)

	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("router/key/%d", i)
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
		home := r.Home(name)
		for id, inst := range shards {
			has := holds(t, inst, name)
			if id == home && !has {
				t.Fatalf("entry %q missing from its home shard %d", name, id)
			}
			if id != home && has {
				t.Fatalf("entry %q leaked onto shard %d (home is %d)", name, id, home)
			}
		}
		got, err := r.Get(ctx, name)
		if err != nil || got.Name != name {
			t.Fatalf("get %q: %v (got %q)", name, err, got.Name)
		}
	}

	// Duplicate create must fail through the router exactly as on an instance.
	if _, err := r.Create(ctx, testEntry("router/key/0")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: want ErrExists, got %v", err)
	}

	// Update and delete route to the same shard.
	if _, err := r.AddLocation(ctx, "router/key/1", Location{Site: 2, Node: 9}); err != nil {
		t.Fatalf("addlocation: %v", err)
	}
	e, err := r.Get(ctx, "router/key/1")
	if err != nil || len(e.Locations) != 2 {
		t.Fatalf("get after addlocation: %v (locations %v)", err, e.Locations)
	}
	if err := r.Delete(ctx, "router/key/1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := r.Get(ctx, "router/key/1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: want ErrNotFound, got %v", err)
	}
}

// countingShard records how many times each bulk method is invoked, so the
// tests can prove the router issues at most one sub-batch per shard per call
// and never falls back to per-key operations.
type countingShard struct {
	API
	mu    sync.Mutex
	calls map[string]int
}

func newCountingShard(inner API) *countingShard {
	return &countingShard{API: inner, calls: make(map[string]int)}
}

func (c *countingShard) count(m string) {
	c.mu.Lock()
	c.calls[m]++
	c.mu.Unlock()
}

func (c *countingShard) Calls(m string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[m]
}

func (c *countingShard) Get(ctx context.Context, name string) (Entry, error) {
	c.count("Get")
	return c.API.Get(ctx, name)
}

func (c *countingShard) Put(ctx context.Context, e Entry) (Entry, error) {
	c.count("Put")
	return c.API.Put(ctx, e)
}

func (c *countingShard) Delete(ctx context.Context, name string) error {
	c.count("Delete")
	return c.API.Delete(ctx, name)
}

func (c *countingShard) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	c.count("GetMany")
	return c.API.GetMany(ctx, names)
}

func (c *countingShard) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	c.count("PutMany")
	return c.API.PutMany(ctx, entries)
}

func (c *countingShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	c.count("DeleteMany")
	return c.API.DeleteMany(ctx, names)
}

func (c *countingShard) Merge(ctx context.Context, entries []Entry) (int, error) {
	c.count("Merge")
	return c.API.Merge(ctx, entries)
}

// TestRouterBulkOpsIssueOneSubBatchPerShard is the acceptance test for the
// routing tier's batching contract: a bulk call over N shards costs at most
// one sub-batch per shard — never one call per key.
func TestRouterBulkOpsIssueOneSubBatchPerShard(t *testing.T) {
	ctx := context.Background()
	const nShards = 4
	counters := make([]*countingShard, nShards)
	apis := make([]API, nShards)
	for i := range counters {
		counters[i] = newCountingShard(newShard(7))
		apis[i] = counters[i]
	}
	r, err := NewRouter(7, apis)
	if err != nil {
		t.Fatal(err)
	}

	const n = 256
	entries := make([]Entry, n)
	names := make([]string, n)
	for i := range entries {
		names[i] = fmt.Sprintf("bulk/%d", i)
		entries[i] = testEntry(names[i])
	}

	stored, err := r.PutMany(ctx, entries)
	if err != nil {
		t.Fatalf("put-many: %v", err)
	}
	if len(stored) != n {
		t.Fatalf("put-many returned %d entries, want %d", len(stored), n)
	}
	for i, e := range stored {
		if e.Name != names[i] {
			t.Fatalf("put-many result out of order at %d: got %q want %q", i, e.Name, names[i])
		}
		if e.Version == 0 {
			t.Fatalf("put-many result %q missing stored version", e.Name)
		}
	}

	got, err := r.GetMany(ctx, names)
	if err != nil {
		t.Fatalf("get-many: %v", err)
	}
	if len(got) != n {
		t.Fatalf("get-many returned %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Name != names[i] {
			t.Fatalf("get-many result out of order at %d: got %q want %q", i, e.Name, names[i])
		}
	}

	if _, err := r.Merge(ctx, entries); err != nil {
		t.Fatalf("merge: %v", err)
	}
	deleted, err := r.DeleteMany(ctx, names)
	if err != nil {
		t.Fatalf("delete-many: %v", err)
	}
	if deleted != n {
		t.Fatalf("delete-many removed %d, want %d", deleted, n)
	}

	for i, c := range counters {
		for _, bulk := range []string{"PutMany", "GetMany", "Merge", "DeleteMany"} {
			if calls := c.Calls(bulk); calls > 1 {
				t.Errorf("shard %d: %s called %d times for one routed call, want at most 1", i, bulk, calls)
			}
		}
		for _, single := range []string{"Get", "Put", "Delete"} {
			if calls := c.Calls(single); calls != 0 {
				t.Errorf("shard %d: bulk ops fell back to %d per-key %s calls", i, calls, single)
			}
		}
	}
	// With 256 keys over 4 shards every shard must have seen its sub-batch.
	for i, c := range counters {
		if c.Calls("PutMany") == 0 {
			t.Errorf("shard %d received no sub-batch; placement is degenerate", i)
		}
	}
}

// failingShard answers every operation with a transport-style failure
// wrapping ErrUnavailable, like an rpc.Client whose server is gone.
type failingShard struct{ API }

var errShardDown = fmt.Errorf("shard down: %w", ErrUnavailable)

func (f failingShard) GetMany(context.Context, []string) ([]Entry, error) { return nil, errShardDown }
func (f failingShard) PutMany(context.Context, []Entry) ([]Entry, error)  { return nil, errShardDown }
func (f failingShard) DeleteMany(context.Context, []string) (int, error)  { return 0, errShardDown }
func (f failingShard) Merge(context.Context, []Entry) (int, error)        { return 0, errShardDown }
func (f failingShard) Entries(context.Context) ([]Entry, error)           { return nil, errShardDown }
func (f failingShard) Create(context.Context, Entry) (Entry, error)       { return Entry{}, errShardDown }
func (f failingShard) Put(context.Context, Entry) (Entry, error)          { return Entry{}, errShardDown }
func (f failingShard) Get(context.Context, string) (Entry, error)         { return Entry{}, errShardDown }

func TestRouterPartialFailureWrapsUnavailable(t *testing.T) {
	ctx := context.Background()
	healthy := []*Instance{newShard(7), newShard(7), newShard(7)}
	apis := []API{healthy[0], healthy[1], healthy[2], failingShard{API: newShard(7)}}
	r, err := NewRouter(7, apis)
	if err != nil {
		t.Fatal(err)
	}

	const n = 128
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = testEntry(fmt.Sprintf("partial/%d", i))
	}
	_, err = r.PutMany(ctx, entries)
	if err == nil {
		t.Fatal("put-many with a dead shard: want error, got nil")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put-many error should wrap ErrUnavailable, got %v", err)
	}

	// The healthy shards' sub-batches stayed applied: every entry not homed
	// on the dead shard is present.
	applied := 0
	for _, inst := range healthy {
		applied += inst.Len(ctx)
	}
	if applied == 0 {
		t.Fatal("partial failure should leave healthy shards' sub-batches applied")
	}

	// Single-key ops routed to the dead shard report the transport failure
	// unchanged.
	var deadName string
	for i := 0; i < 4*n; i++ {
		name := fmt.Sprintf("probe/%d", i)
		if r.Home(name) == 3 {
			deadName = name
			break
		}
	}
	if deadName == "" {
		t.Fatal("no probe name hashed to the dead shard")
	}
	// What remains of single-home placement is policy, pinned here: with one
	// home per key there is nowhere to re-route to, so however often the dead
	// shard fails, its own error comes back, its breaker never opens and no
	// recovery sweep is ever spawned.
	for i := 0; i < 10; i++ {
		if _, err := r.Get(ctx, deadName); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("get via dead shard: want ErrUnavailable, got %v", err)
		}
		if _, err := r.Put(ctx, testEntry(deadName)); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("put via dead shard: want ErrUnavailable, got %v", err)
		}
		if _, err := r.PutMany(ctx, entries); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("put-many with a dead shard: want ErrUnavailable, got %v", err)
		}
	}
	if down := r.DownShards(); len(down) != 0 {
		t.Fatalf("an R=1 router opened breakers for %v", down)
	}
	swept := make(chan struct{})
	go func() {
		r.Wait()
		close(swept)
	}()
	select {
	case <-swept:
	case <-time.After(time.Second):
		t.Fatal("an R=1 router has a recovery sweep or repair in flight after shard failures")
	}
}

// TestRouterSingleHomeFailedDeleteLeavesNoNote pins the deletion-note side of
// the R=1 policy: a Delete or DeleteMany whose only home failed told its
// caller so, and must leave nothing behind — no force-note, no pinned note
// table (a one-home tier runs no recovery sweep that would ever unpin it, so
// every later deletion would be retained forever), and the entries survive
// the next membership sweep instead of being purged as "deleted". The write
// concern is documented to have no effect without replication, so both run.
func TestRouterSingleHomeFailedDeleteLeavesNoNote(t *testing.T) {
	for _, concern := range []WriteConcern{WriteAll, WriteQuorum} {
		t.Run(concern.String(), func(t *testing.T) {
			ctx := context.Background()
			r, kills, _ := newReplicatedRouter(t, 2, 1, WithRouterWriteConcern(concern))
			const n = 300
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("kept/%d", i)
				if _, err := r.Put(ctx, testEntry(names[i])); err != nil {
					t.Fatal(err)
				}
			}

			for _, k := range kills {
				k.kill()
			}
			for _, name := range names[:n/2] {
				if err := r.Delete(ctx, name); !errors.Is(err, ErrUnavailable) {
					t.Fatalf("delete via dead shard: want ErrUnavailable, got %v", err)
				}
			}
			if _, err := r.DeleteMany(ctx, names[n/2:]); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("delete-many via dead shards: want ErrUnavailable, got %v", err)
			}
			for _, k := range kills {
				k.revive()
			}
			// Deletions that succeed afterwards are not retained either.
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("gone/%d", i)
				if _, err := r.Put(ctx, testEntry(name)); err != nil {
					t.Fatal(err)
				}
				if err := r.Delete(ctx, name); err != nil {
					t.Fatal(err)
				}
			}
			r.Wait()
			r.delMu.Lock()
			notes := len(r.deletedDuringSweep)
			r.delMu.Unlock()
			if notes != 0 || r.staleNotes.Load() {
				t.Fatalf("failed R=1 deletes left %d notes (pinned: %v), want none", notes, r.staleNotes.Load())
			}

			r.AddShard(newShard(7))
			r.Wait()
			if got := r.Len(ctx); got != n {
				t.Fatalf("tier holds %d entries after the sweep, want %d: a failed delete purged its entry", got, n)
			}
			for _, name := range names {
				if _, err := r.Get(ctx, name); err != nil {
					t.Fatalf("entry whose delete failed is gone after the sweep: %v", err)
				}
			}
		})
	}
}

func TestRouterMembershipChangeMigratesEntries(t *testing.T) {
	ctx := context.Background()
	r, shards := newTestRouter(t, 2)

	const n = 500
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("member/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	// A third shard joins; the background sweep moves the keys the ring now
	// assigns to it.
	third := newShard(7)
	id := r.AddShard(third)
	r.Wait()
	shards[id] = third

	if got := r.ShardCount(); got != 3 {
		t.Fatalf("shard count after join: got %d, want 3", got)
	}
	if r.Len(ctx) != n {
		t.Fatalf("tier size after join: got %d, want %d", r.Len(ctx), n)
	}
	misplaced := 0
	for _, name := range names {
		home := r.Home(name)
		for sid, inst := range shards {
			if holds(t, inst, name) != (sid == home) {
				misplaced++
				break
			}
		}
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after join: %v", name, err)
		}
	}
	if misplaced != 0 {
		t.Fatalf("%d entries not at their home shard after the join sweep", misplaced)
	}
	// Consistent hashing: the join moved roughly 1/3 of the keys, not all.
	if moved := third.Len(ctx); moved == 0 || moved > (2*n)/3 {
		t.Fatalf("join moved %d of %d keys; consistent hashing should move about 1/3", moved, n)
	}

	// The new shard leaves again; its entries drain back and it is detached.
	if err := r.RemoveShard(id); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if got := r.ShardCount(); got != 2 {
		t.Fatalf("shard count after leave: got %d, want 2", got)
	}
	if third.Len(ctx) != 0 {
		t.Fatalf("removed shard still holds %d entries after drain", third.Len(ctx))
	}
	if r.Len(ctx) != n {
		t.Fatalf("tier size after leave: got %d, want %d", r.Len(ctx), n)
	}
	for _, name := range names {
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after leave: %v", name, err)
		}
	}

	// Removing the last shards must be refused.
	if err := r.RemoveShard(r.Shards()[0]); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if err := r.RemoveShard(r.Shards()[0]); err == nil {
		t.Fatal("removing the last shard should fail")
	}
}

// drainedShard is a shard as a router sees it once it has gone away behind a
// remote client: Len answers 0 whatever it holds. Its first listing, the
// sweep's, comes from the wrapped instance; every later one is after's.
type drainedShard struct {
	API
	listings atomic.Int32
	after    func() ([]Entry, error)
}

func (d *drainedShard) Len(context.Context) int { return 0 }

func (d *drainedShard) Entries(ctx context.Context) ([]Entry, error) {
	if d.listings.Add(1) == 1 {
		return d.API.Entries(ctx)
	}
	return d.after()
}

// TestRouterDetachesOnlyAShardListedEmpty removes a shard from placement and
// checks what the sweep does with it afterwards: a drained shard is detached
// on the evidence of an empty listing, never of a Len of zero.
func TestRouterDetachesOnlyAShardListedEmpty(t *testing.T) {
	cases := []struct {
		name     string
		after    func() ([]Entry, error)
		attached bool
	}{
		{"unreachable after its sweep", func() ([]Entry, error) { return nil, errShardDown }, true},
		{"written to after its sweep", func() ([]Entry, error) { return []Entry{testEntry("late")}, nil }, true},
		{"empty", func() ([]Entry, error) { return nil, nil }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // a failed background sweep retries with backoff
			ctx := context.Background()
			leaving := &drainedShard{API: newShard(7), after: tc.after}
			r, err := NewRouter(7, []API{newShard(7), leaving}, WithRouterMetrics(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < 32; i++ {
				if _, err := r.Create(ctx, testEntry(fmt.Sprintf("drain/%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.RemoveShard(1); err != nil {
				t.Fatal(err)
			}
			r.Wait()
			if _, attached := r.snapshotShards()[1]; attached != tc.attached {
				t.Fatalf("shard attached after its drain: got %v, want %v", attached, tc.attached)
			}
		})
	}
}

// mergeGate wraps a shard and blocks the first Merge call until released,
// so tests can freeze a migration sweep at the moment it is about to apply
// a moved batch.
type mergeGate struct {
	API
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newMergeGate(inner API) *mergeGate {
	return &mergeGate{API: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *mergeGate) Merge(ctx context.Context, entries []Entry) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.API.Merge(ctx, entries)
}

// entriesGate wraps a shard and blocks the first Entries call until
// released, freezing a sweep before it has read the source shard.
type entriesGate struct {
	API
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newEntriesGate(inner API) *entriesGate {
	return &entriesGate{API: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *entriesGate) Entries(ctx context.Context) ([]Entry, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.API.Entries(ctx)
}

// TestRouterDeleteDuringSweepNotResurrected freezes a migration sweep right
// before it merges a moved batch into the new shard, deletes one of the
// moved entries through the router, and checks the sweep's post-merge check
// undoes the resurrection: the deletion must stick everywhere.
func TestRouterDeleteDuringSweepNotResurrected(t *testing.T) {
	ctx := context.Background()
	first := newShard(7)
	r, err := NewRouter(7, []API{first})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("resurrect/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	second := newShard(7)
	gate := newMergeGate(second)
	id := r.AddShard(gate)
	<-gate.entered // the sweep has read shard 0 and is about to merge into the joiner

	// Pick an entry that is moving to the new shard and delete it while the
	// stale copy is in the sweep's hands.
	var victim string
	for _, name := range names {
		if r.Home(name) == id {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no entry moved to the joining shard")
	}
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatalf("delete during sweep: %v", err)
	}

	close(gate.release)
	r.Wait()

	if _, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry came back after the sweep: %v", err)
	}
	if holds(t, second, victim) || holds(t, first, victim) {
		t.Fatal("a shard still holds the entry deleted during the sweep")
	}
	// Everything else migrated and survived.
	if got := r.Len(ctx); got != n-1 {
		t.Fatalf("tier holds %d entries after the sweep, want %d", got, n-1)
	}
}

// TestRouterDeleteManyDuringSweepNotResurrected is the bulk twin of the test
// above: the sweep is frozen before its merge into the joining shard, an
// entry whose replica set now includes the joiner is removed with DeleteMany,
// and the deletion must stick on every shard — at R=1 exactly as at R=2,
// because both run the one bulk-delete path that records deletion notes.
func TestRouterDeleteManyDuringSweepNotResurrected(t *testing.T) {
	for _, tc := range []struct{ rep, shards int }{{rep: 1, shards: 1}, {rep: 2, shards: 2}} {
		t.Run(fmt.Sprintf("R=%d", tc.rep), func(t *testing.T) {
			ctx := context.Background()
			r, shards := newTestRouter(t, tc.shards, WithRouterReplication(tc.rep))
			const n = 200
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("resurrect-many/%d", i)
				if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
					t.Fatal(err)
				}
			}

			joiner := newShard(7)
			gate := newMergeGate(joiner)
			id := r.AddShard(gate)
			shards[id] = joiner
			<-gate.entered // the sweep is about to merge a moved batch into the joiner

			var victim string
			for _, name := range names {
				refs, err := r.replicaSet(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, ref := range refs {
					if ref.id == id {
						victim = name
					}
				}
				if victim != "" {
					break
				}
			}
			if victim == "" {
				t.Fatal("no entry moved to the joining shard")
			}
			if _, err := r.DeleteMany(ctx, []string{victim}); err != nil {
				t.Fatalf("delete-many during sweep: %v", err)
			}

			close(gate.release)
			r.Wait()

			if _, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted entry came back after the sweep: %v", err)
			}
			for sid, inst := range shards {
				if holds(t, inst, victim) {
					t.Fatalf("shard %d still holds the entry deleted during the sweep", sid)
				}
			}
			if got := r.Len(ctx); got != n-1 {
				t.Fatalf("tier holds %d entries after the sweep, want %d", got, n-1)
			}
		})
	}
}

// deleteGate wraps a shard and blocks the Delete of one name until released,
// so tests can hold a routed delete in flight across a membership change.
type deleteGate struct {
	API
	name    string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *deleteGate) Delete(ctx context.Context, name string) error {
	if name == g.name {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return g.API.Delete(ctx, name)
}

// TestRouterDeleteRacingSweepStartLeavesNoCopy holds a Delete in flight at
// one replica — issued while no sweep was active, so it recorded no deletion
// note — lets a shard join and its whole migration sweep run, and only then
// lets the delete finish. The sweep copied the still-present entry to its
// new homes; the delete's re-check of the sweep generation must purge those
// copies, at every replication factor.
func TestRouterDeleteRacingSweepStartLeavesNoCopy(t *testing.T) {
	for _, tc := range []struct{ rep, shards int }{{rep: 1, shards: 1}, {rep: 2, shards: 2}} {
		t.Run(fmt.Sprintf("R=%d", tc.rep), func(t *testing.T) {
			ctx := context.Background()
			joinerID := cloud.SiteID(tc.shards)

			// Placement derives from the shard IDs alone, so a throwaway
			// router over the grown tier tells which name the joiner will
			// own. The victim's new homes exclude shard 0, where the delete
			// is held: at R=2 the sweep then re-merges the entry from shard 0
			// onto the other old replica, which had already deleted it.
			grown, _ := newTestRouter(t, tc.shards+1, WithRouterReplication(tc.rep))
			var victim string
			for i := 0; victim == ""; i++ {
				name := fmt.Sprintf("race/%d", i)
				refs, err := grown.replicaSet(name)
				if err != nil {
					t.Fatal(err)
				}
				onJoiner, onGated := false, false
				for _, ref := range refs {
					onJoiner = onJoiner || ref.id == joinerID
					onGated = onGated || ref.id == 0
				}
				if onJoiner && !onGated {
					victim = name
				}
			}

			insts := map[cloud.SiteID]*Instance{}
			apis := make([]API, tc.shards)
			gate := &deleteGate{name: victim, entered: make(chan struct{}), release: make(chan struct{})}
			for i := range apis {
				inst := newShard(7)
				insts[cloud.SiteID(i)] = inst
				apis[i] = inst
			}
			gate.API = apis[0]
			apis[0] = gate
			r, err := NewRouter(7, apis, WithRouterReplication(tc.rep))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Create(ctx, testEntry(victim)); err != nil {
				t.Fatal(err)
			}

			deleted := make(chan error, 1)
			go func() { deleted <- r.Delete(ctx, victim) }()
			<-gate.entered // in flight at shard 0, no sweep active, no note recorded

			joiner := newShard(7)
			if id := r.AddShard(joiner); id != joinerID {
				t.Fatalf("joiner got shard ID %d, want %d", id, joinerID)
			}
			insts[joinerID] = joiner
			r.Wait() // the sweep has copied the not-yet-deleted entry to its new homes

			close(gate.release)
			if err := <-deleted; err != nil {
				t.Fatalf("delete racing the sweep start: %v", err)
			}
			for id, inst := range insts {
				if holds(t, inst, victim) {
					t.Fatalf("shard %d holds a copy of the entry after its delete was acknowledged", id)
				}
			}
		})
	}
}

// TestRouterRecreateAfterDeleteDuringSweepSurvives deletes a mid-migration
// entry and immediately re-creates it while the sweep is frozen before its
// merge: the fresh entry must survive the sweep's anti-resurrection check —
// an acknowledged Create is never silently undone.
func TestRouterRecreateAfterDeleteDuringSweepSurvives(t *testing.T) {
	ctx := context.Background()
	first := newShard(7)
	r, err := NewRouter(7, []API{first})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("recreate/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	gate := newMergeGate(newShard(7))
	id := r.AddShard(gate)
	<-gate.entered

	var victim string
	for _, name := range names {
		if r.Home(name) == id {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no entry moved to the joining shard")
	}
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatalf("delete during sweep: %v", err)
	}
	if _, err := r.Create(ctx, testEntry(victim)); err != nil {
		t.Fatalf("re-create during sweep: %v", err)
	}

	close(gate.release)
	r.Wait()

	if _, err := r.Get(ctx, victim); err != nil {
		t.Fatalf("re-created entry was lost after the sweep: %v", err)
	}
	if got := r.Len(ctx); got != n {
		t.Fatalf("tier holds %d entries after the sweep, want %d", got, n)
	}
}

// TestRouterGetFallsBackDuringSweep freezes a sweep before it has read the
// old shard and checks that reads of not-yet-migrated entries succeed via
// the fallback instead of reporting ErrNotFound from the new home.
func TestRouterGetFallsBackDuringSweep(t *testing.T) {
	ctx := context.Background()
	gate := newEntriesGate(newShard(7))
	r, err := NewRouter(7, []API{gate})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("fallback/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	id := r.AddShard(newShard(7))
	<-gate.entered // the sweep is frozen; nothing has migrated yet

	var moved string
	for _, name := range names {
		if r.Home(name) == id {
			moved = name
			break
		}
	}
	if moved == "" {
		t.Fatal("no entry is due to move to the joining shard")
	}
	if _, err := r.Get(ctx, moved); err != nil {
		t.Fatalf("get of a not-yet-migrated entry during the sweep: %v", err)
	}
	// Bulk reads fall back the same way: no entry may be silently dropped.
	got, err := r.GetMany(ctx, names)
	if err != nil {
		t.Fatalf("get-many during the sweep: %v", err)
	}
	if len(got) != n {
		t.Fatalf("get-many during the sweep returned %d of %d entries", len(got), n)
	}

	close(gate.release)
	r.Wait()
	if _, err := r.Get(ctx, moved); err != nil {
		t.Fatalf("get after the sweep: %v", err)
	}
}

func TestRouterBestEffortOpsFeedSuppressedCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	r, _ := newTestRouter(t, 2, WithRouterMetrics(reg))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if names := r.Names(cancelled); names != nil {
		t.Fatalf("names on cancelled context: got %v, want nil", names)
	}
	if got := reg.Counter("router_suppressed_errors_total").Value(); got == 0 {
		t.Fatal("suppressed-error counter not incremented by best-effort Names on a cancelled context")
	}
}

func TestRouterEntriesAndNamesUnionShards(t *testing.T) {
	ctx := context.Background()
	r, _ := newTestRouter(t, 3)
	const n = 100
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("union/%d", i)
		want[name] = true
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := r.Entries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("entries: got %d, want %d", len(entries), n)
	}
	names := r.Names(ctx)
	if len(names) != n {
		t.Fatalf("names: got %d, want %d", len(names), n)
	}
	for _, name := range names {
		if !want[name] {
			t.Fatalf("unexpected name %q", name)
		}
	}
	if r.Len(ctx) != n {
		t.Fatalf("len: got %d, want %d", r.Len(ctx), n)
	}
}
