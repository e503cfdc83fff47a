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
	"geomds/internal/memcache"
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
		home := r.placer.Home(name)
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

// invalidBatch returns eight valid entries that span more than one of r's
// shards, with an entry that has no name among them.
func invalidBatch(t *testing.T, r *Router) []Entry {
	t.Helper()
	var entries []Entry
	homes := map[cloud.SiteID]bool{}
	for i := range 8 {
		e := testEntry(fmt.Sprintf("batch/%d", i))
		entries = append(entries, e)
		homes[r.replicaSet(e.Name)[0].id] = true
	}
	if len(homes) < 2 {
		t.Fatalf("the batch's entries all live on one shard")
	}
	return slices.Insert(entries, 4, Entry{Size: 1})
}

// A bulk write with an invalid entry stores nothing on any shard, at any
// replication, as an Instance stores nothing: the batch is refused before
// any shard sees it, and Merge reports that none of it was applied.
func TestRouterRefusesInvalidBatchWhole(t *testing.T) {
	ctx := context.Background()
	for _, rep := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", rep), func(t *testing.T) {
			r, shards := newTestRouter(t, 4, WithRouterReplication(rep))
			entries := invalidBatch(t, r)
			if out, err := r.PutMany(ctx, entries); !errors.Is(err, ErrInvalidEntry) || out != nil {
				t.Errorf("PutMany = %d entries, %v; want none and ErrInvalidEntry", len(out), err)
			}
			if n, err := r.Merge(ctx, entries); !errors.Is(err, ErrInvalidEntry) || n != 0 {
				t.Errorf("Merge = %d, %v; want 0 and ErrInvalidEntry", n, err)
			}
			for id, shard := range shards {
				if n := shard.Len(ctx); n != 0 {
					t.Errorf("shard %d stores %d entries of a refused batch", id, n)
				}
			}
		})
	}
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
		if r.placer.Home(name) == 3 {
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
// a re-sync sweep instead of being purged as "deleted". The subtest names
// the write concern, which has no effect without replication.
func TestRouterSingleHomeFailedDeleteLeavesNoNote(t *testing.T) {
	t.Run(WriteAll.String(), func(t *testing.T) {
		ctx := context.Background()
		// An hour-long probe interval leaves the breaker to the test.
		r, kills, _ := newReplicatedRouter(t, 2, 1, WithRouterWriteConcern(WriteAll), WithRouterHealth(0, time.Hour))
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

		r.MarkShardDown(0) // a shard cycles down and up: the recovery runs a sweep
		r.MarkShardUp(0)
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

// deadlineOnce wraps a shard whose next Delete, once armed, gives up with a
// wrapped context.DeadlineExceeded before applying it: the shard keeps its
// copy, and the breaker does not count the failure.
type deadlineOnce struct {
	API
	armed atomic.Bool
}

func (d *deadlineOnce) Delete(ctx context.Context, name string) error {
	if d.armed.CompareAndSwap(true, false) {
		return fmt.Errorf("shard: %w", context.DeadlineExceeded)
	}
	return d.API.Delete(ctx, name)
}

// TestRouterFailedReplicaDeletePinsOnlyItsNote is the replicated analogue of
// TestRouterSingleHomeFailedDeleteLeavesNoNote (AUDIT G22). At R = 2 one
// replica fails one delete without its breaker ever opening, as a deadline
// error leaves it: that deletion's note is pinned, since the replica keeps a
// stale copy, but the thousands of deletions that follow are not noted. The
// next recovery sweep purges the stale copy and leaves no note behind.
func TestRouterFailedReplicaDeletePinsOnlyItsNote(t *testing.T) {
	ctx := context.Background()
	insts := make([]*Instance, 4)
	shards := make([]API, len(insts))
	for i := range insts {
		insts[i] = newShard(7)
		shards[i] = insts[i]
	}
	const victim = cloud.SiteID(1)
	late := &deadlineOnce{API: insts[victim]}
	shards[victim] = late
	// A threshold nothing reaches and an hour-long probe leave the breakers
	// to the test.
	r, err := NewRouter(7, shards, WithRouterReplication(2), WithRouterHealth(10000, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	failed := nameReplicatedOn(t, r, victim, "pin/failed")
	notes := func() (n int, failedPinned bool) {
		r.delMu.Lock()
		defer r.delMu.Unlock()
		return len(r.deletedDuringSweep), r.deletedDuringSweep[failed]
	}

	if _, err := r.Create(ctx, testEntry(failed)); err != nil {
		t.Fatal(err)
	}
	late.armed.Store(true)
	if err := r.Delete(ctx, failed); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delete with one late replica = %v, want context.DeadlineExceeded", err)
	}
	const more = 1999
	for i := 0; i < more; i++ {
		name := fmt.Sprintf("pin/gone/%d", i)
		if _, err := r.Put(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
		if err := r.Delete(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if n, pinned := notes(); n != 1 || !pinned || r.staleNotes.Load() {
		t.Fatalf("after one failed and %d clean deletes: %d notes (the failed one pinned: %v, every deletion noted: %v), want the failed one's alone, pinned", more, n, pinned, r.staleNotes.Load())
	}

	r.MarkShardDown(victim) // the shard cycles down and up: the recovery runs a sweep
	r.MarkShardUp(victim)
	r.Wait()
	if n, _ := notes(); n != 0 {
		t.Fatalf("%d notes left after a clean sweep, want 0", n)
	}
	if _, err := r.Get(ctx, failed); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the failed delete's name after the sweep: %v, want ErrNotFound", err)
	}
	for id, inst := range insts {
		if holds(t, inst, failed) {
			t.Errorf("shard %d still holds the deleted entry after the sweep", id)
		}
	}
}

// mergeGate wraps a shard and blocks the first Merge call until released,
// so tests can freeze a re-sync sweep at the moment it is about to apply a
// batch.
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
// released, freezing a sweep before it has read the shard.
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

// newRecoveryTier builds the tier the sweep-race tests run on: three memory
// shards at R = 2, shard 0 seen through wrap. The probe interval is an hour,
// so the breakers are the test's: only MarkShardUp closes one and starts the
// re-sync sweep, which visits shards 0, 1, 2 in that order. It returns the
// router and the bare shard instances, indexed by shard ID.
func newRecoveryTier(t *testing.T, wrap func(*Instance) API) (*Router, []*Instance) {
	t.Helper()
	insts := []*Instance{newShard(7), newShard(7), newShard(7)}
	apis := []API{wrap(insts[0]), insts[1], insts[2]}
	r, err := NewRouter(7, apis, WithRouterReplication(2), WithRouterHealth(0, time.Hour), WithRouterMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, insts
}

// writeDuringOutage marks shard 0 down and creates n names while it is away.
// Every one lands on shards 1 and 2, so each name homed on shard 0 is missing
// there when it returns, and shard 1's pass of the recovery sweep is the one
// that merges it back.
func writeDuringOutage(t *testing.T, r *Router, prefix string, n int) []string {
	t.Helper()
	r.MarkShardDown(0)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s/%d", prefix, i)
		if _, err := r.Create(context.Background(), testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// homedOn returns the first name whose ring placement puts a replica on the
// shard.
func homedOn(t *testing.T, r *Router, names []string, shard cloud.SiteID) string {
	t.Helper()
	for _, name := range names {
		if slices.Contains(r.placer.Homes(name, r.rep), shard) {
			return name
		}
	}
	t.Fatalf("no name is homed on shard %d", shard)
	return ""
}

// TestRouterDeleteDuringSweepNotResurrected freezes a recovery's re-sync
// sweep right before it merges a batch into the returning shard, deletes one
// of the batch's entries through the router, and checks the sweep's
// post-merge check undoes the resurrection: the deletion must stick
// everywhere. The frozen merge comes from shard 1's pass into shard 0, whose
// own pass is over, so nothing later in the sweep would catch the copy.
func TestRouterDeleteDuringSweepNotResurrected(t *testing.T) {
	ctx := context.Background()
	var gate *mergeGate
	r, insts := newRecoveryTier(t, func(inst *Instance) API { gate = newMergeGate(inst); return gate })
	const n = 200
	names := writeDuringOutage(t, r, "resurrect", n)
	victim := homedOn(t, r, names, 0)

	r.MarkShardUp(0)
	<-gate.entered // the sweep holds the victim's copy and is about to merge it into shard 0
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatalf("delete during sweep: %v", err)
	}
	close(gate.release)
	r.Wait()

	if _, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry came back after the sweep: %v", err)
	}
	for id, inst := range insts {
		if holds(t, inst, victim) {
			t.Fatalf("shard %d still holds the entry deleted during the sweep", id)
		}
	}
	// Everything else was repaired and survived.
	if got := r.Len(ctx); got != n-1 {
		t.Fatalf("tier holds %d entries after the sweep, want %d", got, n-1)
	}
}

// TestRouterDeleteManyDuringSweepNotResurrected is the bulk twin of the test
// above: the sweep is frozen before its merge into the returning shard, an
// entry homed there is removed with DeleteMany, and the deletion must stick
// on every shard. (R = 1 has no row: with one home per key and a fixed shard
// set, no sweep moves an entry.)
func TestRouterDeleteManyDuringSweepNotResurrected(t *testing.T) {
	t.Run("R=2", func(t *testing.T) {
		ctx := context.Background()
		var gate *mergeGate
		r, insts := newRecoveryTier(t, func(inst *Instance) API { gate = newMergeGate(inst); return gate })
		const n = 200
		names := writeDuringOutage(t, r, "resurrect-many", n)
		victim := homedOn(t, r, names, 0)

		r.MarkShardUp(0)
		<-gate.entered // the sweep is about to merge the victim's copy into shard 0
		if _, err := r.DeleteMany(ctx, []string{victim}); err != nil {
			t.Fatalf("delete-many during sweep: %v", err)
		}
		close(gate.release)
		r.Wait()

		if _, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted entry came back after the sweep: %v", err)
		}
		for id, inst := range insts {
			if holds(t, inst, victim) {
				t.Fatalf("shard %d still holds the entry deleted during the sweep", id)
			}
		}
		if got := r.Len(ctx); got != n-1 {
			t.Fatalf("tier holds %d entries after the sweep, want %d", got, n-1)
		}
	})
}

// deleteGate wraps a shard and blocks the Delete of one name until released,
// so tests can hold a routed delete in flight across a recovery.
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
// one replica — issued while no sweep was active and no shard was down, so
// it recorded no deletion note — while the third shard goes down, comes back
// and its whole re-sync sweep runs, and only then lets the delete finish.
// The sweep copied the still-present entry back onto the replica that had
// already deleted it; the delete's re-check of the sweep generation must
// purge that copy.
func TestRouterDeleteRacingSweepStartLeavesNoCopy(t *testing.T) {
	t.Run("R=2", func(t *testing.T) {
		ctx := context.Background()
		gate := &deleteGate{entered: make(chan struct{}), release: make(chan struct{})}
		r, insts := newRecoveryTier(t, func(inst *Instance) API { gate.API = inst; return gate })
		var homes []cloud.SiteID
		for i := 0; gate.name == ""; i++ {
			name := fmt.Sprintf("race/%d", i)
			if homes = r.placer.Homes(name, r.rep); slices.Contains(homes, 0) {
				gate.name = name
			}
		}
		var other, third cloud.SiteID // the victim's replica besides shard 0, and the shard it skips
		for _, id := range []cloud.SiteID{1, 2} {
			if slices.Contains(homes, id) {
				other = id
			} else {
				third = id
			}
		}
		if _, err := r.Create(ctx, testEntry(gate.name)); err != nil {
			t.Fatal(err)
		}

		deleted := make(chan error, 1)
		go func() { deleted <- r.Delete(ctx, gate.name) }()
		<-gate.entered // in flight at shard 0, no sweep active, no note recorded
		waitFor(t, "the other replica to apply the delete", func() bool { return !holds(t, insts[other], gate.name) })

		r.MarkShardDown(third)
		r.MarkShardUp(third)
		r.Wait() // the sweep has merged shard 0's not-yet-deleted copy into the other replica

		close(gate.release)
		if err := <-deleted; err != nil {
			t.Fatalf("delete racing the sweep start: %v", err)
		}
		for id, inst := range insts {
			if holds(t, inst, gate.name) {
				t.Fatalf("shard %d holds a copy of the entry after its delete was acknowledged", id)
			}
		}
	})
}

// TestRouterRecreateAfterDeleteDuringSweepSurvives deletes an entry the
// frozen sweep is about to merge into the returning shard and immediately
// re-creates it: the fresh entry must survive the sweep's anti-resurrection
// checks on both its replicas — an acknowledged Create is never silently
// undone.
func TestRouterRecreateAfterDeleteDuringSweepSurvives(t *testing.T) {
	ctx := context.Background()
	var gate *mergeGate
	r, insts := newRecoveryTier(t, func(inst *Instance) API { gate = newMergeGate(inst); return gate })
	const n = 200
	names := writeDuringOutage(t, r, "recreate", n)
	victim := homedOn(t, r, names, 0)

	r.MarkShardUp(0)
	<-gate.entered
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
	for _, id := range r.placer.Homes(victim, r.rep) {
		if !holds(t, insts[id], victim) {
			t.Fatalf("re-created entry is missing from its replica on shard %d after the sweep", id)
		}
	}
	if got := r.Len(ctx); got != n {
		t.Fatalf("tier holds %d entries after the sweep, want %d", got, n)
	}
}

// TestRouterBulkRewriteAfterDeleteSurvivesSweep deletes a name while a shard
// outside its homes is down (so the deletion is noted), rewrites it, and
// lets the recovery sweep run. Every rewrite is acknowledged, so the name
// must survive on its homes: a bulk rewrite clears the deletion note as a
// single Put does, or the sweep's cleanup drops the entry as deleted.
func TestRouterBulkRewriteAfterDeleteSurvivesSweep(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		name    string
		rewrite func(*Router, Entry) error
	}{
		{"put", func(r *Router, e Entry) error { _, err := r.Put(ctx, e); return err }},
		{"putmany", func(r *Router, e Entry) error { _, err := r.PutMany(ctx, []Entry{e}); return err }},
		{"merge", func(r *Router, e Entry) error { _, err := r.Merge(ctx, []Entry{e}); return err }},
	} {
		t.Run(row.name, func(t *testing.T) {
			// An hour-long probe interval leaves the breaker to the test.
			r, _, insts := newReplicatedRouter(t, 4, 2, WithRouterHealth(0, time.Hour))
			const name = "rewrite/victim"
			homes := r.placer.Homes(name, r.rep)
			down := cloud.SiteID(0)
			for slices.Contains(homes, down) {
				down++
			}
			if _, err := r.Put(ctx, testEntry(name)); err != nil {
				t.Fatal(err)
			}
			r.MarkShardDown(down)
			if err := r.Delete(ctx, name); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if err := row.rewrite(r, testEntry(name)); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			r.MarkShardUp(down)
			r.Wait()

			if _, err := r.Get(ctx, name); err != nil {
				t.Fatalf("acknowledged rewrite lost to the sweep: %v", err)
			}
			for _, id := range homes {
				if !holds(t, insts[id], name) {
					t.Fatalf("rewritten entry is missing from its home shard %d after the sweep", id)
				}
			}
		})
	}
}

// deleteManyFault wraps a shard whose DeleteMany fails with a plain error
// (an answer, so the breaker stays closed) while failing is set.
type deleteManyFault struct {
	API
	failing atomic.Bool
}

func (f *deleteManyFault) DeleteMany(ctx context.Context, names []string) (int, error) {
	if f.failing.Load() {
		return 0, errors.New("injected delete failure")
	}
	return f.API.DeleteMany(ctx, names)
}

// TestRouterAbandonedSweepKeepsDeletionNotes deletes an entry while one of
// its homes is down, then lets the recovery sweep fail to purge that home's
// stale copy until it gives up. The abandoned sweep must keep the deletion
// note, so the next sweep purges the copy instead of merging it back.
func TestRouterAbandonedSweepKeepsDeletionNotes(t *testing.T) {
	ctx := context.Background()
	var fault *deleteManyFault
	r, _ := newRecoveryTier(t, func(inst *Instance) API { fault = &deleteManyFault{API: inst}; return fault })
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("abandoned/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	victim := homedOn(t, r, names, 0)

	r.MarkShardDown(0)
	if err := r.Delete(ctx, victim); err != nil { // shard 0 keeps its stale copy
		t.Fatal(err)
	}
	fault.failing.Store(true)
	r.MarkShardUp(0)
	r.Wait() // every attempt fails to purge shard 0's copy; the sweep is abandoned

	fault.failing.Store(false)
	r.MarkShardDown(1)
	r.MarkShardUp(1)
	r.Wait()
	if e, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry resurrected by the sweep after an abandoned one: %+v %v", e, err)
	}
}

// TestRouterGetFallsBackDuringSweep freezes a recovery's sweep before it has
// read anything and checks that reads of entries the returning shard missed
// succeed via the fallback instead of reporting the returning primary's
// ErrNotFound.
func TestRouterGetFallsBackDuringSweep(t *testing.T) {
	ctx := context.Background()
	var gate *entriesGate
	r, _ := newRecoveryTier(t, func(inst *Instance) API { gate = newEntriesGate(inst); return gate })
	const n = 200
	names := writeDuringOutage(t, r, "fallback", n)
	var missed string
	for _, name := range names {
		if r.placer.Home(name) == 0 {
			missed = name
			break
		}
	}
	if missed == "" {
		t.Fatal("no name has shard 0 as its primary")
	}

	r.MarkShardUp(0)
	<-gate.entered // the sweep is frozen; shard 0 is back in placement and still empty
	if _, err := r.Get(ctx, missed); err != nil {
		t.Fatalf("get of a not-yet-repaired entry during the sweep: %v", err)
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
	if _, err := r.Get(ctx, missed); err != nil {
		t.Fatalf("get after the sweep: %v", err)
	}
}

// fallbackShard is shard 0 of the fallback test: its Entries freezes the
// sweep, and its reads can be made slow or unreachable.
type fallbackShard struct {
	*entriesGate
	slow, down atomic.Bool
}

func (s *fallbackShard) read() error {
	if s.down.Load() {
		return fmt.Errorf("shard 0: %w", ErrUnavailable)
	}
	if s.slow.Load() {
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

func (s *fallbackShard) Get(ctx context.Context, name string) (Entry, error) {
	if err := s.read(); err != nil {
		return Entry{}, err
	}
	return s.entriesGate.Get(ctx, name)
}

func (s *fallbackShard) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	if err := s.read(); err != nil {
		return nil, err
	}
	return s.entriesGate.GetMany(ctx, names)
}

// TestRouterGetManyFallbackMatchesGet freezes a sweep and reads, through Get
// and GetMany, names whose homes miss them while off-home copies sit
// elsewhere (AUDIT G18). Both keep the highest version of two copies, even
// when the lower answers first, and both fail with ErrUnavailable when the
// only copy is on a shard that does not answer, instead of reading the name
// as absent.
func TestRouterGetManyFallbackMatchesGet(t *testing.T) {
	ctx := context.Background()
	var shard0 *fallbackShard
	r, insts := newRecoveryTier(t, func(inst *Instance) API {
		shard0 = &fallbackShard{entriesGate: newEntriesGate(inst)}
		return shard0
	})
	// Two names homed away from shard 0: the first has version 1 on its
	// secondary and version 2 on shard 0, the second a copy on shard 0 only.
	var twoCopies, hidden string
	for i := 0; hidden == ""; i++ {
		name := fmt.Sprintf("g18/%d", i)
		homes := r.placer.Homes(name, r.rep)
		switch {
		case slices.Contains(homes, 0):
		case twoCopies == "":
			twoCopies = name
			for _, shard := range []*Instance{insts[homes[1]], insts[0], insts[0]} {
				if _, err := shard.Put(ctx, testEntry(name)); err != nil {
					t.Fatal(err)
				}
			}
		default:
			hidden = name
			if _, err := insts[0].Put(ctx, testEntry(name)); err != nil {
				t.Fatal(err)
			}
		}
	}

	r.MarkShardDown(0)
	r.MarkShardUp(0)
	<-shard0.entered // the sweep is frozen before it has read anything
	shard0.slow.Store(true)
	if e, err := r.Get(ctx, twoCopies); err != nil || e.Version != 2 {
		t.Errorf("Get of a name with two off-home copies = %+v, %v; want version 2", e, err)
	}
	if got, err := r.GetMany(ctx, []string{twoCopies}); err != nil || len(got) != 1 || got[0].Version != 2 {
		t.Errorf("GetMany of a name with two off-home copies = %+v, %v; want version 2", got, err)
	}
	shard0.slow.Store(false)

	shard0.down.Store(true)
	if e, err := r.Get(ctx, hidden); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Get of a name whose only copy is unreachable = %+v, %v; want ErrUnavailable", e, err)
	}
	if got, err := r.GetMany(ctx, []string{twoCopies, hidden}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("GetMany of a name whose only copy is unreachable = %+v, %v; want ErrUnavailable", got, err)
	}
	shard0.down.Store(false)
	close(shard0.release)
	r.Wait()
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
	for _, e := range entries {
		if !want[e.Name] {
			t.Fatalf("unexpected or repeated name %q", e.Name)
		}
		delete(want, e.Name)
	}
	if r.Len(ctx) != n {
		t.Fatalf("len: got %d, want %d", r.Len(ctx), n)
	}
}

// await receives from ch, failing the test if nothing arrives in time: a
// held operation that never comes is a failure, not a hang.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// writeHold holds every call of one operation on one name, at whichever
// shard it lands, until released: a test can keep a routed write in flight
// across a whole recovery.
type writeHold struct {
	op, name string
	held     chan struct{} // one receive per held call
	release  chan struct{}
}

func newWriteHold(op, name string) *writeHold {
	return &writeHold{op: op, name: name, held: make(chan struct{}), release: make(chan struct{})}
}

func (h *writeHold) wait(op string, names ...string) {
	if op != h.op || !slices.Contains(names, h.name) {
		return
	}
	select {
	case h.held <- struct{}{}:
		<-h.release
	case <-h.release:
	}
}

// heldShard is a shard whose writes go through a writeHold.
type heldShard struct {
	API
	h *writeHold
}

func (s heldShard) Create(ctx context.Context, e Entry) (Entry, error) {
	s.h.wait("create", e.Name)
	return s.API.Create(ctx, e)
}

func (s heldShard) Put(ctx context.Context, e Entry) (Entry, error) {
	s.h.wait("put", e.Name)
	return s.API.Put(ctx, e)
}

func (s heldShard) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	s.h.wait("addlocation", name)
	return s.API.AddLocation(ctx, name, loc)
}

func (s heldShard) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	s.h.wait("putmany", entryNames(entries)...)
	return s.API.PutMany(ctx, entries)
}

func (s heldShard) Merge(ctx context.Context, entries []Entry) (int, error) {
	s.h.wait("merge", entryNames(entries)...)
	return s.API.Merge(ctx, entries)
}

// newWrappedTier builds newRecoveryTier's tier — three memory shards at
// R = 2, breakers left to the test — with every shard seen through wrap.
func newWrappedTier(t *testing.T, wrap func(cloud.SiteID, *Instance) API) (*Router, []*Instance) {
	t.Helper()
	insts := []*Instance{newShard(7), newShard(7), newShard(7)}
	apis := make([]API, len(insts))
	for i, inst := range insts {
		apis[i] = wrap(cloud.SiteID(i), inst)
	}
	r, err := NewRouter(7, apis, WithRouterReplication(2), WithRouterHealth(0, time.Hour), WithRouterMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, insts
}

// newHeldTier is newWrappedTier with every shard's writes going through the
// hold.
func newHeldTier(t *testing.T, h *writeHold) (*Router, []*Instance) {
	return newWrappedTier(t, func(_ cloud.SiteID, inst *Instance) API { return heldShard{API: inst, h: h} })
}

// primaryOn returns a name whose primary is the shard.
func primaryOn(r *Router, shard cloud.SiteID, prefix string) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("%s/%d", prefix, i); r.placer.Home(name) == shard {
			return name
		}
	}
}

// TestRouterWriteRacingRecoveryReachesItsHomes resolves a write's replica
// sets while shard 0 is down, holds the write at the substitutes it targets
// until shard 0 has come back and its whole re-sync sweep has run, and then
// lets it land (AUDIT G19). The sweep read the substitutes before the write
// reached them, so only the write itself can carry it to shard 0, the
// name's primary again: every acknowledged write must be readable there.
func TestRouterWriteRacingRecoveryReachesItsHomes(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		op    string
		holds int // calls held: one per targeted replica, or the authority alone
		write func(*Router, Entry) error
	}{
		{"put", 2, func(r *Router, e Entry) error { _, err := r.Put(ctx, e); return err }},
		{"create", 1, func(r *Router, e Entry) error { _, err := r.Create(ctx, e); return err }},
		{"putmany", 2, func(r *Router, e Entry) error { _, err := r.PutMany(ctx, []Entry{e}); return err }},
		{"merge", 2, func(r *Router, e Entry) error { _, err := r.Merge(ctx, []Entry{e}); return err }},
	} {
		t.Run(row.op, func(t *testing.T) {
			h := newWriteHold(row.op, "")
			r, insts := newHeldTier(t, h)
			h.name = primaryOn(r, 0, "g19")

			r.MarkShardDown(0)
			done := make(chan error, 1)
			go func() { done <- row.write(r, testEntry(h.name)) }()
			for range row.holds {
				await(t, h.held, "the write to reach its replicas")
			}
			r.MarkShardUp(0)
			r.Wait()
			close(h.release)
			if err := <-done; err != nil {
				t.Fatalf("%s racing the recovery: %v", row.op, err)
			}

			if _, err := r.Get(ctx, h.name); err != nil {
				t.Fatalf("acknowledged %s is not readable after the recovery: %v", row.op, err)
			}
			if !holds(t, insts[0], h.name) {
				t.Fatalf("acknowledged %s never reached shard 0, the name's primary", row.op)
			}
		})
	}
}

// TestRouterAddLocationRacingRecoveryReachesThePrimary holds an AddLocation
// at its authority — chosen while the name's primary, shard 0, was down —
// until shard 0 is back and swept, then lets it finish (AUDIT G20). The
// primary serves the name again, so it must serve the new location.
func TestRouterAddLocationRacingRecoveryReachesThePrimary(t *testing.T) {
	ctx := context.Background()
	h := newWriteHold("addlocation", "")
	r, _ := newHeldTier(t, h)
	h.name = primaryOn(r, 0, "g20")
	if _, err := r.Create(ctx, testEntry(h.name)); err != nil {
		t.Fatal(err)
	}
	loc := Location{Site: 3, Node: 33}

	r.MarkShardDown(0)
	done := make(chan error, 1)
	go func() { _, err := r.AddLocation(ctx, h.name, loc); done <- err }()
	await(t, h.held, "the add-location to reach its authority")
	r.MarkShardUp(0)
	r.Wait()
	close(h.release)
	if err := <-done; err != nil {
		t.Fatalf("add-location racing the recovery: %v", err)
	}

	e, err := r.Get(ctx, h.name)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(e.Locations, loc) {
		t.Fatalf("acknowledged AddLocation is missing from the primary's copy: %v", e.Locations)
	}
}

// TestRouterDeleteDuringSweepIsNotReadBack freezes a recovery's sweep before
// it has read anything and deletes a name whose copy written during the
// outage still sits on a substitute (AUDIT G21). The sweep's read fallback
// consults that substitute, so the deletion must have purged it: the name
// reads as absent at once, through Delete and DeleteMany alike.
func TestRouterDeleteDuringSweepIsNotReadBack(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		op  string
		del func(*Router, string) error
	}{
		{"delete", func(r *Router, name string) error { return r.Delete(ctx, name) }},
		{"deletemany", func(r *Router, name string) error { _, err := r.DeleteMany(ctx, []string{name}); return err }},
	} {
		t.Run(row.op, func(t *testing.T) {
			var gate *entriesGate
			r, insts := newRecoveryTier(t, func(inst *Instance) API { gate = newEntriesGate(inst); return gate })
			names := writeDuringOutage(t, r, "g21-"+row.op, 50)
			victim := homedOn(t, r, names, 0)

			r.MarkShardUp(0)
			await(t, gate.entered, "the sweep to start") // frozen; the substitute still holds the victim
			if err := row.del(r, victim); err != nil {
				t.Fatalf("%s during the sweep: %v", row.op, err)
			}
			if e, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
				t.Errorf("name deleted during the sweep reads back as %+v, %v", e, err)
			}
			close(gate.release)
			r.Wait()
			for id, inst := range insts {
				if holds(t, inst, victim) {
					t.Fatalf("shard %d holds the name deleted during the sweep", id)
				}
			}
		})
	}
}

// putFault wraps a shard whose Put fails with a plain error (an answer, so
// the breaker stays closed) while failing is set.
type putFault struct {
	API
	failing atomic.Bool
}

func (f *putFault) Put(ctx context.Context, e Entry) (Entry, error) {
	if f.failing.Load() {
		return Entry{}, errors.New("injected put failure")
	}
	return f.API.Put(ctx, e)
}

// TestRouterFailedWriteKeepsTheDeletion deletes a name while its primary is
// down — shard 0 keeps a stale copy, and the deletion is noted — then
// rewrites it with a Put that reaches one replica and fails at the other.
// The Put cleared the note before it ran; failing, it must restore the
// deletion: the name is purged from the shards it reached, and the note
// stands, so the recovery sweep purges shard 0's stale copy instead of
// merging it back.
func TestRouterFailedWriteKeepsTheDeletion(t *testing.T) {
	ctx := context.Background()
	faults := make([]*putFault, 3)
	r, insts := newWrappedTier(t, func(id cloud.SiteID, inst *Instance) API {
		faults[id] = &putFault{API: inst}
		return faults[id]
	})
	victim := primaryOn(r, 0, "reassert")
	if _, err := r.Create(ctx, testEntry(victim)); err != nil {
		t.Fatal(err)
	}

	r.MarkShardDown(0)
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatal(err)
	}
	// With shard 0 down the replica set is shards 1 and 2; fail the one that
	// is not the victim's home.
	substitute := cloud.SiteID(1)
	if slices.Contains(r.placer.Homes(victim, r.rep), substitute) {
		substitute = 2
	}
	faults[substitute].failing.Store(true)
	if _, err := r.Put(ctx, testEntry(victim)); err == nil {
		t.Fatal("put with a failing replica succeeded")
	}
	faults[substitute].failing.Store(false)
	if e, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed put left the deleted name readable: %+v, %v", e, err)
	}

	r.MarkShardUp(0)
	r.Wait()
	for id, inst := range insts {
		if holds(t, inst, victim) {
			t.Fatalf("shard %d holds the deleted name after the recovery", id)
		}
	}
}

// TestRouterCreateOverStaleCopyOfDeletedName deletes a name while its
// primary, shard 0, is down, brings shard 0 back with its stale copy and
// freezes the sweep before it reads shard 0. A Create of the name now meets
// the stale copy at its authority: the name was deleted, so the create must
// win over the copy instead of failing with ErrExists.
func TestRouterCreateOverStaleCopyOfDeletedName(t *testing.T) {
	ctx := context.Background()
	var gate *entriesGate
	r, insts := newRecoveryTier(t, func(inst *Instance) API { gate = newEntriesGate(inst); return gate })
	victim := primaryOn(r, 0, "stale-create")
	if _, err := r.Create(ctx, testEntry(victim)); err != nil {
		t.Fatal(err)
	}
	r.MarkShardDown(0)
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatal(err)
	}
	r.MarkShardUp(0)
	await(t, gate.entered, "the sweep to start") // shard 0 is back in placement, stale copy and all

	fresh := testEntry(victim)
	fresh.Size = 4242
	if _, err := r.Create(ctx, fresh); err != nil {
		t.Fatalf("create of a deleted name over its stale copy: %v", err)
	}
	close(gate.release)
	r.Wait()
	for _, id := range r.placer.Homes(victim, r.rep) {
		e, err := insts[id].Get(ctx, victim)
		if err != nil || e.Size != fresh.Size {
			t.Fatalf("shard %d after the sweep: %+v, %v; want the created entry", id, e, err)
		}
	}
}

// deleteManyHold wraps a shard and holds the first DeleteMany that names
// one entry until released.
type deleteManyHold struct {
	API
	name    string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *deleteManyHold) DeleteMany(ctx context.Context, names []string) (int, error) {
	if slices.Contains(names, g.name) {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return g.API.DeleteMany(ctx, names)
}

// TestRouterSweepRestoresRacedWrite deletes a name while its primary, shard
// 2, is down, then holds the recovery sweep's cleanup delete of shard 2's
// stale copy and re-writes the name meanwhile. The cleanup then removes the
// fresh copy from shard 2, in the sweep's last pass, so no later pass merges
// it back: the sweep must see the note gone and restore shard 2's copy from
// the other replica, or the acknowledged Put is lost at the name's primary.
func TestRouterSweepRestoresRacedWrite(t *testing.T) {
	ctx := context.Background()
	gate := &deleteManyHold{entered: make(chan struct{}), release: make(chan struct{})}
	r, insts := newWrappedTier(t, func(id cloud.SiteID, inst *Instance) API {
		if id != 2 {
			return inst
		}
		gate.API = inst
		return gate
	})
	gate.name = primaryOn(r, 2, "raced")
	if _, err := r.Create(ctx, testEntry(gate.name)); err != nil {
		t.Fatal(err)
	}
	r.MarkShardDown(2)
	if err := r.Delete(ctx, gate.name); err != nil {
		t.Fatal(err)
	}

	r.MarkShardUp(2)
	await(t, gate.entered, "the sweep's cleanup") // it is about to purge shard 2's stale copy
	if _, err := r.Put(ctx, testEntry(gate.name)); err != nil {
		t.Fatalf("put during the sweep's cleanup: %v", err)
	}
	close(gate.release)
	r.Wait()

	if _, err := r.Get(ctx, gate.name); err != nil {
		t.Fatalf("put acknowledged during the sweep is lost: %v", err)
	}
	if !holds(t, insts[2], gate.name) {
		t.Fatal("shard 2, the name's primary, lost the put acknowledged during the sweep")
	}
}

// TestRouterDeleteRacingSweepMergeIsUndone holds a Delete at one replica —
// issued with no sweep active and no shard down, so it noted nothing —
// while a recovery's sweep reads that replica's still-present copy and is
// frozen merging it into the other replica, which has already deleted it.
// The delete then finishes; the merge lands after it. Seeing the sweep, the
// delete must record its note again, so the sweep's post-merge check undoes
// the merge instead of leaving the deleted name resurrected.
func TestRouterDeleteRacingSweepMergeIsUndone(t *testing.T) {
	ctx := context.Background()
	del := &deleteGate{entered: make(chan struct{}), release: make(chan struct{})}
	merge := newWriteHold("merge", "")
	r, insts := newWrappedTier(t, func(id cloud.SiteID, inst *Instance) API {
		if id == 0 {
			del.API = inst
			return del
		}
		return heldShard{API: inst, h: merge}
	})
	del.name = primaryOn(r, 0, "undo")
	merge.name = del.name
	other, third := cloud.SiteID(1), cloud.SiteID(2) // the name's other replica, and the shard it skips
	if !slices.Contains(r.placer.Homes(del.name, r.rep), other) {
		other, third = third, other
	}
	if _, err := r.Create(ctx, testEntry(del.name)); err != nil {
		t.Fatal(err)
	}

	deleted := make(chan error, 1)
	go func() { deleted <- r.Delete(ctx, del.name) }()
	await(t, del.entered, "the delete to reach shard 0")
	waitFor(t, "the other replica to apply the delete", func() bool { return !holds(t, insts[other], del.name) })
	r.MarkShardDown(third)
	r.MarkShardUp(third)
	await(t, merge.held, "the sweep to merge shard 0's copy into the other replica")

	close(del.release)
	if err := <-deleted; err != nil {
		t.Fatalf("delete racing the sweep: %v", err)
	}
	close(merge.release)
	r.Wait()
	for id, inst := range insts {
		if holds(t, inst, del.name) {
			t.Fatalf("shard %d holds a copy of the entry after its delete was acknowledged", id)
		}
	}
}
