package registry

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
)

// killableShard wraps a shard and, while killed, answers every operation
// with a transport failure wrapping ErrUnavailable — an rpc.Client whose
// server process died. Best-effort operations degrade the way the real proxy
// does (false/nil/zero).
type killableShard struct {
	API
	dead atomic.Bool
}

func (k *killableShard) kill()   { k.dead.Store(true) }
func (k *killableShard) revive() { k.dead.Store(false) }

func (k *killableShard) Create(ctx context.Context, e Entry) (Entry, error) {
	if k.dead.Load() {
		return Entry{}, errShardDown
	}
	return k.API.Create(ctx, e)
}

func (k *killableShard) Put(ctx context.Context, e Entry) (Entry, error) {
	if k.dead.Load() {
		return Entry{}, errShardDown
	}
	return k.API.Put(ctx, e)
}

func (k *killableShard) Get(ctx context.Context, name string) (Entry, error) {
	if k.dead.Load() {
		return Entry{}, errShardDown
	}
	return k.API.Get(ctx, name)
}

func (k *killableShard) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	if k.dead.Load() {
		return Entry{}, errShardDown
	}
	return k.API.AddLocation(ctx, name, loc)
}

func (k *killableShard) Delete(ctx context.Context, name string) error {
	if k.dead.Load() {
		return errShardDown
	}
	return k.API.Delete(ctx, name)
}

func (k *killableShard) Names(ctx context.Context) []string {
	if k.dead.Load() {
		return nil
	}
	return k.API.Names(ctx)
}

func (k *killableShard) Entries(ctx context.Context) ([]Entry, error) {
	if k.dead.Load() {
		return nil, errShardDown
	}
	return k.API.Entries(ctx)
}

func (k *killableShard) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	if k.dead.Load() {
		return nil, errShardDown
	}
	return k.API.GetMany(ctx, names)
}

func (k *killableShard) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	if k.dead.Load() {
		return nil, errShardDown
	}
	return k.API.PutMany(ctx, entries)
}

func (k *killableShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	if k.dead.Load() {
		return 0, errShardDown
	}
	return k.API.DeleteMany(ctx, names)
}

func (k *killableShard) Merge(ctx context.Context, entries []Entry) (int, error) {
	if k.dead.Load() {
		return 0, errShardDown
	}
	return k.API.Merge(ctx, entries)
}

func (k *killableShard) Len(ctx context.Context) int {
	if k.dead.Load() {
		return 0
	}
	return k.API.Len(ctx)
}

// newReplicatedRouter builds a router over n killable in-process shards with
// the given replication factor and a fast breaker (threshold 2, 10ms probe).
func newReplicatedRouter(t *testing.T, n, rep int, opts ...RouterOption) (*Router, []*killableShard, []*Instance) {
	t.Helper()
	insts := make([]*Instance, n)
	kills := make([]*killableShard, n)
	apis := make([]API, n)
	for i := range apis {
		insts[i] = newShard(7)
		kills[i] = &killableShard{API: insts[i]}
		apis[i] = kills[i]
	}
	opts = append([]RouterOption{
		WithRouterReplication(rep),
		WithRouterHealth(2, 10*time.Millisecond),
	}, opts...)
	r, err := NewRouter(7, apis, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, kills, insts
}

// namesWithPrimary returns count names whose resolved primary is the given
// shard.
func namesWithPrimary(t *testing.T, r *Router, shard cloud.SiteID, prefix string, count int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < count && i < 100000; i++ {
		name := fmt.Sprintf("%s/%d", prefix, i)
		refs, err := r.replicaSet(name)
		if err != nil {
			t.Fatal(err)
		}
		if refs[0].id == shard {
			out = append(out, name)
		}
	}
	if len(out) < count {
		t.Fatalf("could not find %d names with primary shard %d", count, shard)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterReplicatedWritesFanOut pins R-way placement: every created entry
// lives on exactly its R resolved home shards, and the homes are distinct.
func TestRouterReplicatedWritesFanOut(t *testing.T) {
	ctx := context.Background()
	r, _, insts := newReplicatedRouter(t, 4, 2)

	for i := 0; i < 128; i++ {
		name := fmt.Sprintf("rep/fanout/%d", i)
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
		refs, err := r.replicaSet(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 2 || refs[0].id == refs[1].id {
			t.Fatalf("replica set for %q not two distinct shards: %v", name, refs)
		}
		homes := map[cloud.SiteID]bool{refs[0].id: true, refs[1].id: true}
		for id, inst := range insts {
			has := holds(t, inst, name)
			if homes[cloud.SiteID(id)] != has {
				t.Fatalf("entry %q on shard %d: got %v, want %v", name, id, has, homes[cloud.SiteID(id)])
			}
		}
	}

	// The tier's logical size counts every entry once, not once per replica.
	if got := r.Len(ctx); got != 128 {
		t.Fatalf("replicated Len: got %d, want 128", got)
	}
	entries, err := r.Entries(ctx)
	if err != nil || len(entries) != 128 {
		t.Fatalf("replicated Entries: got %d (%v), want 128", len(entries), err)
	}
	if names := r.Names(ctx); len(names) != 128 {
		t.Fatalf("replicated Names: got %d, want 128", len(names))
	}

	// Duplicate create still fails, and delete removes every replica.
	if _, err := r.Create(ctx, testEntry("rep/fanout/0")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: want ErrExists, got %v", err)
	}
	if err := r.Delete(ctx, "rep/fanout/0"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for id, inst := range insts {
		if holds(t, inst, "rep/fanout/0") {
			t.Fatalf("deleted entry still on shard %d", id)
		}
	}
	if _, err := r.Get(ctx, "rep/fanout/0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: want ErrNotFound, got %v", err)
	}
}

// TestRouterReplicatedReadFailsOver kills a shard and checks single-key and
// bulk reads of its keys succeed via the replica list without waiting for
// the breaker.
func TestRouterReplicatedReadFailsOver(t *testing.T) {
	ctx := context.Background()
	r, kills, _ := newReplicatedRouter(t, 4, 2, WithRouterMetrics(metrics.NewRegistry()))

	const n = 200
	names := make([]string, n)
	entries := make([]Entry, n)
	for i := range names {
		names[i] = fmt.Sprintf("rep/failover/%d", i)
		entries[i] = testEntry(names[i])
	}
	if _, err := r.PutMany(ctx, entries); err != nil {
		t.Fatal(err)
	}

	kills[2].kill()

	for _, name := range names {
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q with shard 2 dead: %v", name, err)
		}
	}
	got, err := r.GetMany(ctx, names)
	if err != nil {
		t.Fatalf("get-many with shard 2 dead: %v", err)
	}
	if len(got) != n {
		t.Fatalf("get-many with shard 2 dead returned %d of %d", len(got), n)
	}
	// Listing survives too, whether or not the breaker opened yet.
	if entries, err := r.Entries(ctx); err != nil || len(entries) != n {
		t.Fatalf("entries with shard 2 dead: got %d (%v), want %d", len(entries), err, n)
	}
}

// opCountingShard counts operations that reach the shard, excluding health
// probes — the satellite acceptance test uses it to pin that a down-marked
// shard receives zero routed operations until its probe succeeds.
type opCountingShard struct {
	API
	ops atomic.Int64
}

func (c *opCountingShard) Create(ctx context.Context, e Entry) (Entry, error) {
	c.ops.Add(1)
	return c.API.Create(ctx, e)
}

func (c *opCountingShard) Put(ctx context.Context, e Entry) (Entry, error) {
	c.ops.Add(1)
	return c.API.Put(ctx, e)
}

func (c *opCountingShard) Get(ctx context.Context, name string) (Entry, error) {
	if name != probeKey {
		c.ops.Add(1)
	}
	return c.API.Get(ctx, name)
}

func (c *opCountingShard) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	c.ops.Add(1)
	return c.API.AddLocation(ctx, name, loc)
}

func (c *opCountingShard) Delete(ctx context.Context, name string) error {
	c.ops.Add(1)
	return c.API.Delete(ctx, name)
}

func (c *opCountingShard) Names(ctx context.Context) []string {
	c.ops.Add(1)
	return c.API.Names(ctx)
}

func (c *opCountingShard) Entries(ctx context.Context) ([]Entry, error) {
	c.ops.Add(1)
	return c.API.Entries(ctx)
}

func (c *opCountingShard) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	c.ops.Add(1)
	return c.API.GetMany(ctx, names)
}

func (c *opCountingShard) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	c.ops.Add(1)
	return c.API.PutMany(ctx, entries)
}

func (c *opCountingShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	c.ops.Add(1)
	return c.API.DeleteMany(ctx, names)
}

func (c *opCountingShard) Merge(ctx context.Context, entries []Entry) (int, error) {
	c.ops.Add(1)
	return c.API.Merge(ctx, entries)
}

// TestRouterDownShardReceivesZeroRoutedOps is the breaker acceptance test: a
// shard marked down receives no routed operations at all — single-key,
// bulk, or listing — until its probe succeeds, after which it serves again.
func TestRouterDownShardReceivesZeroRoutedOps(t *testing.T) {
	ctx := context.Background()
	const n = 4
	insts := make([]*Instance, n)
	kills := make([]*killableShard, n)
	counts := make([]*opCountingShard, n)
	apis := make([]API, n)
	for i := range apis {
		insts[i] = newShard(7)
		kills[i] = &killableShard{API: insts[i]}
		counts[i] = &opCountingShard{API: kills[i]}
		apis[i] = counts[i]
	}
	r, err := NewRouter(7, apis,
		WithRouterReplication(2),
		WithRouterHealth(2, 10*time.Millisecond),
		WithRouterMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const victim = cloud.SiteID(1)
	seed := namesWithPrimary(t, r, victim, "rep/breaker", 32)
	for _, name := range seed {
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the shard and feed the breaker until it opens: reads of its keys
	// keep succeeding via failover while the failures accumulate.
	kills[victim].kill()
	waitFor(t, "breaker to open", func() bool {
		if _, err := r.Get(ctx, seed[0]); err != nil {
			t.Fatalf("failover read during breaker warm-up: %v", err)
		}
		return len(r.DownShards()) == 1
	})

	// From here on, not a single routed operation may reach the down shard.
	counts[victim].ops.Store(0)
	var bulkEntries []Entry
	var bulkNames []string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("rep/breaker/after/%d", i)
		bulkNames = append(bulkNames, name)
		bulkEntries = append(bulkEntries, testEntry(name))
		if _, err := r.Create(ctx, testEntry(fmt.Sprintf("rep/breaker/single/%d", i))); err != nil {
			t.Fatalf("create with shard down: %v", err)
		}
		if _, err := r.Get(ctx, seed[i%len(seed)]); err != nil {
			t.Fatalf("get with shard down: %v", err)
		}
	}
	if _, err := r.PutMany(ctx, bulkEntries); err != nil {
		t.Fatalf("put-many with shard down: %v", err)
	}
	if _, err := r.GetMany(ctx, bulkNames); err != nil {
		t.Fatalf("get-many with shard down: %v", err)
	}
	if _, err := r.Entries(ctx); err != nil {
		t.Fatalf("entries with shard down: %v", err)
	}
	r.Names(ctx)
	r.Len(ctx)
	if got := counts[victim].ops.Load(); got != 0 {
		t.Fatalf("down-marked shard received %d routed operations, want 0", got)
	}

	// The shard comes back: the probe closes the breaker, a re-sync sweep
	// repairs it, and routing hands it operations again.
	kills[victim].revive()
	waitFor(t, "probe to close the breaker", func() bool { return len(r.DownShards()) == 0 })
	r.Wait()
	if got := counts[victim].ops.Load(); got == 0 {
		t.Fatal("recovered shard never received the re-sync sweep")
	}
	counts[victim].ops.Store(0)
	for _, name := range seed {
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after recovery: %v", name, err)
		}
	}
	if got := counts[victim].ops.Load(); got == 0 {
		t.Fatal("recovered shard still receives no routed operations")
	}
}

// TestRouterShardOutageResync covers the full outage story: writes and
// deletions issued while a shard is down land on substitute replicas, and
// the re-sync sweep after recovery restores ring placement — without
// resurrecting anything deleted during the outage from the dead shard's
// stale copies.
func TestRouterShardOutageResync(t *testing.T) {
	ctx := context.Background()
	r, kills, insts := newReplicatedRouter(t, 4, 2)

	const victim = cloud.SiteID(3)
	stale := namesWithPrimary(t, r, victim, "rep/outage/stale", 8)
	for _, name := range stale {
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
	}

	kills[victim].kill()
	r.MarkShardDown(victim)

	// Deletions during the outage: the dead shard still holds stale copies.
	for _, name := range stale[:4] {
		if err := r.Delete(ctx, name); err != nil {
			t.Fatalf("delete %q during outage: %v", name, err)
		}
	}
	// Writes during the outage land on substitute replicas.
	var during []string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("rep/outage/during/%d", i)
		during = append(during, name)
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatalf("create %q during outage: %v", name, err)
		}
	}

	kills[victim].revive()
	r.MarkShardUp(victim)
	r.Wait()

	// Deletions stand: the stale copies on the returned shard were purged,
	// not resurrected.
	for _, name := range stale[:4] {
		if _, err := r.Get(ctx, name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted %q resurrected after resync: %v", name, err)
		}
		if holds(t, insts[victim], name) {
			t.Fatalf("returned shard still holds stale copy of deleted %q", name)
		}
	}
	// Everything else is back at ring placement: each entry on exactly its
	// two home shards, including the returned one.
	for _, name := range append(append([]string{}, stale[4:]...), during...) {
		refs, err := r.replicaSet(name)
		if err != nil {
			t.Fatal(err)
		}
		homes := make(map[cloud.SiteID]bool, len(refs))
		for _, ref := range refs {
			homes[ref.id] = true
		}
		for id, inst := range insts {
			if has := holds(t, inst, name); has != homes[cloud.SiteID(id)] {
				t.Fatalf("after resync, entry %q on shard %d: got %v, want %v", name, id, has, homes[cloud.SiteID(id)])
			}
		}
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after resync: %v", name, err)
		}
	}
}

// TestRouterWriteConcernQuorum pins the difference between the two write
// concerns under an unmarked replica failure: WriteAll surfaces it,
// WriteQuorum suppresses it when a majority acked (and counts it).
func TestRouterWriteConcernQuorum(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		concern WriteConcern
		wantErr bool
	}{
		{WriteAll, true},
		{WriteQuorum, false},
	} {
		t.Run(tc.concern.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			// Threshold high enough that the dying replica is never marked
			// down during the test: the failure stays a per-write surprise.
			r, kills, _ := newReplicatedRouter(t, 4, 3,
				WithRouterWriteConcern(tc.concern),
				WithRouterMetrics(reg),
				WithRouterHealth(10000, time.Hour))

			const victim = cloud.SiteID(2)
			// A name replicated on the victim, but not primaried there — the
			// create succeeds at the primary either way.
			var name string
			for i := 0; name == "" && i < 100000; i++ {
				cand := fmt.Sprintf("rep/concern/%d", i)
				refs, err := r.replicaSet(cand)
				if err != nil {
					t.Fatal(err)
				}
				for _, ref := range refs[1:] {
					if ref.id == victim {
						name = cand
					}
				}
			}
			if name == "" {
				t.Fatal("no candidate name replicates on the victim shard")
			}
			kills[victim].kill()
			_, err := r.Put(ctx, testEntry(name))
			if tc.wantErr {
				if err == nil || !errors.Is(err, ErrUnavailable) {
					t.Fatalf("WriteAll with a dead replica: want ErrUnavailable, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("WriteQuorum with a dead replica and 2/3 acks: %v", err)
			}
			if got := reg.Counter("router_replica_write_errors_total").Value(); got == 0 {
				t.Fatal("quorum-suppressed replica failure not counted")
			}
			// The write is readable despite the dead replica.
			if _, err := r.Get(ctx, name); err != nil {
				t.Fatalf("get after quorum write: %v", err)
			}
		})
	}
}

// TestRouterReplicatedBulkOneFramePerShard extends the batching contract to
// the replicated tier: a bulk call issues at most one combined sub-batch per
// shard even though every entry targets R shards.
func TestRouterReplicatedBulkOneFramePerShard(t *testing.T) {
	ctx := context.Background()
	const nShards = 4
	counters := make([]*countingShard, nShards)
	apis := make([]API, nShards)
	for i := range counters {
		counters[i] = newCountingShard(newShard(7))
		apis[i] = counters[i]
	}
	r, err := NewRouter(7, apis, WithRouterReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 256
	entries := make([]Entry, n)
	names := make([]string, n)
	for i := range entries {
		names[i] = fmt.Sprintf("repbulk/%d", i)
		entries[i] = testEntry(names[i])
	}
	if _, err := r.PutMany(ctx, entries); err != nil {
		t.Fatalf("put-many: %v", err)
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
		t.Fatalf("replicated delete-many reported %d, want %d", deleted, n)
	}
	for i, c := range counters {
		for _, bulk := range []string{"PutMany", "GetMany", "Merge", "DeleteMany"} {
			if calls := c.Calls(bulk); calls > 1 {
				t.Errorf("shard %d: %s called %d times for one replicated bulk call, want at most 1", i, bulk, calls)
			}
		}
		for _, single := range []string{"Get", "Put", "Delete"} {
			if calls := c.Calls(single); calls != 0 {
				t.Errorf("shard %d: replicated bulk ops fell back to %d per-key %s calls", i, calls, single)
			}
		}
	}
}

// TestRouterReplicatedMembershipChange checks joins and leaves still migrate
// correctly when placement is replicated: after the sweep every entry sits
// on exactly its R home shards.
func TestRouterReplicatedMembershipChange(t *testing.T) {
	ctx := context.Background()
	r, _, insts := newReplicatedRouter(t, 3, 2)

	const n = 300
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rep/member/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	joined := newShard(7)
	id := r.AddShard(joined)
	r.Wait()

	byID := make(map[cloud.SiteID]API, len(insts)+1)
	for i, inst := range insts {
		byID[cloud.SiteID(i)] = inst
	}
	byID[id] = joined

	if got := r.Len(ctx); got != n {
		t.Fatalf("tier size after join: got %d, want %d", got, n)
	}
	for _, name := range names {
		refs, err := r.replicaSet(name)
		if err != nil {
			t.Fatal(err)
		}
		homes := make(map[cloud.SiteID]bool, len(refs))
		for _, ref := range refs {
			homes[ref.id] = true
		}
		for sid, api := range byID {
			if has := holds(t, api, name); has != homes[sid] {
				t.Fatalf("after join, entry %q on shard %d: got %v, want %v", name, sid, has, homes[sid])
			}
		}
	}
	if joined.Len(ctx) == 0 {
		t.Fatal("joined shard received no replicas")
	}

	if err := r.RemoveShard(id); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if joined.Len(ctx) != 0 {
		t.Fatalf("removed shard still holds %d entries", joined.Len(ctx))
	}
	if got := r.Len(ctx); got != n {
		t.Fatalf("tier size after leave: got %d, want %d", got, n)
	}
	for _, name := range names {
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after leave: %v", name, err)
		}
	}
}

// nameReplicatedOn returns a name whose replica set includes the given
// shard.
func nameReplicatedOn(t *testing.T, r *Router, shard cloud.SiteID, prefix string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s/%d", prefix, i)
		refs, err := r.replicaSet(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			if ref.id == shard {
				return name
			}
		}
	}
	t.Fatalf("no name replicates on shard %d", shard)
	return ""
}

// TestRouterQuorumDeleteNotResurrectedByResync pins the pre-breaker window:
// a quorum-acknowledged delete whose replica failed *before* any breaker
// opened must not be resurrected when that shard later cycles through a
// down/up re-sync — the deletion note is recorded on the failed write
// itself, not on breaker state.
func TestRouterQuorumDeleteNotResurrectedByResync(t *testing.T) {
	ctx := context.Background()
	// Threshold high enough that nothing is ever marked down automatically:
	// the replica failure stays a one-off surprise.
	r, kills, insts := newReplicatedRouter(t, 4, 3,
		WithRouterWriteConcern(WriteQuorum),
		WithRouterHealth(10000, time.Hour))

	const victim = cloud.SiteID(1)
	name := nameReplicatedOn(t, r, victim, "rep/prebreaker")
	if _, err := r.Create(ctx, testEntry(name)); err != nil {
		t.Fatal(err)
	}

	kills[victim].kill()
	if err := r.Delete(ctx, name); err != nil {
		t.Fatalf("quorum delete with one dead replica: %v", err)
	}
	r.Wait() // background repair retries exhaust against the dead shard

	// The shard cycles down and back up — stale copy in hand — and the
	// re-sync sweep runs. The deletion must stand everywhere.
	r.MarkShardDown(victim)
	kills[victim].revive()
	r.MarkShardUp(victim)
	r.Wait()

	if _, err := r.Get(ctx, name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quorum-acknowledged delete resurrected by resync: %v", err)
	}
	for id, inst := range insts {
		if holds(t, inst, name) {
			t.Fatalf("shard %d still holds the deleted entry after resync", id)
		}
	}
}

// TestRouterQuorumSuppressedFailureRepaired pins the transient-blip window:
// a quorum-acknowledged write (and delete) whose replica failed without the
// breaker ever opening is made whole by the background repair alone — no
// sweep, no membership change, no breaker cycle.
func TestRouterQuorumSuppressedFailureRepaired(t *testing.T) {
	ctx := context.Background()
	r, kills, insts := newReplicatedRouter(t, 4, 3,
		WithRouterWriteConcern(WriteQuorum),
		WithRouterHealth(10000, time.Hour))

	const victim = cloud.SiteID(2)
	name := nameReplicatedOn(t, r, victim, "rep/blip")

	// Write during a blip: the victim misses the Put, revives immediately,
	// and the background repair delivers the entry.
	kills[victim].kill()
	if _, err := r.Put(ctx, testEntry(name)); err != nil {
		t.Fatalf("quorum put with one dead replica: %v", err)
	}
	kills[victim].revive()
	r.Wait()
	if !holds(t, insts[victim], name) {
		t.Fatal("blipped replica was not repaired after a quorum-suppressed put")
	}

	// Delete during a blip: the victim misses the deletion, revives, and
	// the background repair finishes it — reads can never serve the stale
	// copy from the primary position.
	kills[victim].kill()
	if err := r.Delete(ctx, name); err != nil {
		t.Fatalf("quorum delete with one dead replica: %v", err)
	}
	kills[victim].revive()
	r.Wait()
	if holds(t, insts[victim], name) {
		t.Fatal("blipped replica still holds the entry after a quorum-suppressed delete")
	}
	if _, err := r.Get(ctx, name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after repaired delete: %v", err)
	}
}

// TestRouterReplicationLargerThanTier pins the degenerate configuration
// where the requested factor exceeds the shard count: placement caps at the
// membership, ops work, and bulk counts divide by the effective home-set
// size rather than the nominal factor.
func TestRouterReplicationLargerThanTier(t *testing.T) {
	ctx := context.Background()
	r, _, insts := newReplicatedRouter(t, 2, 4)

	const n = 16
	names := make([]string, n)
	entries := make([]Entry, n)
	for i := range names {
		names[i] = fmt.Sprintf("rep/overshoot/%d", i)
		entries[i] = testEntry(names[i])
	}
	if _, err := r.PutMany(ctx, entries); err != nil {
		t.Fatal(err)
	}
	// Every entry on both (all) shards, counted once.
	for _, inst := range insts {
		if inst.Len(ctx) != n {
			t.Fatalf("shard holds %d entries, want %d (all replicas)", inst.Len(ctx), n)
		}
	}
	if got := r.Len(ctx); got != n {
		t.Fatalf("Len: got %d, want %d", got, n)
	}
	deleted, err := r.DeleteMany(ctx, names)
	if err != nil {
		t.Fatalf("delete-many: %v", err)
	}
	if deleted != n {
		t.Fatalf("delete-many count with rep > shards: got %d, want %d", deleted, n)
	}
}

// TestRouterRepairDoesNotResurrectDeletion pins the repair/delete race
// guard: a background repair spawned by a quorum-suppressed write that
// *preceded* a delete must not merge the entry back after the delete — the
// write's repair window forces the delete to note itself, and the repair
// stands down on the note.
func TestRouterRepairDoesNotResurrectDeletion(t *testing.T) {
	ctx := context.Background()
	r, kills, insts := newReplicatedRouter(t, 4, 3,
		WithRouterWriteConcern(WriteQuorum),
		WithRouterHealth(10000, time.Hour))

	const victim = cloud.SiteID(0)
	name := nameReplicatedOn(t, r, victim, "rep/repairrace")

	// The victim misses the put; a repair is spawned. Before it can land,
	// the victim revives and the entry is deleted.
	kills[victim].kill()
	if _, err := r.Put(ctx, testEntry(name)); err != nil {
		t.Fatalf("quorum put with one dead replica: %v", err)
	}
	kills[victim].revive()
	if err := r.Delete(ctx, name); err != nil {
		t.Fatalf("delete racing the repair: %v", err)
	}
	r.Wait() // repairs drain

	if _, err := r.Get(ctx, name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("repair resurrected the deletion: %v", err)
	}
	for id, inst := range insts {
		if holds(t, inst, name) {
			t.Fatalf("shard %d holds the deleted entry after the repair drained", id)
		}
	}
}
