package registry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
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
		refs := r.replicaSet(name)
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
		refs := r.replicaSet(name)
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

// TestRouterReplicatedKillUnderLoad kills a shard of an R=2 tier while eight
// callers create, add locations and read. No read fails. A write errs only if
// it was in flight before the breaker opened, which bounds the unacknowledged
// writes by the callers. Every acknowledged create reads back with the shard
// still dead.
func TestRouterReplicatedKillUnderLoad(t *testing.T) {
	ctx := context.Background()
	r, kills, _ := newReplicatedRouter(t, 4, 2)
	const (
		callers = 8
		ops     = 4096
		preload = 256
		victim  = 2
	)
	entries := make([]Entry, preload)
	for i := range entries {
		entries[i] = testEntry(fmt.Sprintf("load/pre/%d", i))
	}
	if _, err := r.PutMany(ctx, entries); err != nil {
		t.Fatal(err)
	}
	// The caller that kills the shard reads one of its names at once, before
	// the breaker can have opened: that read has to fail over.
	first := namesWithPrimary(t, r, victim, "load/pre", 1)[0]

	var (
		seq       atomic.Int64
		readFails atomic.Int64
		unacked   atomic.Int64
		mu        sync.Mutex
		acked     []string
		wg        sync.WaitGroup
	)
	read := func(name string) {
		if _, err := r.Get(ctx, name); err != nil {
			readFails.Add(1)
		}
	}
	// write tallies a write the dead shard may have refused.
	write := func(name string, err error) {
		if errors.Is(err, ErrUnavailable) {
			unacked.Add(1)
		} else if err != nil {
			t.Errorf("write of %s: %v", name, err)
		}
	}
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := seq.Add(1); i <= ops; i = seq.Add(1) {
				if i == ops/2 {
					kills[victim].kill()
					read(first)
				}
				pre := fmt.Sprintf("load/pre/%d", i%preload)
				switch i % 8 {
				case 0, 1:
					name := fmt.Sprintf("load/new/%d", i)
					_, err := r.Create(ctx, testEntry(name))
					if err == nil {
						mu.Lock()
						acked = append(acked, name)
						mu.Unlock()
					}
					write(name, err)
				case 2:
					_, err := r.AddLocation(ctx, pre, Location{Site: 7, Node: cloud.NodeID(i % 16)})
					write(pre, err)
				default:
					read(pre)
				}
			}
		}()
	}
	wg.Wait()

	if n := readFails.Load(); n > 0 {
		t.Errorf("%d reads failed with a replica of every key alive", n)
	}
	if n := unacked.Load(); n > 2*callers {
		t.Errorf("%d writes went unacknowledged, want at most %d: the breaker did not contain the dead shard", n, 2*callers)
	}
	if down := r.DownShards(); len(down) != 1 || down[0] != victim {
		t.Errorf("down shards %v, want the breaker of shard %d open", down, victim)
	}
	got, err := r.GetMany(ctx, acked)
	if err != nil {
		t.Fatalf("reading back the acknowledged creates: %v", err)
	}
	if len(got) != len(acked) {
		t.Fatalf("lost acknowledged creates: read back %d of %d", len(got), len(acked))
	}
	t.Logf("%d creates acknowledged, %d writes unacknowledged", len(acked), unacked.Load())
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
		refs := r.replicaSet(name)
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

// TestRouterWriteConcernQuorum pins the write concern under an unmarked
// replica failure. WriteAll is the one concern left (a quorum concern is not
// offered): every replica must acknowledge, so a write that one dead replica
// missed surfaces ErrUnavailable.
func TestRouterWriteConcernQuorum(t *testing.T) {
	ctx := context.Background()
	t.Run(WriteAll.String(), func(t *testing.T) {
		// Threshold high enough that the dying replica is never marked down
		// during the test: the failure stays a per-write surprise.
		r, kills, _ := newReplicatedRouter(t, 4, 3,
			WithRouterWriteConcern(WriteAll),
			WithRouterHealth(10000, time.Hour))

		const victim = cloud.SiteID(2)
		// A name replicated on the victim, but not primaried there — the
		// write succeeds at the primary either way.
		var name string
		for i := 0; name == "" && i < 100000; i++ {
			cand := fmt.Sprintf("rep/concern/%d", i)
			refs := r.replicaSet(cand)
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
		if _, err := r.Put(ctx, testEntry(name)); err == nil || !errors.Is(err, ErrUnavailable) {
			t.Fatalf("put with a dead replica: want ErrUnavailable, got %v", err)
		}
	})
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

// nameReplicatedOn returns a name whose replica set includes the given
// shard.
func nameReplicatedOn(t *testing.T, r *Router, shard cloud.SiteID, prefix string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s/%d", prefix, i)
		refs := r.replicaSet(name)
		for _, ref := range refs {
			if ref.id == shard {
				return name
			}
		}
	}
	t.Fatalf("no name replicates on shard %d", shard)
	return ""
}

// TestRouterFailedReplicaDeleteNotResurrectedByResync pins the pre-breaker
// window: a delete whose replica failed *before* any breaker opened fails,
// but the replicas it reached stay deleted, and the deletion must not be
// resurrected when that shard later cycles through a down/up re-sync — the
// deletion note is recorded on the failed write itself, not on breaker
// state.
func TestRouterFailedReplicaDeleteNotResurrectedByResync(t *testing.T) {
	ctx := context.Background()
	// Threshold high enough that nothing is ever marked down automatically:
	// the replica failure stays a one-off surprise.
	r, kills, insts := newReplicatedRouter(t, 4, 3, WithRouterHealth(10000, time.Hour))

	const victim = cloud.SiteID(1)
	name := nameReplicatedOn(t, r, victim, "rep/prebreaker")
	if _, err := r.Create(ctx, testEntry(name)); err != nil {
		t.Fatal(err)
	}

	kills[victim].kill()
	if err := r.Delete(ctx, name); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("delete with one dead replica: want ErrUnavailable, got %v", err)
	}

	// The shard cycles down and back up — stale copy in hand — and the
	// re-sync sweep runs. The deletion must stand everywhere.
	r.MarkShardDown(victim)
	kills[victim].revive()
	r.MarkShardUp(victim)
	r.Wait()

	if _, err := r.Get(ctx, name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete resurrected by resync: %v", err)
	}
	for id, inst := range insts {
		if holds(t, inst, name) {
			t.Fatalf("shard %d still holds the deleted entry after resync", id)
		}
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

// TestUnavailablePlaceholderKeepsItsSlot builds the tier a client builds over
// a partly reachable replicated site: an undialable shard keeps its slot as a
// placeholder, marked down. Every key is then served by its healthy
// replicas, and the placeholder fails each call with ErrUnavailable and
// answers the best-effort ones with nothing.
func TestUnavailablePlaceholderKeepsItsSlot(t *testing.T) {
	u := Unavailable(7)
	shards := []API{NewInstance(7, memcache.New(memcache.Config{})), u, NewInstance(7, memcache.New(memcache.Config{}))}
	r, err := NewRouter(7, shards, WithRouterReplication(2), WithRouterMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.MarkShardDown(1)
	if r.Site() != 7 || r.Replication() != 2 {
		t.Fatalf("router site %d, replication %d; want 7 and 2", r.Site(), r.Replication())
	}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("slot/%d", i)
		if _, err := r.Create(tctx, NewEntry(name, 1, "p", Location{Site: 7, Node: 1})); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := r.Get(tctx, name); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}
	if n := r.Len(tctx); n != 16 {
		t.Errorf("Len = %d, want 16", n)
	}

	e := NewEntry("x", 1, "p", Location{Site: 7, Node: 1})
	calls := map[string]error{}
	_, calls["create"] = u.Create(tctx, e)
	_, calls["put"] = u.Put(tctx, e)
	_, calls["get"] = u.Get(tctx, "x")
	_, calls["add-location"] = u.AddLocation(tctx, "x", Location{Site: 7, Node: 2})
	calls["delete"] = u.Delete(tctx, "x")
	_, calls["entries"] = u.Entries(tctx)
	_, calls["get-many"] = u.GetMany(tctx, []string{"x"})
	_, calls["put-many"] = u.PutMany(tctx, []Entry{e})
	_, calls["delete-many"] = u.DeleteMany(tctx, []string{"x"})
	_, calls["merge"] = u.Merge(tctx, []Entry{e})
	for op, err := range calls {
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("placeholder %s = %v, want ErrUnavailable", op, err)
		}
	}
	if u.Site() != 7 || u.Len(tctx) != 0 {
		t.Errorf("placeholder answers site %d, len %d; want 7, 0", u.Site(), u.Len(tctx))
	}
}

// createFault wraps a shard whose next Create fails with a transport error
// while armed, as a connection dropped under one call does.
type createFault struct {
	API
	armed atomic.Bool
}

func (f *createFault) Create(ctx context.Context, e Entry) (Entry, error) {
	if f.armed.CompareAndSwap(true, false) {
		return Entry{}, errShardDown
	}
	return f.API.Create(ctx, e)
}

// TestRouterCreateLeadFailsOverOnlyOnUnavailable: a create whose first
// replica fails in transport is led by the next replica, and then reaches
// the first one too; a create whose first replica answers ErrExists fails
// with it, and no other replica is asked to create the name.
func TestRouterCreateLeadFailsOverOnlyOnUnavailable(t *testing.T) {
	ctx := context.Background()
	faults := make([]*createFault, 3)
	r, insts := newWrappedTier(t, func(id cloud.SiteID, inst *Instance) API {
		faults[id] = &createFault{API: inst}
		return faults[id]
	})

	dropped := primaryOn(r, 0, "lead/dropped")
	faults[0].armed.Store(true)
	if _, err := r.Create(ctx, testEntry(dropped)); err != nil {
		t.Fatalf("create whose first replica dropped the call: %v", err)
	}
	for _, home := range r.placer.Homes(dropped, 2) {
		if !holds(t, insts[home], dropped) {
			t.Errorf("shard %d, a home of %q, does not hold it", home, dropped)
		}
	}

	taken := primaryOn(r, 1, "lead/taken")
	if _, err := insts[1].Create(ctx, testEntry(taken)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(ctx, testEntry(taken)); !errors.Is(err, ErrExists) {
		t.Fatalf("create of a name its first replica holds = %v, want ErrExists", err)
	}
	for _, home := range r.placer.Homes(taken, 2)[1:] {
		if holds(t, insts[home], taken) {
			t.Errorf("shard %d created %q after its first replica answered ErrExists", home, taken)
		}
	}
}

// TestRouterGetManyFailsOverPerName keeps the breaker shut, so every round
// of a GetMany reaches the dead shards: a name whose first replica is dead
// is read at its next one, and a name whose every replica is dead is
// reported, wrapping ErrUnavailable.
func TestRouterGetManyFailsOverPerName(t *testing.T) {
	ctx := context.Background()
	r, kills, _ := newReplicatedRouter(t, 4, 2, WithRouterHealth(1<<30, time.Hour), WithRouterMetrics(nil))
	const n = 200
	names := make([]string, n)
	entries := make([]Entry, n)
	var orphan string // homed on shards 2 and 3 alone
	for i := range names {
		names[i] = fmt.Sprintf("rep/getmany/%d", i)
		entries[i] = testEntry(names[i])
		if homes := r.placer.Homes(names[i], 2); orphan == "" && slices.Contains(homes, 2) && slices.Contains(homes, 3) {
			orphan = names[i]
		}
	}
	if orphan == "" {
		t.Fatal("no name is homed on shards 2 and 3")
	}
	if _, err := r.PutMany(ctx, entries); err != nil {
		t.Fatal(err)
	}

	kills[2].kill()
	got, err := r.GetMany(ctx, names)
	if err != nil || len(got) != n {
		t.Fatalf("get-many with shard 2 dead: %d of %d entries, %v", len(got), n, err)
	}

	kills[3].kill()
	_, err = r.GetMany(ctx, names)
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(fmt.Sprint(err), orphan) {
		t.Fatalf("get-many with both homes of %q dead = %v, want an error naming it, wrapping ErrUnavailable", orphan, err)
	}
}
