package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/store"
)

// restartableShard wraps a shard whose backing process can be killed and
// later replaced by a fresh instance recovered from the same data
// directory — the in-process model of `kill -9` plus restart. While dead,
// every operation answers a transport failure wrapping ErrUnavailable.
type restartableShard struct {
	mu    sync.RWMutex
	inner API
	dead  atomic.Bool
}

func (s *restartableShard) kill() { s.dead.Store(true) }

// restart installs the recovered replacement instance and marks the shard
// answering again.
func (s *restartableShard) restart(inner API) {
	s.mu.Lock()
	s.inner = inner
	s.mu.Unlock()
	s.dead.Store(false)
}

func (s *restartableShard) api() (API, error) {
	if s.dead.Load() {
		return nil, errShardDown
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner, nil
}

// DurableSeq forwards Recoverable to the current inner instance. It keeps
// answering while the shard is dead — the router samples it from the
// in-process handle when the breaker opens, before the "process" is gone.
func (s *restartableShard) DurableSeq() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rec, ok := s.inner.(Recoverable); ok {
		return rec.DurableSeq()
	}
	return 0, false
}

func (s *restartableShard) Site() cloud.SiteID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Site()
}

func (s *restartableShard) Create(ctx context.Context, e Entry) (Entry, error) {
	api, err := s.api()
	if err != nil {
		return Entry{}, err
	}
	return api.Create(ctx, e)
}

func (s *restartableShard) Put(ctx context.Context, e Entry) (Entry, error) {
	api, err := s.api()
	if err != nil {
		return Entry{}, err
	}
	return api.Put(ctx, e)
}

func (s *restartableShard) Get(ctx context.Context, name string) (Entry, error) {
	api, err := s.api()
	if err != nil {
		return Entry{}, err
	}
	return api.Get(ctx, name)
}

func (s *restartableShard) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	api, err := s.api()
	if err != nil {
		return Entry{}, err
	}
	return api.AddLocation(ctx, name, loc)
}

func (s *restartableShard) Delete(ctx context.Context, name string) error {
	api, err := s.api()
	if err != nil {
		return err
	}
	return api.Delete(ctx, name)
}

func (s *restartableShard) Names(ctx context.Context) []string {
	api, err := s.api()
	if err != nil {
		return nil
	}
	return api.Names(ctx)
}

func (s *restartableShard) Entries(ctx context.Context) ([]Entry, error) {
	api, err := s.api()
	if err != nil {
		return nil, err
	}
	return api.Entries(ctx)
}

func (s *restartableShard) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	api, err := s.api()
	if err != nil {
		return nil, err
	}
	return api.GetMany(ctx, names)
}

func (s *restartableShard) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	api, err := s.api()
	if err != nil {
		return nil, err
	}
	return api.PutMany(ctx, entries)
}

func (s *restartableShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	api, err := s.api()
	if err != nil {
		return 0, err
	}
	return api.DeleteMany(ctx, names)
}

func (s *restartableShard) Merge(ctx context.Context, entries []Entry) (int, error) {
	api, err := s.api()
	if err != nil {
		return 0, err
	}
	return api.Merge(ctx, entries)
}

func (s *restartableShard) Len(ctx context.Context) int {
	api, err := s.api()
	if err != nil {
		return 0
	}
	return api.Len(ctx)
}

// openDurableShard opens a persistent instance over dir with the given
// fsync policy.
func openDurableShard(t *testing.T, site cloud.SiteID, dir string, opts ...store.Option) *Instance {
	t.Helper()
	inst, err := OpenInstance(site, memcache.New(memcache.Config{}), dir, opts)
	if err != nil {
		t.Fatalf("OpenInstance(%s): %v", dir, err)
	}
	return inst
}

func TestInstanceStorageRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	inst := openDurableShard(t, 3, dir)
	if _, ok := inst.DurableSeq(); !ok {
		t.Fatal("DurableSeq() not ok for a persistent instance")
	}

	for i := 0; i < 5; i++ {
		if _, err := inst.Create(ctx, NewEntry(fmt.Sprintf("f/%d", i), 100, "p", Location{Site: 3, Node: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inst.AddLocation(ctx, "f/1", Location{Site: 3, Node: 9}); err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(ctx, "f/4"); err != nil {
		t.Fatal(err)
	}
	seq, _ := inst.DurableSeq()
	if err := inst.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := openDurableShard(t, 3, dir)
	defer re.Close()
	if got, _ := re.DurableSeq(); got != seq {
		t.Errorf("recovered DurableSeq = %d, want %d", got, seq)
	}
	if n := re.Len(ctx); n != 4 {
		t.Errorf("recovered Len = %d, want 4", n)
	}
	e, err := re.Get(ctx, "f/1")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Locations) != 2 {
		t.Errorf("f/1 recovered with %d locations, want 2", len(e.Locations))
	}
	if _, err := re.Get(ctx, "f/4"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted f/4 resurrected by recovery: %v", err)
	}
}

// TestInstanceCloseLosslessRelaxedFsync pins the close-path fix at the
// registry level: with FsyncNever nothing on the write path syncs, yet
// Close must flush and fsync so a clean shutdown loses nothing.
func TestInstanceCloseLosslessRelaxedFsync(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	inst := openDurableShard(t, 3, dir, store.WithFsync(store.FsyncNever))
	for i := 0; i < 50; i++ {
		if _, err := inst.Create(ctx, NewEntry(fmt.Sprintf("f/%d", i), 100, "p", Location{Site: 3, Node: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if st := inst.Storage().LogStats(); st.Syncs != 0 {
		t.Fatalf("FsyncNever write path issued %d syncs, want 0", st.Syncs)
	}
	if err := inst.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := inst.Storage().LogStats(); st.Syncs == 0 {
		t.Error("Close did not fsync the log")
	}
	if _, err := inst.Put(ctx, NewEntry("late", 1, "p", Location{Site: 3, Node: 1})); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Put after Close = %v, want store.ErrClosed", err)
	}

	re := openDurableShard(t, 3, dir, store.WithFsync(store.FsyncNever))
	defer re.Close()
	if n := re.Len(ctx); n != 50 {
		t.Errorf("reopen after relaxed-fsync Close: Len = %d, want 50", n)
	}
}

func TestNewInstancePanicsOnStorageFailure(t *testing.T) {
	// A regular file where the data directory should go makes store.Open
	// fail; NewInstance must refuse to construct a half-open instance.
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewInstance with failing WithStorage did not panic")
		}
	}()
	NewInstance(3, memcache.New(memcache.Config{}), WithStorage(filepath.Join(path, "sub")))
}

// newDurableRouter builds a replicated router over restartable persistent
// shards, one data subdirectory per shard.
func newDurableRouter(t *testing.T, n, rep int, dir string) (*Router, []*restartableShard, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	shards := make([]*restartableShard, n)
	apis := make([]API, n)
	for i := range apis {
		inst := openDurableShard(t, 7, filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		t.Cleanup(func() { inst.Close() })
		shards[i] = &restartableShard{inner: inst}
		apis[i] = shards[i]
	}
	r, err := NewRouter(7, apis,
		WithRouterReplication(rep),
		WithRouterHealth(2, 10*time.Millisecond),
		WithRouterMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, shards, reg
}

// TestRouterDeltaRepairAfterRestart is the recovery story end to end: a
// persistent shard is killed, the tier keeps writing and deleting around
// it, the shard restarts from its own data directory, and the router
// repairs it with a delta — not a full sweep — after which the shard serves
// its range from local state: pre-outage entries recovered from disk,
// outage writes merged in, outage deletions honoured.
func TestRouterDeltaRepairAfterRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r, shards, reg := newDurableRouter(t, 4, 2, dir)
	const victim = cloud.SiteID(2)

	// Pick victim-primary names to exercise every delta case, then preload
	// them along with background entries.
	victimNames := namesWithPrimary(t, r, victim, "pre", 3)
	preload := make([]Entry, 0, 51)
	seen := make(map[string]bool, 3)
	for _, name := range victimNames {
		seen[name] = true
		preload = append(preload, NewEntry(name, 100, "p", Location{Site: 7, Node: 1}))
	}
	for i := 0; i < 48; i++ {
		if name := fmt.Sprintf("pre/%d", i); !seen[name] {
			preload = append(preload, NewEntry(name, 100, "p", Location{Site: 7, Node: 1}))
		}
	}
	if _, err := r.PutMany(ctx, preload); err != nil {
		t.Fatal(err)
	}
	toDelete, toUpdate := victimNames[0], victimNames[1]

	// Kill the shard; the breaker opens and samples its durable seq.
	shards[victim].kill()
	r.MarkShardDown(victim)

	// The tier keeps serving: new entries, an update and a deletion — all
	// routed around the dead shard, all noted as the outage delta.
	for i := 0; i < 16; i++ {
		if _, err := r.Create(ctx, NewEntry(fmt.Sprintf("during/%d", i), 100, "p", Location{Site: 7, Node: 2})); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	}
	if _, err := r.AddLocation(ctx, toUpdate, Location{Site: 7, Node: 9}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(ctx, toDelete); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh instance recovers the shard's pre-outage state from
	// its data directory, and the router runs the delta repair.
	recovered := openDurableShard(t, 7, filepath.Join(dir, fmt.Sprintf("shard-%d", victim)))
	t.Cleanup(func() { recovered.Close() })
	if seq, ok := recovered.DurableSeq(); !ok || seq == 0 {
		t.Fatalf("restarted shard recovered nothing (seq %d, ok %v)", seq, ok)
	}
	shards[victim].restart(recovered)
	r.MarkShardUp(victim)
	r.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["router_delta_repairs_total"]; got != 1 {
		t.Errorf("router_delta_repairs_total = %d, want 1", got)
	}
	if got := snap.Counters["router_sweeps_total"]; got != 0 {
		t.Errorf("router_sweeps_total = %d, want 0 (recovery must not fall back to a full sweep)", got)
	}
	// Repair traffic is bounded by the outage delta (16 creates + 1 update),
	// nowhere near the full tier (48 preloaded x 2 replicas).
	if got := snap.Counters["router_repaired_entries_total"]; got > 17 {
		t.Errorf("router_repaired_entries_total = %d, want <= 17 (delta, not full resync)", got)
	}

	// The restarted shard answers from local state, queried directly.
	if _, err := recovered.Get(ctx, toUpdate); err != nil {
		t.Errorf("restarted shard lost recovered entry %q: %v", toUpdate, err)
	}
	if _, err := recovered.Get(ctx, toDelete); !errors.Is(err, ErrNotFound) {
		t.Errorf("outage deletion of %q not applied to restarted shard: %v", toDelete, err)
	}
	e, err := recovered.Get(ctx, victimNames[2])
	if err != nil {
		t.Errorf("restarted shard lost recovered entry %q: %v", victimNames[2], err)
	} else if len(e.Locations) != 1 {
		t.Errorf("%q recovered with %d locations, want 1", victimNames[2], len(e.Locations))
	}
	if ue, err := recovered.Get(ctx, toUpdate); err == nil && len(ue.Locations) != 2 {
		t.Errorf("outage update of %q not repaired: %d locations, want 2", toUpdate, len(ue.Locations))
	}

	// And the tier as a whole converged: every live entry readable, the
	// deleted one gone.
	for i := 0; i < 16; i++ {
		if _, err := r.Get(ctx, fmt.Sprintf("during/%d", i)); err != nil {
			t.Errorf("outage write during/%d lost: %v", i, err)
		}
	}
	if _, err := r.Get(ctx, toDelete); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted %q still readable through the router: %v", toDelete, err)
	}
}

// TestRouterFullSweepWhenRecoveryLosesState: a shard that restarts *empty*
// (its data directory gone — the disk died with the process) reports a
// lower sequence number than it went down with; the delta is unsound and
// the router must fall back to the full re-sync sweep.
func TestRouterFullSweepWhenRecoveryLosesState(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r, shards, reg := newDurableRouter(t, 4, 2, dir)
	const victim = cloud.SiteID(1)

	var preload []Entry
	for i := 0; i < 32; i++ {
		preload = append(preload, NewEntry(fmt.Sprintf("pre/%d", i), 100, "p", Location{Site: 7, Node: 1}))
	}
	if _, err := r.PutMany(ctx, preload); err != nil {
		t.Fatal(err)
	}

	shards[victim].kill()
	r.MarkShardDown(victim)
	if _, err := r.Create(ctx, NewEntry("during/0", 100, "p", Location{Site: 7, Node: 2})); err != nil {
		t.Fatal(err)
	}

	// Restart from a brand-new directory: everything is lost.
	empty := openDurableShard(t, 7, filepath.Join(dir, "replacement-disk"))
	t.Cleanup(func() { empty.Close() })
	shards[victim].restart(empty)
	r.MarkShardUp(victim)
	r.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["router_delta_repairs_total"]; got != 0 {
		t.Errorf("router_delta_repairs_total = %d, want 0 (lost state must not take the delta path)", got)
	}
	if got := snap.Counters["router_sweeps_total"]; got == 0 {
		t.Error("no full sweep ran for a shard that lost its state")
	}
	// The sweep made the empty shard whole again.
	for i := 0; i < 32; i++ {
		if _, err := r.Get(ctx, fmt.Sprintf("pre/%d", i)); err != nil {
			t.Errorf("pre/%d unreadable after recovery sweep: %v", i, err)
		}
	}
}

// TestRouterFullSweepForMemoryShards pins the compatibility contract:
// memory-only shards (no Recoverable) keep the pre-existing full-sweep
// recovery exactly as before, and the delta counter stays untouched.
func TestRouterFullSweepForMemoryShards(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	r, kills, _ := newReplicatedRouter(t, 4, 2, WithRouterMetrics(reg))
	if _, err := r.Create(ctx, NewEntry("a", 100, "p", Location{Site: 7, Node: 1})); err != nil {
		t.Fatal(err)
	}
	kills[2].kill()
	r.MarkShardDown(2)
	kills[2].revive()
	r.MarkShardUp(2)
	r.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["router_delta_repairs_total"]; got != 0 {
		t.Errorf("router_delta_repairs_total = %d, want 0 for memory-only shards", got)
	}
	if got := snap.Counters["router_resync_sweeps_total"]; got != 1 {
		t.Errorf("router_resync_sweeps_total = %d, want 1", got)
	}
	if got := snap.Counters["router_sweeps_total"]; got == 0 {
		t.Error("memory-only recovery did not run the full sweep")
	}
}
