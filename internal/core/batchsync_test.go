package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

// countingAPI wraps a registry instance and counts calls per method, so
// tests can assert that the synchronization agents go through the batch API
// rather than per-entry calls.
type countingAPI struct {
	registry.API
	mu    sync.Mutex
	calls map[string]int
}

func newCountingAPI(inner registry.API) *countingAPI {
	return &countingAPI{API: inner, calls: make(map[string]int)}
}

func (c *countingAPI) count(method string) {
	c.mu.Lock()
	c.calls[method]++
	c.mu.Unlock()
}

func (c *countingAPI) Calls(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[method]
}

// Total returns the calls counted over all methods.
func (c *countingAPI) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.calls {
		total += n
	}
	return total
}

func (c *countingAPI) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	c.count("Create")
	return c.API.Create(ctx, e)
}

func (c *countingAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	c.count("Get")
	return c.API.Get(ctx, name)
}

func (c *countingAPI) AddLocation(ctx context.Context, name string, loc registry.Location) (registry.Entry, error) {
	c.count("AddLocation")
	return c.API.AddLocation(ctx, name, loc)
}

func (c *countingAPI) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	c.count("Put")
	return c.API.Put(ctx, e)
}

func (c *countingAPI) Delete(ctx context.Context, name string) error {
	c.count("Delete")
	return c.API.Delete(ctx, name)
}

func (c *countingAPI) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	c.count("GetMany")
	return c.API.GetMany(ctx, names)
}

func (c *countingAPI) PutMany(ctx context.Context, entries []registry.Entry) ([]registry.Entry, error) {
	c.count("PutMany")
	return c.API.PutMany(ctx, entries)
}

func (c *countingAPI) DeleteMany(ctx context.Context, names []string) (int, error) {
	c.count("DeleteMany")
	return c.API.DeleteMany(ctx, names)
}

func (c *countingAPI) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	c.count("Merge")
	return c.API.Merge(ctx, entries)
}

// newCountingFabric builds a 4-site test fabric whose every instance is
// wrapped in a call counter.
func newCountingFabric() (*Fabric, map[cloud.SiteID]*countingAPI) {
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
	counters := make(map[cloud.SiteID]*countingAPI)
	instances := make(map[cloud.SiteID]registry.API)
	for _, s := range topo.Sites() {
		inner := registry.NewInstance(s.ID, memcache.New(memcache.Config{}))
		counters[s.ID] = newCountingAPI(inner)
		instances[s.ID] = counters[s.ID]
	}
	f := NewFabric(topo, lat, WithCacheCapacity(0, 0), WithInstances(instances))
	return f, counters
}

// TestReplicatedAgentUsesBatchCalls asserts the replicated strategy's
// synchronization agent propagates pending creates and deletes as bulk
// operations: the push phase must issue exactly one Merge and one DeleteMany
// per site and round, never per-entry Puts or Deletes.
func TestReplicatedAgentUsesBatchCalls(t *testing.T) {
	f, counters := newCountingFabric()
	svc, err := NewReplicated(f, 0, WithSyncInterval(time.Hour)) // manual rounds only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 25
	for i := 0; i < n; i++ {
		if _, err := svc.Create(tctx, 1, testEntry(fmt.Sprintf("batch-%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush(tctx) // round 1: propagate the creates

	for _, site := range f.Sites() {
		c := counters[site]
		if got := c.Calls("Merge"); got != 1 {
			t.Errorf("site %d: Merge called %d times after create round, want 1", site, got)
		}
		if got := c.Calls("Put"); got != 0 {
			t.Errorf("site %d: %d per-entry Puts issued; creates must travel as one Merge batch", site, got)
		}
	}
	// The only per-entry Creates are the n the writer itself issued locally.
	if got := counters[1].Calls("Create"); got != n {
		t.Errorf("writer site saw %d Creates, want %d", got, n)
	}

	for i := 0; i < n; i++ {
		if err := svc.Delete(tctx, 1, fmt.Sprintf("batch-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush(tctx) // round 2: propagate the deletes

	for _, site := range f.Sites() {
		c := counters[site]
		if got := c.Calls("DeleteMany"); got != 1 {
			t.Errorf("site %d: DeleteMany called %d times after delete round, want 1", site, got)
		}
		// The writer's own n local deletes are the only per-entry calls.
		want := 0
		if site == 1 {
			want = n
		}
		if got := c.Calls("Delete"); got != want {
			t.Errorf("site %d: %d per-entry Deletes, want %d (propagation must use DeleteMany)", site, got, want)
		}
	}
	for _, site := range f.Sites() {
		inst, _ := f.Instance(site)
		if inst.Len(tctx) != 0 {
			t.Errorf("site %d still holds %d entries after propagated deletes", site, inst.Len(tctx))
		}
	}
}

// TestPropagatorOrderWithinFlushWindow asserts that when a name is deleted
// and re-created (or created and deleted) within one flush window, the
// destination converges on the *last* local operation: within a batch the
// newer enqueue supersedes the older one for the same name.
func TestPropagatorOrderWithinFlushWindow(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 1000)
	defer p.Close()
	inst, _ := f.Instance(2)

	// delete → re-create: the entry must survive the flush.
	old := testEntry("cycle", 0)
	p.Enqueue(0, 2, old)
	p.FlushNow(tctx)
	p.EnqueueDelete(0, 2, "cycle")
	p.Enqueue(0, 2, testEntry("cycle", 0))
	p.FlushNow(tctx)
	if !holds(t, inst, "cycle") {
		t.Error("entry deleted and re-created in one window vanished at the destination")
	}

	// create → delete: the entry must be gone after the flush.
	p.Enqueue(0, 2, testEntry("doomed", 0))
	p.EnqueueDelete(0, 2, "doomed")
	p.FlushNow(tctx)
	if holds(t, inst, "doomed") {
		t.Error("entry created and deleted in one window survived at the destination")
	}
}

// TestDecReplicatedLazyDeleteUsesBatch asserts that in lazy mode the hybrid
// strategy's deletions reach the home site through the propagator as a
// DeleteMany batch, not as eager per-entry calls.
func TestDecReplicatedLazyDeleteUsesBatch(t *testing.T) {
	f, counters := newCountingFabric()
	svc, err := NewDecReplicated(f, WithLazyPropagation(time.Hour, 1000)) // manual flush only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Collect names homed at site 2, written from site 0.
	var names []string
	for i := 0; len(names) < 10; i++ {
		name := fmt.Sprintf("lazy-del-%d", i)
		if svc.Home(name) == 2 {
			names = append(names, name)
		}
	}
	for _, name := range names {
		if _, err := svc.Create(tctx, 0, testEntry(name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if got := counters[2].Calls("Merge"); got != 1 {
		t.Errorf("home site: Merge called %d times, want 1 (lazy creates travel as one batch)", got)
	}

	for _, name := range names {
		if err := svc.Delete(tctx, 0, name); err != nil {
			t.Fatal(err)
		}
	}
	// Before the flush the home copies still exist (eventual consistency)...
	if got := counters[2].Calls("Delete"); got != 0 {
		t.Errorf("home site saw %d eager Deletes in lazy mode, want 0", got)
	}
	home, _ := f.Instance(2)
	if home.Len(tctx) != len(names) {
		t.Errorf("home holds %d entries before flush, want %d", home.Len(tctx), len(names))
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	// ...after it they are gone, removed by exactly one DeleteMany.
	if got := counters[2].Calls("DeleteMany"); got != 1 {
		t.Errorf("home site: DeleteMany called %d times, want 1", got)
	}
	if got := counters[2].Calls("Delete"); got != 0 {
		t.Errorf("home site saw %d per-entry Deletes, want 0", got)
	}
	if home.Len(tctx) != 0 {
		t.Errorf("home still holds %d entries after flushed deletes", home.Len(tctx))
	}
}
