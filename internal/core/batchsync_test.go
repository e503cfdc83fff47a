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
// synchronization agent propagates pending creates as bulk operations: the
// push phase must issue exactly one Merge per site and round, never per-entry
// Puts.
func TestReplicatedAgentUsesBatchCalls(t *testing.T) {
	f, counters := newCountingFabric()
	svc, err := NewReplicated(f, StrategyConfig{SyncInterval: time.Hour}) // manual rounds only
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
}
