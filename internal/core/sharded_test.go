package core

import (
	"fmt"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// newShardedCountingFabric builds a 4-site fabric where every site is a
// registry.Router over nShards counting shards, so tests can assert how many
// calls each individual shard of a sharded site receives.
func newShardedCountingFabric(t *testing.T, nShards int) (*Fabric, map[cloud.SiteID][]*countingAPI) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
	counters := make(map[cloud.SiteID][]*countingAPI)
	instances := make(map[cloud.SiteID]registry.API)
	for _, s := range topo.Sites() {
		shards := make([]registry.API, nShards)
		for i := range shards {
			c := newCountingAPI(registry.NewInstance(s.ID, memcache.New(memcache.Config{})))
			counters[s.ID] = append(counters[s.ID], c)
			shards[i] = c
		}
		router, err := registry.NewRouter(s.ID, shards, registry.WithRouterMetrics(nil))
		if err != nil {
			t.Fatal(err)
		}
		instances[s.ID] = router
	}
	f := NewFabric(topo, lat, WithCacheCapacity(0, 0), WithInstances(instances))
	return f, counters
}

// TestSyncAgentStaysBatchedPerShard asserts that the replicated strategy's
// synchronization agent keeps its bulk contract through a sharded site: one
// round costs at most one GetMany/Merge/DeleteMany sub-batch per *shard*,
// never a call per entry.
func TestSyncAgentStaysBatchedPerShard(t *testing.T) {
	const nShards = 3
	f, counters := newShardedCountingFabric(t, nShards)
	svc, err := NewReplicated(f, 0, WithSyncInterval(time.Hour)) // manual rounds only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 40
	for i := 0; i < n; i++ {
		if _, err := svc.Create(tctx, 1, testEntry(fmt.Sprintf("shard-batch-%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil { // round 1: propagate the creates
		t.Fatal(err)
	}

	for site, shards := range counters {
		for i, c := range shards {
			if got := c.Calls("GetMany"); got > 1 {
				t.Errorf("site %d shard %d: GetMany called %d times in one round, want at most 1", site, i, got)
			}
			if got := c.Calls("Merge"); got > 1 {
				t.Errorf("site %d shard %d: Merge called %d times in one round, want at most 1", site, i, got)
			}
			if got := c.Calls("Put"); got != 0 {
				t.Errorf("site %d shard %d: %d per-entry Puts; propagation must stay batched", site, i, got)
			}
		}
	}
	// Every site converged on the full entry set.
	for _, site := range f.Sites() {
		inst, _ := f.Instance(site)
		if got := inst.Len(tctx); got != n {
			t.Errorf("site %d holds %d entries after the round, want %d", site, got, n)
		}
	}

	for i := 0; i < n; i++ {
		if err := svc.Delete(tctx, 1, fmt.Sprintf("shard-batch-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil { // round 2: propagate the deletes
		t.Fatal(err)
	}
	for site, shards := range counters {
		for i, c := range shards {
			if got := c.Calls("DeleteMany"); got > 1 {
				t.Errorf("site %d shard %d: DeleteMany called %d times in one round, want at most 1", site, i, got)
			}
			// Per-entry deletes only on the writer site's shards (the client's
			// own n local operations, one per entry, routed by key).
			if site != 1 {
				if got := c.Calls("Delete"); got != 0 {
					t.Errorf("site %d shard %d: %d per-entry Deletes; propagation must use DeleteMany", site, i, got)
				}
			}
		}
	}
}

// TestPropagatorStaysBatchedPerShard asserts the hybrid strategy's lazy
// propagator delivers a flush to a sharded home site as bulk sub-batches:
// at most one Merge and one DeleteMany per shard per flush.
func TestPropagatorStaysBatchedPerShard(t *testing.T) {
	const nShards = 3
	f, counters := newShardedCountingFabric(t, nShards)
	svc, err := NewDecReplicated(f, WithLazyPropagation(time.Hour, 100000)) // manual flush only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Write, from site 0, a pile of entries homed at site 2.
	var names []string
	for i := 0; len(names) < 30; i++ {
		name := fmt.Sprintf("shard-lazy-%d", i)
		if svc.Home(name) != 2 {
			continue
		}
		if _, err := svc.Create(tctx, 0, testEntry(name, 0)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	for i, c := range counters[2] {
		if got := c.Calls("Merge"); got > 1 {
			t.Errorf("home shard %d: Merge called %d times for one flush, want at most 1", i, got)
		}
		if got := c.Calls("Put"); got != 0 {
			t.Errorf("home shard %d: %d per-entry Puts; lazy propagation must stay batched", i, got)
		}
	}

	// Lazy deletes ride the next flush as DeleteMany sub-batches.
	for _, name := range names {
		if err := svc.Delete(tctx, 0, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for i, c := range counters[2] {
		if got := c.Calls("DeleteMany"); got > 1 {
			t.Errorf("home shard %d: DeleteMany called %d times for one flush, want at most 1", i, got)
		}
		if got := c.Calls("Delete"); got != 0 {
			t.Errorf("home shard %d: %d per-entry Deletes; lazy deletions must stay batched", i, got)
		}
	}
}

// TestStrategiesOverShardedFabric drives all four strategies over a fabric
// whose sites are 4-shard routed tiers (site.Config.Shards) and checks the
// basic create → flush → lookup → delete cycle works transparently.
func TestStrategiesOverShardedFabric(t *testing.T) {
	for _, kind := range Strategies {
		t.Run(kind.String(), func(t *testing.T) {
			topo := cloud.Azure4DC()
			lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
			f := NewFabric(topo, lat, WithCacheCapacity(0, 0), WithSite(site.Config{Shards: 4}), WithMetricsRegistry(nil))
			defer f.Close()
			inst, _ := f.Instance(0)
			if r, ok := inst.(*registry.Router); !ok || len(r.Shards()) != 4 {
				t.Fatalf("site 0 serves a %T, want a 4-shard router", inst)
			}
			svc, err := NewService(f, kind)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			const n = 32
			for i := 0; i < n; i++ {
				if _, err := svc.Create(tctx, cloud.SiteID(i%4), testEntry(fmt.Sprintf("sharded-%d", i), cloud.SiteID(i%4))); err != nil {
					t.Fatalf("create %d: %v", i, err)
				}
			}
			if err := svc.Flush(tctx); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("sharded-%d", i)
				if _, err := svc.Lookup(tctx, cloud.SiteID((i+1)%4), name); err != nil {
					t.Fatalf("lookup %q from remote site: %v", name, err)
				}
			}
			for i := 0; i < n; i++ {
				if err := svc.Delete(tctx, cloud.SiteID(i%4), fmt.Sprintf("sharded-%d", i)); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
			}
		})
	}
}

// TestStrategiesOverReplicatedShardedFabric drives all four strategies over
// a fabric whose sites are 4-shard, 2-way replicated routed tiers
// (site.Config.Shards + Replication) and checks the same
// create → flush → lookup → delete cycle works transparently — the
// strategies cannot tell replicated placement from single-home placement.
func TestStrategiesOverReplicatedShardedFabric(t *testing.T) {
	for _, kind := range Strategies {
		t.Run(kind.String(), func(t *testing.T) {
			topo := cloud.Azure4DC()
			lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
			f := NewFabric(topo, lat, WithCacheCapacity(0, 0),
				WithSite(site.Config{Shards: 4, Replication: 2}), WithMetricsRegistry(nil))
			defer f.Close()
			inst, _ := f.Instance(0)
			if r, ok := inst.(*registry.Router); !ok || r.Replication() != 2 {
				t.Fatalf("site 0 serves a %T, want a 2-way replicated router", inst)
			}
			svc, err := NewService(f, kind)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			const n = 32
			for i := 0; i < n; i++ {
				if _, err := svc.Create(tctx, cloud.SiteID(i%4), testEntry(fmt.Sprintf("repl-sharded-%d", i), cloud.SiteID(i%4))); err != nil {
					t.Fatalf("create %d: %v", i, err)
				}
			}
			if err := svc.Flush(tctx); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("repl-sharded-%d", i)
				if _, err := svc.Lookup(tctx, cloud.SiteID((i+1)%4), name); err != nil {
					t.Fatalf("lookup %q from remote site: %v", name, err)
				}
			}
			for i := 0; i < n; i++ {
				if err := svc.Delete(tctx, cloud.SiteID(i%4), fmt.Sprintf("repl-sharded-%d", i)); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
			}
		})
	}
}
