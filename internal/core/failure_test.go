package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/dht"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// This file exercises the failure and elasticity scenarios the paper calls
// out: losing one of a site's registry servers while the site keeps serving
// (the availability §III-B gets from the managed cache's replica, which
// geomds gets from R-way shard replication) and metadata servers being added
// to or removed from the deployment, "a common cloud scenario" (§VII-B,
// §VIII).

// newReplicatedFabric builds a test fabric whose sites are 3-shard, 2-way
// replicated tiers, exposing every site's router and shard caches (indexed
// by shard ID) for fault injection.
func newReplicatedFabric(t *testing.T) (*Fabric, map[cloud.SiteID]*registry.Router, map[cloud.SiteID][]*memcache.Cache) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(4), latency.WithSleeper(func(time.Duration) {}))
	caches := make(map[cloud.SiteID][]*memcache.Cache)
	fabric := NewFabric(topo, lat, WithMetricsRegistry(nil),
		WithSite(site.Config{Shards: 3, Replication: 2}),
		WithCacheFactory(func(s cloud.SiteID) registry.Store {
			c := memcache.New(memcache.Config{})
			caches[s] = append(caches[s], c)
			return c
		}))
	t.Cleanup(func() { fabric.Close() })
	routers := make(map[cloud.SiteID]*registry.Router)
	for _, s := range fabric.Sites() {
		inst, _ := fabric.Instance(s)
		routers[s] = inst.(*registry.Router)
	}
	return fabric, routers, caches
}

func TestCentralizedSurvivesShardFailure(t *testing.T) {
	fabric, routers, caches := newReplicatedFabric(t)
	svc, err := NewCentralized(fabric, StrategyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for i := 0; i < 50; i++ {
		if _, err := svc.Create(tctx, cloud.SiteID(i%4), testEntry(fmt.Sprintf("pre-%d", i), cloud.SiteID(i%4))); err != nil {
			t.Fatalf("Create before the failure: %v", err)
		}
	}
	// One of the central site's shards dies; its breaker opens. The stopped
	// cache fails every operation, so a read or write still routed to it
	// would surface below.
	caches[0][1].Stop()
	routers[0].MarkShardDown(1)

	for i := 0; i < 50; i++ {
		if _, err := svc.Lookup(tctx, cloud.SiteID(i%4), fmt.Sprintf("pre-%d", i)); err != nil {
			t.Errorf("entry pre-%d lost with the shard: %v", i, err)
		}
	}
	// The service keeps accepting new entries on the surviving shards.
	for i := 0; i < 20; i++ {
		if _, err := svc.Create(tctx, 1, testEntry(fmt.Sprintf("post-%d", i), 1)); err != nil {
			t.Errorf("Create after the failure: %v", err)
		}
	}
}

func TestDecReplicatedShardFailoverUnderConcurrentLoad(t *testing.T) {
	fabric, routers, _ := newReplicatedFabric(t)
	svc, err := NewDecReplicated(fabric, StrategyConfig{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const perWorker = 40
	var wg sync.WaitGroup
	errCh := make(chan error, 8*perWorker)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := cloud.SiteID(w % 4)
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("ha-load/w%d/f%d", w, i)
				if _, err := svc.Create(tctx, site, testEntry(name, site)); err != nil {
					errCh <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if _, err := svc.Lookup(tctx, site, name); err != nil {
					errCh <- fmt.Errorf("lookup %s: %w", name, err)
					return
				}
			}
		}(w)
	}
	// Take a shard out of two sites while the load is running: operations
	// already routed to it finish, later ones use the surviving replicas.
	routers[1].MarkShardDown(0)
	routers[3].MarkShardDown(2)
	if len(routers[1].DownShards()) != 1 || len(routers[3].DownShards()) != 1 {
		t.Error("open breakers not recorded")
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestDecentralizedSiteArrivalMovesFewPlacements(t *testing.T) {
	// A new datacenter joins a ring-placed deployment: only a bounded share
	// of names change home (the elasticity argument for consistent hashing).
	names := make([]string, 2000)
	for i := range names {
		names[i] = fmt.Sprintf("arrival/file-%05d", i)
	}
	before := dht.NewRingPlacer([]cloud.SiteID{0, 1, 2}, 64)
	after := dht.NewRingPlacer([]cloud.SiteID{0, 1, 2, 3}, 64)
	moved, frac := dht.Moved(before, after, names)
	if moved == 0 {
		t.Error("adding a site should move some placements")
	}
	if frac > 0.5 {
		t.Errorf("site arrival moved %.0f%% of placements; want a bounded share", frac*100)
	}
}

func TestReplicatedAgentSiteFailureIsIsolated(t *testing.T) {
	// Stopping the cache behind a non-agent site must not wedge the agent:
	// sync rounds keep propagating between the surviving sites, and Flush
	// says which site it could not update instead of reporting success.
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(6), latency.WithSleeper(func(time.Duration) {}))
	caches := make(map[cloud.SiteID]*memcache.Cache)
	fabric := NewFabric(topo, lat, WithCacheFactory(func(site cloud.SiteID) registry.Store {
		c := memcache.New(memcache.Config{})
		caches[site] = c
		return c
	}))
	svc, err := NewReplicated(fabric, StrategyConfig{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if _, err := svc.Create(tctx, 1, testEntry("before-crash", 1)); err != nil {
		t.Fatal(err)
	}
	caches[3].Stop() // site 3's registry dies
	var oe *OpError
	if err := svc.Flush(tctx); !errors.As(err, &oe) || oe.Op != "flush" || !strings.Contains(err.Error(), "site 3") {
		t.Fatalf("Flush with a dead site = %v, want a flush *OpError naming site 3", err)
	}
	// The entry still reached the surviving sites.
	for _, site := range []cloud.SiteID{0, 1, 2} {
		if _, err := svc.Lookup(tctx, site, "before-crash"); err != nil {
			t.Errorf("entry missing at surviving site %d: %v", site, err)
		}
	}
	// Operations against the dead site fail loudly rather than hanging.
	if _, err := svc.Create(tctx, 3, testEntry("at-dead-site", 3)); err == nil {
		t.Error("creating at a stopped site should fail")
	}
}
