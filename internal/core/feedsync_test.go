package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// waitVisible polls the service from the given site until the entry appears,
// returning how long it took. Used to measure convergence without Flush.
func waitVisible(t *testing.T, svc MetadataService, from cloud.SiteID, name string) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := time.After(10 * time.Second)
	for {
		if _, err := svc.Lookup(tctx, from, name); err == nil {
			return time.Since(start)
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %q from %d: %v", name, from, err)
		}
		select {
		case <-deadline:
			t.Fatalf("%q never became visible from site %d", name, from)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func TestFeedSyncRequiresChangeFeeds(t *testing.T) {
	f := newTestFabric() // no feeds
	if _, err := NewReplicated(f, StrategyConfig{FeedSync: true}); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("NewReplicated(FeedSync) over feed-less fabric = %v, want ErrNoFeed", err)
	}
	if _, err := NewDecReplicated(f, StrategyConfig{FeedSync: true}); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("NewDecReplicated(FeedSync) = %v, want ErrNoFeed", err)
	}
}

// TestReplicatedFeedSyncConverges drives the replicated strategy in feed mode
// with a polling interval so long the agent could never help: every mutation
// must still reach every replica, pushed by the feeds.
func TestReplicatedFeedSyncConverges(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newTestFabric(WithSite(site.Config{Feed: true}), WithMetricsRegistry(reg))
	defer f.Close()
	svc, err := NewReplicated(f, StrategyConfig{SyncInterval: time.Hour, FeedSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.FeedDriven() {
		t.Fatal("FeedDriven() = false under FeedSync")
	}

	const n = 20
	for i := 0; i < n; i++ {
		site := cloud.SiteID(i % 4)
		if _, err := svc.Create(tctx, site, testEntry(fmt.Sprintf("fs/%d", i), site)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("fs/%d", i)
		for _, site := range f.Sites() {
			if _, err := svc.Lookup(tctx, site, name); err != nil {
				t.Fatalf("after flush, %q invisible from site %d: %v", name, site, err)
			}
		}
	}
	if h := reg.Histogram("replication_lag_ns"); h.Count() == 0 {
		t.Fatal("replication_lag_ns recorded no samples")
	}

	// A delete at one site's registry propagates too, and the delete echo
	// quiesces (no ping-pong).
	inst, err := f.Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(tctx, "fs/0"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for _, site := range f.Sites() {
		if _, err := svc.Lookup(tctx, site, "fs/0"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted entry still visible from site %d: %v", site, err)
		}
	}
}

// TestReplicatedFeedSyncBeatsPollingLag creates entries under both modes and
// compares how quickly they become visible from a remote site: the feed push
// must land well before the polling agent's next round. Once flushed, the feed
// stack is silent: no WAN sync exchange over several rounds, because an idle
// feed does not heartbeat.
func TestReplicatedFeedSyncBeatsPollingLag(t *testing.T) {
	const interval = 300 * time.Millisecond

	// visibility returns the worst time a create at site 0 took to become
	// visible from site 2, with or without feed; then, when set, quiesced runs
	// on the open service.
	visibility := func(fabricOpts []FabricOption, quiesced func(*ReplicatedService), feed bool) time.Duration {
		f := newTestFabric(append([]FabricOption{WithSite(site.Config{Feed: true})}, fabricOpts...)...)
		defer f.Close()
		svc, err := NewReplicated(f, StrategyConfig{SyncInterval: interval, FeedSync: feed})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var worst time.Duration
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("lag/%d", i)
			if _, err := svc.Create(tctx, 0, testEntry(name, 0)); err != nil {
				t.Fatal(err)
			}
			if d := waitVisible(t, svc, 2, name); d > worst {
				worst = d
			}
		}
		if quiesced != nil {
			quiesced(svc)
		}
		return worst
	}

	polling := visibility(nil, nil, false)
	rec, reg := metrics.NewRecorder(), metrics.NewRegistry()
	pushed := visibility([]FabricOption{WithRecorder(rec), WithMetricsRegistry(reg)}, func(svc *ReplicatedService) {
		if err := svc.Flush(tctx); err != nil {
			t.Fatal(err)
		}
		busy := rec.SummarizeKind(metrics.OpSync).Count
		if busy == 0 {
			t.Fatal("no WAN sync exchange recorded while replicating: the idle count below would be vacuous")
		}
		time.Sleep(3 * interval)
		if idle := rec.SummarizeKind(metrics.OpSync).Count - busy; idle != 0 {
			t.Errorf("the feed stack made %d WAN sync exchanges over three idle rounds, want 0", idle)
		}
		if h := reg.Histogram("replication_lag_ns"); h.Count() == 0 {
			t.Error("replication_lag_ns recorded no samples")
		}
	}, true)
	if pushed >= interval {
		t.Fatalf("feed visibility lag %v not under the %v polling interval", pushed, interval)
	}
	if polling < interval/2 {
		t.Fatalf("polling baseline converged in %v — the interval no longer dominates, test is vacuous", polling)
	}
}

// TestDecReplicatedFeedPropagation checks the hybrid strategy's feed mode:
// writes stay local-latency, the home copy converges off the feed, and
// entries resolve from third-party sites via the home lookup.
func TestDecReplicatedFeedPropagation(t *testing.T) {
	f := newTestFabric(WithSite(site.Config{Feed: true}))
	defer f.Close()
	svc, err := NewDecReplicated(f, StrategyConfig{FeedSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.Lazy() || !svc.FeedDriven() {
		t.Fatalf("Lazy=%v FeedDriven=%v, want feed-driven lazy mode", svc.Lazy(), svc.FeedDriven())
	}

	const n = 16
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dr/%d", i)
		names = append(names, name)
		if _, err := svc.Create(tctx, 1, testEntry(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		home := svc.Home(name)
		inst, err := f.Instance(home)
		if err != nil {
			t.Fatal(err)
		}
		if !holds(t, inst, name) {
			t.Fatalf("%q missing at its home site %d after flush", name, home)
		}
		// Visible from every site through the two-step lookup.
		if _, err := svc.Lookup(tctx, 3, name); err != nil {
			t.Fatalf("lookup %q from site 3: %v", name, err)
		}
	}

	// A delete at the writer's registry reaches the home through the feed
	// as well.
	writer, err := f.Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Delete(tctx, names[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Lookup(tctx, 3, names[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted %q still resolvable: %v", names[0], err)
	}
}

// TestControllerFeedSync threads the feed option through the controller into
// both eventually consistent strategies, over one shared fabric.
func TestControllerFeedSync(t *testing.T) {
	f := newTestFabric(WithSite(site.Config{Feed: true}))
	defer f.Close()
	c := NewController(f, StrategyConfig{FeedSync: true})
	defer c.Close()

	svc, err := c.Use(tctx, Replicated)
	if err != nil {
		t.Fatal(err)
	}
	if rs, ok := svc.(*ReplicatedService); !ok || !rs.FeedDriven() {
		t.Fatalf("controller built %T (feed-driven=%v), want feed-driven replicated", svc, ok)
	}
	if _, err := svc.Create(tctx, 0, testEntry("ctl/a", 0)); err != nil {
		t.Fatal(err)
	}
	svc, err = c.Use(tctx, DecentralizedReplicated)
	if err != nil {
		t.Fatal(err)
	}
	if dr, ok := svc.(*DecReplicatedService); !ok || !dr.FeedDriven() {
		t.Fatalf("controller built %T, want feed-driven hybrid", svc)
	}
}

// TestReplicatedFeedSyncShardedSites runs feed sync over sharded sites: the
// per-site routers' relay feeds re-sequence the shard feeds, and replication
// still converges.
func TestReplicatedFeedSyncShardedSites(t *testing.T) {
	f := newTestFabric(WithSite(site.Config{Feed: true, Shards: 3}))
	defer f.Close()
	svc, err := NewReplicated(f, StrategyConfig{SyncInterval: time.Hour, FeedSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := svc.Create(tctx, 1, testEntry(fmt.Sprintf("sh/%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := svc.Lookup(tctx, 3, fmt.Sprintf("sh/%d", i)); err != nil {
			t.Fatalf("lookup sh/%d from site 3: %v", i, err)
		}
	}
}

// TestFeedSyncObserversShareSiteLogs builds both feed-driven strategies over
// one fabric of near-cached, sharded, replicated sites, so each site's log has
// three observers: the near cache and the two syncers. Each of 200 rewrites at
// site a reads back there at its new version and, after one Flush of each
// strategy and no sleep, is found at the other sites the strategies route it
// to. A log that held one observer would leave the replicated strategy's
// syncer, the first attached after the near cache, replaced by the hybrid's.
func TestFeedSyncObserversShareSiteLogs(t *testing.T) {
	f := newTestFabric(WithSite(site.Config{Shards: 3, Replication: 2, Feed: true, NearCache: true}))
	defer f.Close()
	r, err := NewReplicated(f, StrategyConfig{SyncInterval: time.Hour, FeedSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dr, err := NewDecReplicated(f, StrategyConfig{FlushInterval: time.Hour, FeedSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()

	const a = cloud.SiteID(0)
	name := "coherent/0"
	for i := 1; dr.Home(name) == a; i++ {
		name = fmt.Sprintf("coherent/%d", i)
	}
	home := dr.Home(name)
	other := cloud.SiteID(1) // reached only by the replicated strategy
	for other == a || other == home {
		other++
	}
	at := func(s cloud.SiteID) registry.API {
		inst, err := f.Instance(s)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	for round := 1; round <= 200; round++ {
		e := testEntry(name, a)
		e.Size = int64(round)
		stored, err := at(a).Put(tctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := at(a).Get(tctx, name); err != nil || got.Version != stored.Version || got.Size != e.Size {
			t.Fatalf("round %d: site %d reads version %d size %d (%v) right after writing version %d size %d",
				round, a, got.Version, got.Size, err, stored.Version, e.Size)
		}
		for _, svc := range []MetadataService{r, dr} {
			if err := svc.Flush(tctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []cloud.SiteID{other, home} {
			if got, err := at(s).Get(tctx, name); err != nil || got.Size != e.Size {
				t.Fatalf("round %d: after the flushes site %d reads size %d (%v), want %d", round, s, got.Size, err, e.Size)
			}
		}
	}
}
