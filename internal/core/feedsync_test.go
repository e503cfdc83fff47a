package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
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
	if _, err := NewReplicated(f, 0, WithFeedSync()); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("NewReplicated(WithFeedSync) over feed-less fabric = %v, want ErrNoFeed", err)
	}
	if _, err := NewDecReplicated(f, WithFeedPropagation()); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("NewDecReplicated(WithFeedPropagation) = %v, want ErrNoFeed", err)
	}
}

// TestReplicatedFeedSyncConverges drives the replicated strategy in feed mode
// with a polling interval so long the agent could never help: every mutation
// must still reach every replica, pushed by the feeds.
func TestReplicatedFeedSyncConverges(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newTestFabric(WithSite(site.Config{Feed: true}), WithMetricsRegistry(reg))
	defer f.Close()
	svc, err := NewReplicated(f, 0, WithSyncInterval(time.Hour), WithFeedSync())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.FeedDriven() {
		t.Fatal("FeedDriven() = false under WithFeedSync")
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

	// Deletes propagate too, and the delete echo quiesces (no ping-pong).
	if err := svc.Delete(tctx, 1, "fs/0"); err != nil {
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
// must land well before the polling agent's next round.
func TestReplicatedFeedSyncBeatsPollingLag(t *testing.T) {
	const interval = 300 * time.Millisecond

	visibility := func(opts ...ReplicatedOption) time.Duration {
		f := newTestFabric(WithSite(site.Config{Feed: true}))
		defer f.Close()
		svc, err := NewReplicated(f, 0, append([]ReplicatedOption{WithSyncInterval(interval)}, opts...)...)
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
		return worst
	}

	polling := visibility()
	pushed := visibility(WithFeedSync())
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
	svc, err := NewDecReplicated(f, WithFeedPropagation())
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

	// A lazy delete reaches the home through the feed as well.
	if err := svc.Delete(tctx, 1, names[0]); err != nil {
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
	c := NewController(f, WithControllerFeedSync())
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
	svc, err := NewReplicated(f, 0, WithSyncInterval(time.Hour), WithFeedSync())
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

// TestFeedSourcesFailWithoutFeeds pins the accessor errors.
func TestFeedSourcesFailWithoutFeeds(t *testing.T) {
	f := newTestFabric()
	if _, err := f.Feed(0); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("Feed(0) = %v, want ErrNoFeed", err)
	}
	if _, err := f.FeedSources(); !errors.Is(err, ErrNoFeed) {
		t.Fatalf("FeedSources() = %v, want ErrNoFeed", err)
	}
	ff := newTestFabric(WithSite(site.Config{Feed: true}))
	defer ff.Close()
	sources, err := ff.FeedSources()
	if err != nil || len(sources) != 4 {
		t.Fatalf("FeedSources() = %d sources, %v", len(sources), err)
	}
	sub, err := sources[0].Subscribe(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
}
