package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// flakyAPI is a registry instance whose bulk-apply calls can be made to fail
// as an unreachable site does, or to stall until released.
type flakyAPI struct {
	registry.API
	// failMerge and failDelete are how many of the next Merge / DeleteMany
	// calls fail with registry.ErrUnavailable.
	failMerge, failDelete atomic.Int32
	// inMerge, when set, is called on entry to every Merge.
	inMerge func()
}

func (f *flakyAPI) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	if f.inMerge != nil {
		f.inMerge()
	}
	if f.failMerge.Add(-1) >= 0 {
		return 0, fmt.Errorf("merge: %w", registry.ErrUnavailable)
	}
	f.failMerge.Store(0)
	return f.API.Merge(ctx, entries)
}

func (f *flakyAPI) DeleteMany(ctx context.Context, names []string) (int, error) {
	if f.failDelete.Add(-1) >= 0 {
		return 0, fmt.Errorf("delete-many: %w", registry.ErrUnavailable)
	}
	f.failDelete.Store(0)
	return f.API.DeleteMany(ctx, names)
}

// flakyFeedAPI keeps the wrapped instance's change feed reachable.
type flakyFeedAPI struct {
	*flakyAPI
	registry.ChangeFeeder
}

// flakyFabric builds a 4-site non-sleeping fabric whose site 2 sits behind a
// flakyAPI.
func flakyFabric(t *testing.T, feeds bool) (*Fabric, *flakyAPI) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
	api, closeSite, err := site.Build(site.Config{
		Site:     2,
		Feed:     feeds,
		NewStore: func() registry.Store { return memcache.New(memcache.Config{}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyAPI{API: api}
	var inst registry.API = flaky
	if feeds {
		inst = flakyFeedAPI{flaky, api.(registry.ChangeFeeder)}
	}
	f := NewFabric(topo, lat, WithCacheCapacity(0, 0), WithMetricsRegistry(nil),
		WithSite(site.Config{Feed: feeds}), WithInstances(map[cloud.SiteID]registry.API{2: inst}))
	t.Cleanup(func() {
		f.Close()   //nolint:errcheck // memory-only sites
		closeSite() //nolint:errcheck
	})
	return f, flaky
}

// TestPropagationSurvivesDestinationFailure makes the destination of a
// propagated update unreachable for a while — its Merge, then separately its
// DeleteMany, fails with registry.ErrUnavailable — on each propagation path.
// The Flush that hits the failure must say so, the next Flush must succeed, and
// the update must then be where the strategy replicates it: nothing is lost
// behind a nil Flush.
func TestPropagationSurvivesDestinationFailure(t *testing.T) {
	paths := []struct {
		name  string
		feeds bool
		build func(*Fabric) (MetadataService, error)
		// replicas lists the sites that must hold an entry written at site 1
		// and hashed to site 2 once it has been flushed.
		replicas []cloud.SiteID
	}{
		{"lazy propagator", false, func(f *Fabric) (MetadataService, error) {
			return NewDecReplicated(f, WithLazyPropagation(time.Hour, 1000))
		}, []cloud.SiteID{1, 2}},
		{"polling agent", false, func(f *Fabric) (MetadataService, error) {
			return NewReplicated(f, 0, WithSyncInterval(time.Hour))
		}, []cloud.SiteID{0, 1, 2, 3}},
		{"replicated feed mode", true, func(f *Fabric) (MetadataService, error) {
			return NewReplicated(f, 0, WithSyncInterval(time.Hour), WithFeedSync())
		}, []cloud.SiteID{0, 1, 2, 3}},
		{"hybrid feed mode", true, func(f *Fabric) (MetadataService, error) {
			return NewDecReplicated(f, WithLazyPropagation(time.Hour, 1000), WithFeedPropagation())
		}, []cloud.SiteID{1, 2}},
	}
	for _, path := range paths {
		for _, failing := range []string{"Merge", "DeleteMany"} {
			t.Run(path.name+"/"+failing, func(t *testing.T) {
				f, flaky := flakyFabric(t, path.feeds)
				svc, err := path.build(f)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				name, _ := trafficNames(f.Sites()) // hashed to site 2

				// In the feed modes the consumer ships as events arrive, so the
				// site stays down until the test has seen its Flush fail;
				// elsewhere exactly one call fails.
				failures := int32(1)
				if path.feeds {
					failures = 1 << 20
				}
				holds := func(site cloud.SiteID) bool {
					inst, err := f.Instance(site)
					if err != nil {
						t.Fatal(err)
					}
					_, err = inst.Get(tctx, name)
					return err == nil
				}
				flushFailsOnceThenSucceeds := func(knob *atomic.Int32) {
					t.Helper()
					err := svc.Flush(tctx)
					var oe *OpError
					if !errors.Is(err, ErrSiteUnreachable) || !errors.As(err, &oe) || oe.Op != "flush" {
						t.Errorf("Flush into the unreachable site = %v, want a flush *OpError matching ErrSiteUnreachable", err)
					}
					knob.Store(0)
					if err := svc.Flush(tctx); err != nil {
						t.Errorf("Flush after the site came back = %v, want nil", err)
					}
				}

				if failing == "Merge" {
					flaky.failMerge.Store(failures)
				}
				if _, err := svc.Create(tctx, 1, testEntry(name, 1)); err != nil {
					t.Fatal(err)
				}
				if failing == "Merge" {
					flushFailsOnceThenSucceeds(&flaky.failMerge)
				} else if err := svc.Flush(tctx); err != nil {
					t.Fatal(err)
				}
				for _, site := range path.replicas {
					if !holds(site) {
						t.Errorf("site %d does not hold the entry after the flushes", site)
					}
				}
				if _, err := svc.Lookup(tctx, 3, name); err != nil {
					t.Errorf("lookup from a third site: %v", err)
				}

				if failing == "DeleteMany" {
					flaky.failDelete.Store(failures)
				}
				if err := svc.Delete(tctx, 1, name); err != nil {
					t.Fatal(err)
				}
				if failing == "DeleteMany" {
					flushFailsOnceThenSucceeds(&flaky.failDelete)
				} else if err := svc.Flush(tctx); err != nil {
					t.Fatal(err)
				}
				for _, site := range path.replicas {
					if holds(site) {
						t.Errorf("site %d still holds the entry after the flushed delete", site)
					}
				}
			})
		}
	}
}

// TestRequeuedPutDoesNotResurrect is the sequential half of the per-name rule:
// an update kept back by a failed shipment is replaced, not followed, by a
// newer deletion of the same name.
func TestRequeuedPutDoesNotResurrect(t *testing.T) {
	f, flaky := flakyFabric(t, false)
	svc, err := NewDecReplicated(f, WithLazyPropagation(time.Hour, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	name, _ := trafficNames(f.Sites())

	flaky.failMerge.Store(1)
	if _, err := svc.Create(tctx, 1, testEntry(name, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(tctx); !errors.Is(err, ErrSiteUnreachable) {
		t.Fatalf("Flush into the unreachable home = %v, want ErrSiteUnreachable", err)
	}
	if err := svc.Delete(tctx, 1, name); err != nil {
		t.Fatal(err)
	}
	if got := svc.propagator.Pending(); got != 1 {
		t.Fatalf("%d operations pending for one name, want 1 (the deletion replaces the re-queued update)", got)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Lookup(tctx, 3, name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup of the deleted entry = %v, want ErrNotFound", err)
	}
}

// TestRequeueNeverDisplacesNewerOperation is the concurrent half: an operation
// drained by a flush that then fails is put back only where nothing newer has
// been enqueued for its name in the meantime, whichever of the two is the
// deletion.
func TestRequeueNeverDisplacesNewerOperation(t *testing.T) {
	for _, tc := range []struct {
		name        string
		older       func(p *Propagator)
		newer       func(p *Propagator)
		wantPresent bool
	}{
		{
			name:        "older delete, newer put",
			older:       func(p *Propagator) { p.EnqueueDelete(0, 2, "x") },
			newer:       func(p *Propagator) { p.Enqueue(0, 2, testEntry("x", 0)) },
			wantPresent: true,
		},
		{
			name:        "older put, newer delete",
			older:       func(p *Propagator) { p.Enqueue(0, 2, testEntry("x", 0)) },
			newer:       func(p *Propagator) { p.EnqueueDelete(0, 2, "x") },
			wantPresent: false,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, flaky := flakyFabric(t, false)
			entered, release := make(chan struct{}), make(chan struct{})
			var staged atomic.Bool // only the first Merge is held back
			flaky.inMerge = func() {
				if staged.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
			}
			p := NewPropagator(f, time.Hour, 1000)
			defer p.Close()

			tc.older(p)
			ctx, cancel := context.WithCancel(context.Background())
			flushed := make(chan error, 1)
			go func() { flushed <- p.FlushNow(ctx) }()
			<-entered // the flush has drained the older operation and is shipping it
			tc.newer(p)
			cancel()
			close(release)
			if err := <-flushed; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled flush = %v, want context.Canceled", err)
			}
			if got := p.Pending(); got != 1 {
				t.Fatalf("%d operations pending for one name, want 1", got)
			}
			if err := p.FlushNow(tctx); err != nil {
				t.Fatal(err)
			}
			inst, _ := f.Instance(2)
			if got := holds(t, inst, "x"); got != tc.wantPresent {
				t.Errorf("destination holds the entry = %v, want %v (the newer operation wins)", got, tc.wantPresent)
			}
		})
	}
}

// TestReplicatedAgentLastOperationWins: the agent's work list follows the same
// per-name rule as the propagator. A name created, deleted and created again
// at one site between two rounds is an update, not also a deletion — the round
// must not merge the live entry everywhere and then delete it everywhere,
// origin included.
func TestReplicatedAgentLastOperationWins(t *testing.T) {
	svc, err := NewReplicated(newTestFabric(), 0, WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, step := range []func() error{
		func() error { _, err := svc.Create(tctx, 1, testEntry("again", 1)); return err },
		func() error { return svc.Delete(tctx, 1, "again") },
		func() error { _, err := svc.Create(tctx, 1, testEntry("again", 1)); return err },
		func() error { return svc.Flush(tctx) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, site := range svc.fabric.Sites() {
		if _, err := svc.Lookup(tctx, site, "again"); err != nil {
			t.Errorf("the re-created entry is missing at site %d: %v", site, err)
		}
	}
}
