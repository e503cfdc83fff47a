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

// flakyAPI is a registry instance whose Merge calls can be made to fail as an
// unreachable site does, or to stall until released.
type flakyAPI struct {
	registry.API
	// failMerge is how many of the next Merge calls fail with
	// registry.ErrUnavailable.
	failMerge atomic.Int32
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

// flakyFabric builds a 4-site non-sleeping fabric whose site 2 sits behind a
// flakyAPI.
func flakyFabric(t *testing.T) (*Fabric, *flakyAPI) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
	api, closeSite, err := site.Build(site.Config{
		Site:     2,
		NewStore: func() registry.Store { return memcache.New(memcache.Config{}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyAPI{API: api}
	f := NewFabric(topo, lat, WithCacheCapacity(0, 0), WithMetricsRegistry(nil),
		WithInstances(map[cloud.SiteID]registry.API{2: flaky}))
	t.Cleanup(func() {
		f.Close()   //nolint:errcheck // memory-only sites
		closeSite() //nolint:errcheck
	})
	return f, flaky
}

// TestPropagationSurvivesDestinationFailure makes the destination of a
// propagated update unreachable for one Merge on each propagation path. The
// Flush that hits the failure must say so, the next Flush must succeed, and
// the update must then be where the strategy replicates it: nothing is lost
// behind a nil Flush.
func TestPropagationSurvivesDestinationFailure(t *testing.T) {
	paths := []struct {
		name  string
		build func(*Fabric) (MetadataService, error)
		// replicas lists the sites that must hold an entry written at site 1
		// and hashed to site 2 once it has been flushed.
		replicas []cloud.SiteID
	}{
		{"lazy propagator", func(f *Fabric) (MetadataService, error) {
			return newManualHybrid(f)
		}, []cloud.SiteID{1, 2}},
		{"polling agent", func(f *Fabric) (MetadataService, error) {
			return NewReplicated(f, StrategyConfig{SyncInterval: time.Hour})
		}, []cloud.SiteID{0, 1, 2, 3}},
	}
	for _, path := range paths {
		t.Run(path.name+"/Merge", func(t *testing.T) {
			f, flaky := flakyFabric(t)
			svc, err := path.build(f)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			name, _ := trafficNames(f.Sites()) // hashed to site 2

			flaky.failMerge.Store(1)
			if _, err := svc.Create(tctx, 1, testEntry(name, 1)); err != nil {
				t.Fatal(err)
			}
			err = svc.Flush(tctx)
			var oe *OpError
			if !errors.Is(err, ErrSiteUnreachable) || !errors.As(err, &oe) || oe.Op != "flush" {
				t.Errorf("Flush into the unreachable site = %v, want a flush *OpError matching ErrSiteUnreachable", err)
			}
			if err := svc.Flush(tctx); err != nil {
				t.Errorf("Flush after the site came back = %v, want nil", err)
			}
			for _, site := range path.replicas {
				inst, err := f.Instance(site)
				if err != nil {
					t.Fatal(err)
				}
				if !holds(t, inst, name) {
					t.Errorf("site %d does not hold the entry after the flushes", site)
				}
			}
			if _, err := svc.Lookup(tctx, 3, name); err != nil {
				t.Errorf("lookup from a third site: %v", err)
			}
		})
	}
}

// TestRequeueNeverDisplacesNewerOperation: of two entries enqueued for one
// name and destination, the later one's contents reach the destination,
// whether it was enqueued in the same flush window or while a flush that then
// failed was shipping the older one. A drained entry is put back only where
// nothing newer has been enqueued for its name in the meantime.
func TestRequeueNeverDisplacesNewerOperation(t *testing.T) {
	for _, tc := range []struct {
		name string
		// shipping enqueues the newer entry while a cancelled flush ships the
		// older one, instead of before any flush.
		shipping bool
	}{
		{"older put, newer put", true},
		{"two puts in one window", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, flaky := flakyFabric(t)
			entered, release := make(chan struct{}), make(chan struct{})
			var staged atomic.Bool // only the first Merge is held back
			flaky.inMerge = func() {
				if tc.shipping && staged.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
			}
			p := newManualPropagator(f)
			defer p.Close()

			older := registry.NewEntry("x", 1024, "task-x", registry.Location{Site: 0, Node: 1})
			newer := registry.NewEntry("x", 2048, "task-x", registry.Location{Site: 1, Node: 1})
			p.Enqueue(0, 2, older)
			if tc.shipping {
				ctx, cancel := context.WithCancel(context.Background())
				flushed := make(chan error, 1)
				go func() { flushed <- p.FlushNow(ctx) }()
				<-entered // the flush has drained the older entry and is shipping it
				p.Enqueue(0, 2, newer)
				cancel()
				close(release)
				if err := <-flushed; !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled flush = %v, want context.Canceled", err)
				}
			} else {
				p.Enqueue(0, 2, newer)
			}
			if got := p.Pending(); got != 1 {
				t.Fatalf("%d entries pending for one name, want 1", got)
			}
			if err := p.FlushNow(tctx); err != nil {
				t.Fatal(err)
			}
			inst, _ := f.Instance(2)
			got, err := inst.Get(tctx, "x")
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != newer.Size || len(got.Locations) != 1 || got.Locations[0] != newer.Locations[0] {
				t.Errorf("destination holds size %d at %v, want the newer entry's size %d at %v",
					got.Size, got.Locations, newer.Size, newer.Locations)
			}
		})
	}
}

// TestFlushNowGivesUpWhileAnotherShips: flush rounds run one at a time, but a
// FlushNow waiting behind a round that is shipping returns its context's
// error as soon as the context ends, not after that round's WAN exchange.
func TestFlushNowGivesUpWhileAnotherShips(t *testing.T) {
	f, flaky := flakyFabric(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var staged atomic.Bool // only the first Merge is held back
	flaky.inMerge = func() {
		if staged.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	p := newManualPropagator(f)
	defer p.Close()
	defer close(release)

	p.Enqueue(0, 2, testEntry("x", 0))
	shipping := make(chan error, 1)
	go func() { shipping <- p.FlushNow(tctx) }()
	<-entered // the first round holds the flush slot and is shipping

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() { waiting <- p.FlushNow(ctx) }()
	cancel()
	select {
	case err := <-waiting:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("FlushNow with an ended context = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FlushNow waited for another round's shipment after its context ended")
	}

	release <- struct{}{} // let the first round finish
	if err := <-shipping; err != nil {
		t.Fatalf("the shipping round = %v, want nil", err)
	}
}

// TestReplicatedFlushGivesUpWhileARoundShips is the polling agent's side of
// TestFlushNowGivesUpWhileAnotherShips: a Flush waiting behind a round that
// is pushing returns its context's error as soon as the context ends, not
// after that round's WAN exchanges.
func TestReplicatedFlushGivesUpWhileARoundShips(t *testing.T) {
	f, flaky := flakyFabric(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var staged atomic.Bool // only the first Merge is held back
	flaky.inMerge = func() {
		if staged.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	svc, err := NewReplicated(f, StrategyConfig{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer close(release)

	if _, err := svc.Create(tctx, 1, testEntry("x", 1)); err != nil {
		t.Fatal(err)
	}
	shipping := make(chan error, 1)
	go func() { shipping <- svc.Flush(tctx) }()
	<-entered // the first round holds the round slot and is pushing to site 2

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() { waiting <- svc.Flush(ctx) }()
	cancel()
	select {
	case err := <-waiting:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Flush with an ended context = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush waited for another round's exchanges after its context ended")
	}

	release <- struct{}{} // let the first round finish
	if err := <-shipping; err != nil {
		t.Fatalf("the shipping round = %v, want nil", err)
	}
}
