package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/latency"
	"geomds/internal/registry"
)

// newEveryStrategy builds one service of each kind over its own fabric.
func newEveryStrategy(t *testing.T) map[StrategyKind]MetadataService {
	t.Helper()
	out := make(map[StrategyKind]MetadataService, len(Strategies))
	for _, kind := range Strategies {
		svc, err := NewService(newTestFabric(), kind)
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		out[kind] = svc
	}
	return out
}

// TestFlushOnClosedServiceReturnsErrClosed asserts the satellite requirement
// verbatim: Flush(ctx) on a closed service fails with an error matching
// ErrClosed under errors.Is, for every strategy.
func TestFlushOnClosedServiceReturnsErrClosed(t *testing.T) {
	for kind, svc := range newEveryStrategy(t) {
		if err := svc.Close(); err != nil {
			t.Fatalf("%s: Close: %v", kind, err)
		}
		err := svc.Flush(tctx)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Flush on closed service = %v, want ErrClosed", kind, err)
		}
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Errorf("%s: Flush error %T does not unwrap to *OpError", kind, err)
		} else if oe.Op != "flush" {
			t.Errorf("%s: OpError.Op = %q, want \"flush\"", kind, oe.Op)
		}
	}
}

// TestClosedServiceOperationsReturnErrClosed asserts every operation of a
// closed service reports ErrClosed through the typed error model.
func TestClosedServiceOperationsReturnErrClosed(t *testing.T) {
	for kind, svc := range newEveryStrategy(t) {
		svc.Close()
		if _, err := svc.Create(tctx, 0, testEntry("x", 0)); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Create = %v, want ErrClosed", kind, err)
		}
		if _, err := svc.Lookup(tctx, 0, "x"); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Lookup = %v, want ErrClosed", kind, err)
		}
		if _, err := svc.AddLocation(tctx, 0, "x", registry.Location{Site: 0}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: AddLocation = %v, want ErrClosed", kind, err)
		}
	}
}

// TestOpErrorCarriesStructuredFields asserts a strategy failure surfaces as a
// *OpError whose fields identify the operation, site and entry, with the
// sentinel cause reachable through errors.Is.
func TestOpErrorCarriesStructuredFields(t *testing.T) {
	for kind, svc := range newEveryStrategy(t) {
		_, err := svc.Lookup(tctx, 2, "does-not-exist")
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Lookup missing = %v, want ErrNotFound", kind, err)
		}
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: error %T does not unwrap to *OpError", kind, err)
		}
		if oe.Op != "lookup" || oe.Site != 2 || oe.Name != "does-not-exist" {
			t.Errorf("%s: OpError = %+v, want op=lookup site=2 name=does-not-exist", kind, oe)
		}
		svc.Close()
	}
}

// TestOpErrorDuplicateCreate asserts ErrExists round-trips the typed model.
func TestOpErrorDuplicateCreate(t *testing.T) {
	for kind, svc := range newEveryStrategy(t) {
		if _, err := svc.Create(tctx, 1, testEntry("dup", 1)); err != nil {
			t.Fatalf("%s: first Create: %v", kind, err)
		}
		_, err := svc.Create(tctx, 1, testEntry("dup", 1))
		if !errors.Is(err, ErrExists) {
			t.Errorf("%s: duplicate Create = %v, want ErrExists", kind, err)
		}
		svc.Close()
	}
}

// TestErrSiteUnreachableAlias pins the cross-layer contract: the transport's
// registry.ErrUnavailable and core's ErrSiteUnreachable are the same
// sentinel, so an rpc failure deep inside a strategy matches either.
func TestErrSiteUnreachableAlias(t *testing.T) {
	wrapped := fmt.Errorf("rpc: connect 10.0.0.1:7070: %w", registry.ErrUnavailable)
	if !errors.Is(wrapped, ErrSiteUnreachable) {
		t.Error("registry.ErrUnavailable should match core.ErrSiteUnreachable")
	}
	if !errors.Is(opErr("lookup", 1, "f", wrapped), ErrSiteUnreachable) {
		t.Error("OpError-wrapped transport failure should match ErrSiteUnreachable")
	}
}

// TestCancelledContextAbortsWANSleep runs a strategy over a *real* (sleeping)
// latency model with long WAN delays and asserts a cancelled context unblocks
// the caller long before the modelled round trip elapses.
func TestCancelledContextAbortsWANSleep(t *testing.T) {
	topo := cloud.Azure4DC()
	// Scale 10: a geo-distant round trip (~100ms RTT) becomes ~1s.
	lat := latency.New(topo, latency.WithSeed(1), latency.WithScale(10))
	fabric := NewFabric(topo, lat, WithCacheCapacity(0, 0))
	svc, err := NewCentralized(fabric, StrategyConfig{}) // site 0; calls from site 2 are geo-distant
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Seed the entry directly so the lookup's only blocking step is the
	// modelled WAN round trip (a genuine miss would answer ErrNotFound).
	inst, _ := fabric.Instance(0)
	if _, err := inst.Create(tctx, testEntry("far-away", 0)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.Lookup(ctx, 2, "far-away")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call enter the modelled sleep
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Lookup = %v, want context.Canceled", err)
		}
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Errorf("cancelled Lookup error %T does not unwrap to *OpError", err)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Errorf("cancellation took %v to unblock the WAN sleep", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled Lookup never returned")
	}
}

// TestDeadlineBoundsOperation asserts a context deadline turns into a
// DeadlineExceeded-wrapping OpError when the modelled WAN latency exceeds it.
func TestDeadlineBoundsOperation(t *testing.T) {
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithScale(10))
	fabric := NewFabric(topo, lat, WithCacheCapacity(0, 0))
	svc, err := NewCentralized(fabric, StrategyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = svc.Create(ctx, 2, testEntry("too-slow", 2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Create past deadline = %v, want context.DeadlineExceeded", err)
	}
}

// TestFlushCancellationRequeues asserts a cancelled Flush aborts mid-fan-out
// without losing the drained updates: a later, uncancelled Flush still
// propagates them.
func TestFlushCancellationRequeues(t *testing.T) {
	svc, err := newManualHybrid(newTestFabric())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Write from site 0 entries homed elsewhere so they queue for propagation.
	var names []string
	for i := 0; len(names) < 8; i++ {
		name := fmt.Sprintf("requeue-%d", i)
		if svc.Home(name) != 0 {
			names = append(names, name)
		}
	}
	for _, name := range names {
		if _, err := svc.Create(tctx, 0, testEntry(name, 0)); err != nil {
			t.Fatal(err)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Flush(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Flush = %v, want context.Canceled", err)
	}
	if got := svc.propagator.Pending(); got != len(names) {
		t.Fatalf("after cancelled Flush %d updates pending, want %d (nothing may be lost)", got, len(names))
	}

	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		home, _ := svc.fabric.Instance(svc.Home(name))
		if !holds(t, home, name) {
			t.Errorf("entry %q never reached its home site after the re-queued flush", name)
		}
	}
}

// TestReplicatedFlushCancellationRequeues is the sync-agent counterpart: a
// cancelled round must re-queue the drained updates for the next round.
func TestReplicatedFlushCancellationRequeues(t *testing.T) {
	svc, err := NewReplicated(newTestFabric(), StrategyConfig{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := svc.Create(tctx, 1, testEntry(fmt.Sprintf("agent-rq-%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Flush(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Flush = %v, want context.Canceled", err)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for _, site := range svc.fabric.Sites() {
		inst, _ := svc.fabric.Instance(site)
		if got := inst.Len(tctx); got != n {
			t.Errorf("site %d holds %d entries after re-queued sync, want %d", site, got, n)
		}
	}
}
