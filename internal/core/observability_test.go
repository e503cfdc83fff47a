package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/latency"
	"geomds/internal/metrics"
)

// newObservedFabric builds a fast fabric reporting to a fresh registry.
func newObservedFabric(t *testing.T) (*Fabric, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithScale(0.001), latency.WithSeed(1))
	fabric := NewFabric(topo, lat,
		WithCacheCapacity(0, 0),
		WithMetricsRegistry(reg))
	return fabric, reg
}

// TestStrategiesReportLiveMetrics drives every strategy under concurrent
// load and asserts that the fabric's shared instruments and the per-strategy
// counters move, that the latency histograms fill, and that async queue
// depths drain back to zero after a flush.
func TestStrategiesReportLiveMetrics(t *testing.T) {
	for _, kind := range Strategies {
		t.Run(kind.String(), func(t *testing.T) {
			fabric, reg := newObservedFabric(t)
			svc, err := NewService(fabric, kind)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			ctx := context.Background()
			sites := fabric.Sites()
			var wg sync.WaitGroup
			const perSite = 8
			for _, site := range sites {
				wg.Add(1)
				go func(site cloud.SiteID) {
					defer wg.Done()
					for i := 0; i < perSite; i++ {
						name := fmt.Sprintf("obs/%s/s%d/f%d", kind.Short(), site, i)
						e := testEntry(name, site)
						if _, err := svc.Create(ctx, site, e); err != nil {
							t.Errorf("create %s: %v", name, err)
							return
						}
						svc.Lookup(ctx, site, name) //nolint:errcheck // eventual consistency may miss
					}
				}(site)
			}
			wg.Wait()
			if err := svc.Flush(ctx); err != nil {
				t.Fatalf("flush: %v", err)
			}

			snap := reg.Snapshot()
			wantOps := int64(len(sites) * perSite * 2) // one create + one lookup each
			if got := snap.Counters["core_ops_total"]; got < wantOps {
				t.Errorf("core_ops_total = %d, want >= %d", got, wantOps)
			}
			stratCounter := "core_strategy_" + strings.ToLower(kind.Short()) + "_ops_total"
			if got := snap.Counters[stratCounter]; got < wantOps {
				t.Errorf("%s = %d, want >= %d", stratCounter, got, wantOps)
			}
			if h := snap.Histograms["core_write_latency_ns"]; h.Count < int64(len(sites)*perSite) {
				t.Errorf("write latency histogram count = %d, want >= %d", h.Count, len(sites)*perSite)
			}
			if h := snap.Histograms["core_read_latency_ns"]; h.Count == 0 {
				t.Error("read latency histogram empty")
			}
			if got := snap.Counters["memcache_gets_total"]; got == 0 {
				t.Error("memcache instrumentation did not aggregate into the fabric registry")
			}
			if reg.Trace().Total() == 0 {
				t.Error("no trace events recorded")
			}

			// After a successful flush nothing may be left queued.
			switch kind {
			case Replicated:
				if got := snap.Gauges["sync_queue_depth"]; got != 0 {
					t.Errorf("sync_queue_depth = %d after flush, want 0", got)
				}
				if got := snap.Counters["sync_rounds_total"]; got == 0 {
					t.Error("sync_rounds_total = 0 after flush")
				}
			case DecentralizedReplicated:
				if got := snap.Gauges["propagator_queue_depth"]; got != 0 {
					t.Errorf("propagator_queue_depth = %d after flush, want 0", got)
				}
			}
		})
	}
}

// Recording an operation on an observed fabric — histogram, counters and a
// trace event named for its kind — allocates nothing.
func TestRecordAllocations(t *testing.T) {
	fabric, reg := newObservedFabric(t)
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() { fabric.record(metrics.OpRead, start, true) }); allocs > 0 {
		t.Errorf("record cost %v allocations, want none", allocs)
	}
	if ev := reg.Trace().Events(1); len(ev) != 1 || ev[0].Op != "core.read" {
		t.Errorf("the last trace event is %+v, want one named core.read", ev)
	}
}

// TestPropagatorQueueDepthTracksSupersededEntries verifies the gauge's delta
// bookkeeping across the supersede path: an entry replacing a pending entry
// of the same name must not double-count.
func TestPropagatorQueueDepthTracksSupersededEntries(t *testing.T) {
	fabric, reg := newObservedFabric(t)
	p := newManualPropagator(fabric) // no background flushing
	defer p.Close()

	sites := fabric.Sites()
	from, to := sites[0], sites[1]
	depth := reg.Gauge("propagator_queue_depth")

	p.Enqueue(from, to, testEntry("obs/x", from))
	p.Enqueue(from, to, testEntry("obs/x", to)) // supersedes the pending entry
	if got := depth.Value(); got != 1 {
		t.Fatalf("depth after two updates of one name = %d, want 1", got)
	}
	p.Enqueue(from, to, testEntry("obs/y", from))
	if got := depth.Value(); got != 2 {
		t.Fatalf("depth with two names = %d, want 2", got)
	}
	if got := p.Pending(); int64(got) != depth.Value() {
		t.Fatalf("gauge %d disagrees with Pending() %d", depth.Value(), got)
	}

	if err := p.FlushNow(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := depth.Value(); got != 0 {
		t.Fatalf("depth after flush = %d, want 0", got)
	}
	if got := reg.Counter("propagator_flushes_total").Value(); got != 1 {
		t.Fatalf("flushes = %d, want 1", got)
	}
}

// TestCancelledFlushCountsRequeuedEntries verifies that a flush aborted by
// its context restores the queue-depth gauge and counts the re-queued work.
func TestCancelledFlushCountsRequeuedEntries(t *testing.T) {
	// A slow fabric (unscaled WAN latencies) with a short flush deadline:
	// the drain happens immediately, the fan-out blocks in the modelled WAN
	// exchange past the deadline, and the flush must re-queue everything.
	reg := metrics.NewRegistry()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithScale(1), latency.WithSeed(1))
	fabric := NewFabric(topo, lat, WithCacheCapacity(0, 0), WithMetricsRegistry(reg))
	p := newManualPropagator(fabric)
	defer p.Close()

	sites := fabric.Sites()
	for i := 0; i < 5; i++ {
		p.Enqueue(sites[0], sites[1], testEntry(fmt.Sprintf("obs/rq%d", i), sites[0]))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := p.FlushNow(ctx); err == nil {
		t.Fatal("deadline-bound flush against an unscaled WAN must fail")
	}

	if got := reg.Gauge("propagator_queue_depth").Value(); int64(p.Pending()) != got {
		t.Fatalf("gauge %d disagrees with Pending() %d after cancelled flush", got, p.Pending())
	}
	if p.Pending() != 5 {
		t.Fatalf("pending = %d, want 5 (everything re-queued)", p.Pending())
	}
	if got := reg.Counter("propagator_requeued_total").Value(); got != 5 {
		t.Fatalf("requeued = %d, want 5", got)
	}
}
