package geomds

// This file benchmarks metadata visibility lag under the two replication
// transports the replicated strategy supports: the paper's polling sync
// agent (the baseline) and the push-based change feeds. Each operation
// creates an entry at one site and measures how long until a lookup at a
// remote site sees it, so the recorded quantiles are end-to-end replication
// lag, not local write latency. The push run is the acceptance harness for
// the change-feed subsystem:
//
//   - its p99 lag must come in well under one polling round interval — the
//     whole point of pushing instead of polling;
//   - once the workload drains, the feed stack must generate zero further
//     WAN sync exchanges: an idle feed is silent, it does not heartbeat.
//
// Run with:
//
//	go test -bench=FeedReplication -benchtime=2000x
//	go test -bench=FeedReplication -benchtime=2000x -benchjson .
//
// The recorded BENCH_feed_replication_{polling,push}.json ride the CI
// perf-trajectory gate (cmd/benchdiff), so the lag advantage of the feeds
// over the polling baseline is measured against committed numbers on every
// push, not asserted once and forgotten.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/experiments"
	"geomds/internal/latency"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// benchFeedPollInterval is the polling agent's round period (simulated). At
// the benchmark's 0.01 scale one round is 10ms of wall clock, so a create
// waits 5ms on average — and up to a full round — before the polling agent
// carries it to the other sites.
const benchFeedPollInterval = time.Second

func BenchmarkFeedReplicationPolling(b *testing.B) { benchFeedReplication(b, false) }
func BenchmarkFeedReplicationPush(b *testing.B)    { benchFeedReplication(b, true) }

func benchFeedReplication(b *testing.B, feedDriven bool) {
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithScale(0.01), latency.WithSeed(17))
	rec := metrics.NewRecorder()
	reg := metrics.NewRegistry()
	fabricOpts := []core.FabricOption{
		core.WithCacheCapacity(0, 0),
		core.WithRecorder(rec),
		core.WithMetricsRegistry(reg),
	}
	// The polling baseline runs the original configuration exactly — no
	// feeds attached, the agent alone carries mutations — so its numbers
	// are the strategy as the paper models it, not feeds-but-unused.
	name := "feed_replication_polling"
	if feedDriven {
		fabricOpts = append(fabricOpts, core.WithSite(site.Config{Feed: true}))
		name = "feed_replication_push"
	}
	fabric := core.NewFabric(topo, lat, fabricOpts...)
	defer fabric.Close()

	svcOpts := []core.ReplicatedOption{core.WithSyncInterval(benchFeedPollInterval)}
	if feedDriven {
		svcOpts = append(svcOpts, core.WithFeedSync())
	}
	svc, err := core.NewReplicated(fabric, 0, svcOpts...)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	const origin, remote = cloud.SiteID(0), cloud.SiteID(2)
	brec := experiments.NewBenchRecorder(name)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		entryName := fmt.Sprintf("bench/feed/%d", i)
		opStart := time.Now()
		if _, err := svc.Create(bctx, origin, registry.NewEntry(entryName, 4096, "bench",
			registry.Location{Site: origin, Node: cloud.NodeID(i % 16)})); err != nil {
			b.Fatalf("create %q: %v", entryName, err)
		}
		for {
			if _, err := svc.Lookup(bctx, remote, entryName); err == nil {
				break
			} else if !errors.Is(err, core.ErrNotFound) {
				b.Fatalf("lookup %q from site %d: %v", entryName, remote, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		brec.Observe(time.Since(opStart))
	}
	elapsed := time.Since(start)
	b.StopTimer()

	// Quiesce, then watch the WAN for several polling rounds: an idle feed
	// must stay silent. (The polling agent also skips empty rounds, so the
	// baseline's idle count is reported for comparison, not gated.)
	if err := svc.Flush(bctx); err != nil {
		b.Fatalf("flush: %v", err)
	}
	syncsBusy := rec.SummarizeKind(metrics.OpSync).Count
	time.Sleep(5 * lat.ToWall(benchFeedPollInterval))
	syncsIdle := rec.SummarizeKind(metrics.OpSync).Count - syncsBusy

	res := brec.Result(elapsed)
	round := lat.ToWall(benchFeedPollInterval)
	if b.N >= 200 {
		// With too few iterations the quantiles are noise; the gates only
		// arm on a real run (CI uses -benchtime=2000x).
		if syncsBusy == 0 {
			b.Fatalf("no WAN sync exchanges recorded — the benchmark measured nothing")
		}
		if feedDriven {
			if p99 := time.Duration(res.LatencyNs.P99); p99 >= round/2 {
				b.Fatalf("feed-driven replication lag p99 = %v, want well under one %v polling round", p99, round)
			}
			if syncsIdle != 0 {
				b.Fatalf("feed stack made %d WAN sync exchanges while idle, want 0", syncsIdle)
			}
			if h := reg.Histogram("replication_lag_ns"); h.Count() == 0 {
				b.Fatal("replication_lag_ns recorded no samples")
			}
		}
	}

	b.ReportMetric(res.OpsPerSec, "ops/s")
	b.ReportMetric(float64(res.LatencyNs.P50)/1e6, "lag_p50_ms")
	b.ReportMetric(float64(res.LatencyNs.P99)/1e6, "lag_p99_ms")
	b.ReportMetric(float64(syncsIdle), "idle_syncs")
	if *benchJSONDir != "" {
		path, err := res.WriteJSON(*benchJSONDir)
		if err != nil {
			b.Fatalf("writing benchmark JSON: %v", err)
		}
		b.Logf("machine-readable result written to %s", path)
	}
}
