package geomds

// This file benchmarks the horizontally sharded per-site registry tier
// (registry.Router) against the single-instance baseline on the paper's
// metadata-intensive operation mix. The capacity model is the same one that
// makes the centralized strategy saturate in Figs. 5/7/8: each cache
// instance has a fixed per-operation service time and a bounded worker pool,
// so a single-instance site tops out regardless of client concurrency while
// an n-shard tier brings n worker pools to bear.
//
// Run with:
//
//	go test -bench=ShardedRegistryTier -benchtime=2s
//	go test -bench=ShardedRegistryTier -benchjson .   # also write BENCH_*.json
//
// The -benchjson flag (a directory; "." for the working directory) writes a
// machine-readable BENCH_sharded_registry_tier_<n>shards.json per
// configuration — ops/s plus latency quantiles — so the perf trajectory is
// tracked across commits.

import (
	"flag"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/experiments"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

var benchJSONDir = flag.String("benchjson", "", "write BENCH_<name>.json machine-readable benchmark results into this directory")

// benchShardStore is one shard's cache: 100µs per operation, two concurrent
// workers — a scaled-down managed-cache instance, so the benchmarks finish
// quickly while preserving the saturation behaviour.
func benchShardStore() registry.Store {
	return core.CapacityStore(memcache.New(memcache.Config{}), 100*time.Microsecond, 2, time.Sleep, nil)
}

// newShardedTier builds a one-site registry tier with the given shard count:
// a plain instance for 1, a Router over per-shard instances otherwise. Every
// shard gets its own capacity-bounded cache, as the shards of an emulated
// site (core.NewFabric over site.Build) do.
func newShardedTier(b *testing.B, shards int) registry.API {
	b.Helper()
	newInst := func() registry.API {
		return registry.NewInstance(1, benchShardStore())
	}
	if shards == 1 {
		return newInst()
	}
	apis := make([]registry.API, shards)
	for i := range apis {
		apis[i] = newInst()
	}
	r, err := registry.NewRouter(1, apis, registry.WithRouterMetrics(nil))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkShardedRegistryTier measures per-site metadata throughput as the
// shard count grows, on a metadata-intensive mix (25% creates, 12.5%
// location updates, 62.5% look-ups — roughly the write share of the paper's
// MI scenario). The shards=1 case is the single-instance baseline every
// other case's "speedup_vs_single" metric is relative to; the sharded tier
// is expected to sustain >= 2x the baseline at 4 shards.
func BenchmarkShardedRegistryTier(b *testing.B) {
	var baseline float64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tier := newShardedTier(b, shards)

			// Preload a working set for the read side, one bulk batch.
			const preload = 1024
			entries := make([]registry.Entry, preload)
			for i := range entries {
				entries[i] = registry.NewEntry(fmt.Sprintf("bench/preload/%d", i), 4096, "bench",
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
			}
			if _, err := tier.PutMany(bctx, entries); err != nil {
				b.Fatal(err)
			}

			rec := experiments.NewBenchRecorder(fmt.Sprintf("sharded_registry_tier_%dshards", shards))
			var seq atomic.Int64
			var failed atomic.Int64
			b.SetParallelism(8) // enough client goroutines to saturate every worker pool
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					opStart := time.Now()
					var err error
					switch i % 8 {
					case 0, 1:
						_, err = tier.Create(bctx, registry.NewEntry(fmt.Sprintf("bench/new/%d", i), 4096, "bench",
							registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}))
					case 2:
						_, err = tier.AddLocation(bctx, fmt.Sprintf("bench/preload/%d", i%preload),
							registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
					default:
						_, err = tier.Get(bctx, fmt.Sprintf("bench/preload/%d", i%preload))
					}
					if err != nil {
						failed.Add(1)
					}
					rec.Observe(time.Since(opStart))
				}
			})
			elapsed := time.Since(start)
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d of %d operations failed", n, b.N)
			}

			res := rec.Result(elapsed)
			b.ReportMetric(res.OpsPerSec, "ops/s")
			b.ReportMetric(float64(res.LatencyNs.P99)/1e6, "p99_ms")
			if shards == 1 {
				baseline = res.OpsPerSec
			} else if baseline > 0 {
				b.ReportMetric(res.OpsPerSec/baseline, "speedup_vs_single")
			}
			if *benchJSONDir != "" {
				path, err := res.WriteJSON(*benchJSONDir)
				if err != nil {
					b.Fatalf("writing benchmark JSON: %v", err)
				}
				b.Logf("machine-readable result written to %s", path)
			}
		})
	}
}
