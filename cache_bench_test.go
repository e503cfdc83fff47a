package geomds

// This file benchmarks the feed-coherent near cache under the workload it was
// built for: a Zipfian-skewed, read-heavy mix against a registry instance
// whose in-memory cache tier models a real service time. Three sub-benchmarks
// run the same mix:
//
//   - off:   every read pays the instance's modelled service time — the
//     feature-off baseline.
//   - on:    reads go through the near cache, kept coherent by the
//     instance's change feed; the hot Zipfian head answers locally.
//   - mixed: cache-on with a 10x higher write share. Writes invalidate
//     through the cache and via feed events, so the run demonstrates the
//     staleness bound: after the feed drains, the cache agrees with the
//     origin on every sampled key.
//
// Run with:
//
//	go test -bench=CacheZipfianReadMix -benchtime=2000x
//	go test -bench=CacheZipfianReadMix -benchtime=2000x -benchjson .
//
// The recorded BENCH_cache_zipfian_{off,on,mixed}.json ride the CI
// perf-trajectory gate (cmd/benchdiff). On runs long enough to measure
// (>=1000 ops per variant) the parent benchmark asserts the cache-on variant
// sustains at least 2x the cache-off throughput with a p99 no worse — the
// acceptance bar of the near-cache work.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/experiments"
	"geomds/internal/feed"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/workloads"
)

const cacheBenchPreload = 1024

func cacheBenchKey(i int) string { return fmt.Sprintf("bench/cache/preload/%d", i) }

// runCacheBench runs the Zipfian mix against one feeding registry instance,
// optionally through a feed-coherent near cache, and returns the recorded
// result. writeEvery sets the write share: one AddLocation per writeEvery
// operations, the rest Gets.
func runCacheBench(b *testing.B, name string, useCache bool, writeEvery int) experiments.BenchResult {
	inst := registry.NewInstance(1, benchShardStore(), registry.WithChangeFeed())
	defer inst.Close()

	entries := make([]registry.Entry, cacheBenchPreload)
	for i := range entries {
		entries[i] = registry.NewEntry(cacheBenchKey(i), 4096, "bench",
			registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
	}
	if _, err := inst.PutMany(bctx, entries); err != nil {
		b.Fatal(err)
	}

	var api registry.API = inst
	var cache *readcache.Cache
	if useCache {
		cache = readcache.New(inst, readcache.Options{Capacity: 2 * cacheBenchPreload})
		cache.AttachFeed(bctx, []feed.Source{{
			Name: "origin",
			Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
				return inst.ChangeFeed().Subscribe(from)
			},
			Snapshot: inst.FeedSnapshot,
		}})
		defer cache.Close()
		api = cache
		// Wait for the subscription to go live: the cache serves through
		// (and skips fills) until the stream is connected, so a fill that
		// sticks proves the feed is up.
		deadline := time.Now().Add(5 * time.Second)
		for cache.Stats().Entries == 0 {
			if _, err := cache.Get(bctx, cacheBenchKey(0)); err != nil {
				b.Fatal(err)
			}
			if time.Now().After(deadline) {
				b.Fatal("near cache never connected to the change feed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	sampler := workloads.NewKeySampler(workloads.KeyDist{Kind: workloads.KeyZipfian}, cacheBenchPreload)
	rec := experiments.NewBenchRecorder(name)
	var (
		workerSeq atomic.Int64
		seq       atomic.Int64
	)
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(42 + workerSeq.Add(1)))
		for pb.Next() {
			i := seq.Add(1)
			key := cacheBenchKey(sampler.Rank(rng, cacheBenchPreload))
			opStart := time.Now()
			if i%int64(writeEvery) == 0 {
				if _, err := api.AddLocation(bctx, key,
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}); err != nil {
					b.Errorf("addlocation %q: %v", key, err)
				}
			} else {
				if _, err := api.Get(bctx, key); err != nil {
					b.Errorf("get %q: %v", key, err)
				}
			}
			rec.Observe(time.Since(opStart))
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()

	if useCache {
		// The staleness bound, demonstrated: once the feed drains, a read
		// through the cache agrees with the origin on every sampled key.
		head, err := inst.FeedBarrier(bctx)
		if err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for sampled := 0; sampled < 32; {
			key := cacheBenchKey(sampled)
			want, err := inst.Get(bctx, key)
			if err != nil {
				b.Fatal(err)
			}
			got, err := cache.Get(bctx, key)
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Locations) == len(want.Locations) {
				sampled++
				continue
			}
			if time.Now().After(deadline) {
				b.Fatalf("cache still stale on %q after feed drained to %d: %d locations cached, %d at origin",
					key, head, len(got.Locations), len(want.Locations))
			}
			time.Sleep(time.Millisecond)
		}
		st := cache.Stats()
		hitRatio := float64(st.Hits) / float64(st.Hits+st.Misses)
		b.ReportMetric(hitRatio, "hit_ratio")
	}

	res := rec.Result(elapsed)
	b.ReportMetric(res.OpsPerSec, "ops/s")
	b.ReportMetric(float64(res.LatencyNs.P99)/1e6, "p99_ms")
	if *benchJSONDir != "" {
		path, err := res.WriteJSON(*benchJSONDir)
		if err != nil {
			b.Fatalf("writing benchmark JSON: %v", err)
		}
		b.Logf("machine-readable result written to %s", path)
	}
	return res
}

// BenchmarkCacheZipfianReadMix measures the read-heavy Zipfian mix with the
// near cache off and on, plus a mixed-write cache-on run, and on runs long
// enough to trust (>=1000 ops per variant) asserts the acceptance bar: the
// cached read path sustains at least 2x the uncached throughput with a p99
// no worse.
func BenchmarkCacheZipfianReadMix(b *testing.B) {
	results := make(map[string]experiments.BenchResult, 3)
	b.Run("off", func(b *testing.B) {
		results["off"] = runCacheBench(b, "cache_zipfian_off", false, 100)
	})
	b.Run("on", func(b *testing.B) {
		results["on"] = runCacheBench(b, "cache_zipfian_on", true, 100)
	})
	b.Run("mixed", func(b *testing.B) {
		results["mixed"] = runCacheBench(b, "cache_zipfian_mixed", true, 10)
	})

	off, on := results["off"], results["on"]
	if off.Ops < 1000 || on.Ops < 1000 {
		return // too short for a trustworthy comparison; -benchtime=2000x is the measured mode
	}
	b.Logf("ops/s off %.0f -> on %.0f (%.1fx), p99 off %.2f ms -> on %.2f ms",
		off.OpsPerSec, on.OpsPerSec, on.OpsPerSec/off.OpsPerSec,
		float64(off.LatencyNs.P99)/1e6, float64(on.LatencyNs.P99)/1e6)
	if on.OpsPerSec < 2*off.OpsPerSec {
		b.Errorf("cache-on %.0f ops/s is not 2x the cache-off %.0f ops/s", on.OpsPerSec, off.OpsPerSec)
	}
	if on.LatencyNs.P99 > off.LatencyNs.P99 {
		b.Errorf("cache-on p99 %.2f ms is worse than cache-off %.2f ms",
			float64(on.LatencyNs.P99)/1e6, float64(off.LatencyNs.P99)/1e6)
	}
}
