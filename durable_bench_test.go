package geomds

// This file benchmarks the cost of the registry's persistence layer
// (internal/store): the same single-instance metadata mix is run against an
// in-memory instance, a WAL-backed instance with the relaxed fsync policy
// (one write() per mutation, fsync only at snapshot and close), and a
// WAL-backed instance syncing every append. The three results quantify what
// durability costs on the write path — and the wal/memory pair is gated:
// with the capacity-modelled caches the paper's experiments use, journaling
// must stay within the benchdiff tolerance band (40%) of the in-memory
// throughput.
//
// Run with:
//
//	go test -bench=DurableInstance -benchtime=2000x
//	go test -bench=DurableInstance -benchtime=2000x -benchjson .
//
// The recorded BENCH_durable_instance_{memory,wal,wal_fsync}.json ride the
// same CI perf-trajectory gate (cmd/benchdiff) as the tier benchmarks.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/experiments"
	"geomds/internal/registry"
	"geomds/internal/store"
)

// durableGateMinN is the smallest run the in-bench wal/memory throughput
// gate fires on; calibration runs below it are too noisy to judge.
const durableGateMinN = 1024

// benchDurableMix drives the metadata-intensive mix (2 creates : 1 update :
// 1 read) against one instance and returns the measured result.
func benchDurableMix(b *testing.B, name string, inst *registry.Instance) experiments.BenchResult {
	b.Helper()
	const preload = 512
	entries := make([]registry.Entry, preload)
	for i := range entries {
		entries[i] = registry.NewEntry(fmt.Sprintf("bench/durable/preload/%d", i), 4096, "bench",
			registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
	}
	if _, err := inst.PutMany(bctx, entries); err != nil {
		b.Fatal(err)
	}

	rec := experiments.NewBenchRecorder(name)
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			opStart := time.Now()
			var err error
			switch i % 4 {
			case 0, 1:
				_, err = inst.Create(bctx, registry.NewEntry(fmt.Sprintf("bench/durable/new/%d", i), 4096, "bench",
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}))
			case 2:
				_, err = inst.AddLocation(bctx, fmt.Sprintf("bench/durable/preload/%d", i%preload),
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
			default:
				_, err = inst.Get(bctx, fmt.Sprintf("bench/durable/preload/%d", i%preload))
			}
			if err != nil {
				b.Errorf("op %d: %v", i, err)
			}
			rec.Observe(time.Since(opStart))
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()

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

// BenchmarkDurableInstance measures the write-path cost of persistence:
// memory (no log), wal (relaxed fsync), wal_fsync (fsync every append).
func BenchmarkDurableInstance(b *testing.B) {
	var memOps float64

	b.Run("memory", func(b *testing.B) {
		inst := registry.NewInstance(1, benchShardStore())
		res := benchDurableMix(b, "durable_instance_memory", inst)
		if b.N >= durableGateMinN {
			memOps = res.OpsPerSec
		}
	})

	b.Run("wal", func(b *testing.B) {
		inst, err := registry.OpenInstance(1, benchShardStore(), b.TempDir(),
			[]store.Option{store.WithFsync(store.FsyncNever)})
		if err != nil {
			b.Fatal(err)
		}
		defer inst.Close()
		res := benchDurableMix(b, "durable_instance_wal", inst)
		// The in-run gate: journaling (without per-append fsync) must not
		// cost more than the benchdiff tolerance band vs the in-memory run.
		if memOps > 0 && b.N >= durableGateMinN && res.OpsPerSec < 0.6*memOps {
			b.Errorf("WAL write path too slow: %.0f ops/s vs %.0f in-memory (>40%% drop)", res.OpsPerSec, memOps)
		}
	})

	b.Run("wal_fsync", func(b *testing.B) {
		inst, err := registry.OpenInstance(1, benchShardStore(), b.TempDir(),
			[]store.Option{store.WithFsync(store.FsyncAlways)})
		if err != nil {
			b.Fatal(err)
		}
		defer inst.Close()
		benchDurableMix(b, "durable_instance_wal_fsync", inst)
	})
}
