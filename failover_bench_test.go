package geomds

// This file benchmarks the replicated registry tier under fault injection:
// a 4-shard, 2-way replicated site runs the paper's metadata-intensive mix
// while one shard is killed mid-run. It is the availability companion to
// shard_bench_test.go — same capacity model, same operation mix — and the
// acceptance harness for the failover routing layer:
//
//   - the workload completes: reads of the dead shard's keys succeed via the
//     replica list, writes re-route to healthy successors once the breaker
//     opens, and only the handful of writes in flight while the breaker was
//     still counting failures may error (they are reported un-acknowledged);
//   - zero acknowledged writes are lost: after the run, every create the
//     benchmark got an acknowledgement for is read back through the router
//     with the shard still dead.
//
// Run with:
//
//	go test -bench=ReplicatedTierFailover -benchtime=2000x
//	go test -bench=ReplicatedTierFailover -benchtime=2000x -benchjson .
//
// The recorded BENCH_replicated_tier_failover.json rides the same CI
// perf-trajectory gate as the sharded-tier benchmark (cmd/benchdiff), so the
// cost of replication and failover is measured against a committed baseline
// on every push, not guessed.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/experiments"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/store"
)

// benchKillableShard wraps a shard instance and, once killed, answers every
// operation with a transport failure wrapping registry.ErrUnavailable — a
// shard server whose process died mid-run.
type benchKillableShard struct {
	registry.API
	dead atomic.Bool
}

var errBenchShardDown = fmt.Errorf("shard killed mid-benchmark: %w", registry.ErrUnavailable)

func (k *benchKillableShard) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	if k.dead.Load() {
		return registry.Entry{}, errBenchShardDown
	}
	return k.API.Create(ctx, e)
}

func (k *benchKillableShard) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	if k.dead.Load() {
		return registry.Entry{}, errBenchShardDown
	}
	return k.API.Put(ctx, e)
}

func (k *benchKillableShard) Get(ctx context.Context, name string) (registry.Entry, error) {
	if k.dead.Load() {
		return registry.Entry{}, errBenchShardDown
	}
	return k.API.Get(ctx, name)
}

func (k *benchKillableShard) AddLocation(ctx context.Context, name string, loc registry.Location) (registry.Entry, error) {
	if k.dead.Load() {
		return registry.Entry{}, errBenchShardDown
	}
	return k.API.AddLocation(ctx, name, loc)
}

func (k *benchKillableShard) Delete(ctx context.Context, name string) error {
	if k.dead.Load() {
		return errBenchShardDown
	}
	return k.API.Delete(ctx, name)
}

func (k *benchKillableShard) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	if k.dead.Load() {
		return nil, errBenchShardDown
	}
	return k.API.GetMany(ctx, names)
}

func (k *benchKillableShard) PutMany(ctx context.Context, entries []registry.Entry) ([]registry.Entry, error) {
	if k.dead.Load() {
		return nil, errBenchShardDown
	}
	return k.API.PutMany(ctx, entries)
}

func (k *benchKillableShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	if k.dead.Load() {
		return 0, errBenchShardDown
	}
	return k.API.DeleteMany(ctx, names)
}

func (k *benchKillableShard) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	if k.dead.Load() {
		return 0, errBenchShardDown
	}
	return k.API.Merge(ctx, entries)
}

func (k *benchKillableShard) Entries(ctx context.Context) ([]registry.Entry, error) {
	if k.dead.Load() {
		return nil, errBenchShardDown
	}
	return k.API.Entries(ctx)
}

func (k *benchKillableShard) Names(ctx context.Context) []string {
	if k.dead.Load() {
		return nil
	}
	return k.API.Names(ctx)
}

func (k *benchKillableShard) Len(ctx context.Context) int {
	if k.dead.Load() {
		return 0
	}
	return k.API.Len(ctx)
}

// BenchmarkReplicatedTierFailover measures the metadata-intensive mix on a
// 4-shard, 2-way replicated tier with one shard killed halfway through the
// run. Throughput (ops/s) covers the whole run including the kill; the
// failure accounting proves availability: reads never fail, un-acknowledged
// writes are bounded by the breaker window, and every acknowledged create is
// read back after the run with the shard still dead.
func BenchmarkReplicatedTierFailover(b *testing.B) {
	const (
		nShards     = 4
		replication = 2
	)
	kills := make([]*benchKillableShard, nShards)
	apis := make([]registry.API, nShards)
	for i := range apis {
		kills[i] = &benchKillableShard{API: registry.NewInstance(1, benchShardStore())}
		apis[i] = kills[i]
	}
	tier, err := registry.NewRouter(1, apis,
		registry.WithRouterMetrics(nil),
		registry.WithRouterReplication(replication),
		registry.WithRouterHealth(3, 5*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()

	// Preload a working set for the read side, one bulk batch.
	const preload = 1024
	entries := make([]registry.Entry, preload)
	for i := range entries {
		entries[i] = registry.NewEntry(fmt.Sprintf("bench/failover/preload/%d", i), 4096, "bench",
			registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
	}
	if _, err := tier.PutMany(bctx, entries); err != nil {
		b.Fatal(err)
	}

	// The kill fires when the shared op counter crosses the run's midpoint —
	// but only on runs long enough for the breaker to open and a meaningful
	// post-failure window to be measured.
	killAt := int64(b.N / 2)
	injectFault := b.N >= 256
	const victim = 2

	rec := experiments.NewBenchRecorder("replicated_tier_failover")
	var (
		seq       atomic.Int64
		readFails atomic.Int64
		writeErrs atomic.Int64
		ackMu     sync.Mutex
		acked     []string
	)
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if injectFault && i == killAt {
				kills[victim].dead.Store(true)
			}
			opStart := time.Now()
			switch i % 8 {
			case 0, 1:
				name := fmt.Sprintf("bench/failover/new/%d", i)
				_, err := tier.Create(bctx, registry.NewEntry(name, 4096, "bench",
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}))
				if err == nil {
					ackMu.Lock()
					acked = append(acked, name)
					ackMu.Unlock()
				} else if errors.Is(err, registry.ErrUnavailable) {
					writeErrs.Add(1) // un-acknowledged: in flight while the breaker counted
				} else {
					b.Errorf("create %q: %v", name, err)
				}
			case 2:
				name := fmt.Sprintf("bench/failover/preload/%d", i%preload)
				if _, err := tier.AddLocation(bctx, name,
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}); err != nil {
					if errors.Is(err, registry.ErrUnavailable) {
						writeErrs.Add(1)
					} else {
						b.Errorf("addlocation %q: %v", name, err)
					}
				}
			default:
				if _, err := tier.Get(bctx, fmt.Sprintf("bench/failover/preload/%d", i%preload)); err != nil {
					readFails.Add(1)
				}
			}
			rec.Observe(time.Since(opStart))
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()

	// Availability: reads must have failed over, never failed outright, and
	// write errors are bounded by the breaker window (a handful of in-flight
	// writes while the failure count climbed), not an error storm.
	if n := readFails.Load(); n > 0 {
		b.Fatalf("%d reads failed despite replication and failover", n)
	}
	if n := writeErrs.Load(); injectFault && n > int64(b.N/10+64) {
		b.Fatalf("%d of %d writes failed; the breaker did not contain the dead shard", n, b.N)
	}

	// Zero lost acknowledged writes: with the shard still dead, every
	// acknowledged create reads back through the router.
	for off := 0; off < len(acked); off += 256 {
		end := off + 256
		if end > len(acked) {
			end = len(acked)
		}
		got, err := tier.GetMany(bctx, acked[off:end])
		if err != nil {
			b.Fatalf("reading back acknowledged writes: %v", err)
		}
		if len(got) != end-off {
			b.Fatalf("lost acknowledged writes: read back %d of %d", len(got), end-off)
		}
	}

	res := rec.Result(elapsed)
	b.ReportMetric(res.OpsPerSec, "ops/s")
	b.ReportMetric(float64(res.LatencyNs.P99)/1e6, "p99_ms")
	b.ReportMetric(float64(writeErrs.Load()), "unacked_writes")
	if *benchJSONDir != "" {
		path, err := res.WriteJSON(*benchJSONDir)
		if err != nil {
			b.Fatalf("writing benchmark JSON: %v", err)
		}
		b.Logf("machine-readable result written to %s", path)
	}
}

// benchRestartableShard wraps a durable shard whose process is killed and
// later restarted: while dead every operation fails with a transport error,
// and restart swaps in a fresh instance recovered from the shard's data
// directory. The inner handle is mutex-guarded so the swap is race-free
// against in-flight operations.
type benchRestartableShard struct {
	mu    sync.RWMutex
	inner registry.API
	dead  atomic.Bool
}

func (s *benchRestartableShard) kill() { s.dead.Store(true) }

func (s *benchRestartableShard) restart(inner registry.API) {
	s.mu.Lock()
	s.inner = inner
	s.mu.Unlock()
	s.dead.Store(false)
}

func (s *benchRestartableShard) api() (registry.API, error) {
	if s.dead.Load() {
		return nil, errBenchShardDown
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner, nil
}

// DurableSeq lets the router sample the shard's durable sequence number when
// its breaker opens, enabling the delta repair after the restart.
func (s *benchRestartableShard) DurableSeq() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rec, ok := s.inner.(registry.Recoverable); ok {
		return rec.DurableSeq()
	}
	return 0, false
}

func (s *benchRestartableShard) Site() cloud.SiteID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Site()
}

func (s *benchRestartableShard) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return registry.Entry{}, err
	}
	return api.Create(ctx, e)
}

func (s *benchRestartableShard) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return registry.Entry{}, err
	}
	return api.Put(ctx, e)
}

func (s *benchRestartableShard) Get(ctx context.Context, name string) (registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return registry.Entry{}, err
	}
	return api.Get(ctx, name)
}

func (s *benchRestartableShard) AddLocation(ctx context.Context, name string, loc registry.Location) (registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return registry.Entry{}, err
	}
	return api.AddLocation(ctx, name, loc)
}

func (s *benchRestartableShard) Delete(ctx context.Context, name string) error {
	api, err := s.api()
	if err != nil {
		return err
	}
	return api.Delete(ctx, name)
}

func (s *benchRestartableShard) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return nil, err
	}
	return api.GetMany(ctx, names)
}

func (s *benchRestartableShard) PutMany(ctx context.Context, entries []registry.Entry) ([]registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return nil, err
	}
	return api.PutMany(ctx, entries)
}

func (s *benchRestartableShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	api, err := s.api()
	if err != nil {
		return 0, err
	}
	return api.DeleteMany(ctx, names)
}

func (s *benchRestartableShard) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	api, err := s.api()
	if err != nil {
		return 0, err
	}
	return api.Merge(ctx, entries)
}

func (s *benchRestartableShard) Entries(ctx context.Context) ([]registry.Entry, error) {
	api, err := s.api()
	if err != nil {
		return nil, err
	}
	return api.Entries(ctx)
}

func (s *benchRestartableShard) Names(ctx context.Context) []string {
	api, err := s.api()
	if err != nil {
		return nil
	}
	return api.Names(ctx)
}

func (s *benchRestartableShard) Len(ctx context.Context) int {
	api, err := s.api()
	if err != nil {
		return 0
	}
	return api.Len(ctx)
}

// BenchmarkDurableRestartFailover is the kill-and-*restart* companion of
// BenchmarkReplicatedTierFailover: a 4-shard, 2-way replicated tier of
// durable (WAL-backed, fsync-per-append) shards runs the same mix while one
// shard is killed at the midpoint and restarted from its data directory a
// short outage later. It proves the durability story end to end:
//
//   - zero acknowledged writes are lost (read back after the run);
//   - the restarted shard serves its range from recovered local state — it
//     holds its pre-outage share of the tier without a full re-sync;
//   - repair traffic is the outage delta, near zero relative to the data:
//     router_repaired_entries_total is bounded by the writes issued while
//     the shard was away, and no full sweep runs.
func BenchmarkDurableRestartFailover(b *testing.B) {
	const (
		nShards     = 4
		replication = 2
		victim      = 2
	)
	dataDir := b.TempDir()
	storeOpts := []store.Option{store.WithFsync(store.FsyncAlways)}
	openShard := func(i int) *registry.Instance {
		inst, err := registry.OpenInstance(1, benchShardStore(), filepath.Join(dataDir, fmt.Sprintf("shard-%d", i)), storeOpts)
		if err != nil {
			b.Fatal(err)
		}
		return inst
	}
	shards := make([]*benchRestartableShard, nShards)
	apis := make([]registry.API, nShards)
	insts := make([]*registry.Instance, nShards)
	for i := range apis {
		insts[i] = openShard(i)
		shards[i] = &benchRestartableShard{inner: insts[i]}
		apis[i] = shards[i]
	}
	reg := metrics.NewRegistry()
	tier, err := registry.NewRouter(1, apis,
		registry.WithRouterMetrics(reg),
		registry.WithRouterReplication(replication),
		registry.WithRouterHealth(3, 5*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()

	const preload = 1024
	entries := make([]registry.Entry, preload)
	for i := range entries {
		entries[i] = registry.NewEntry(fmt.Sprintf("bench/restart/preload/%d", i), 4096, "bench",
			registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
	}
	if _, err := tier.PutMany(bctx, entries); err != nil {
		b.Fatal(err)
	}

	// Kill at the midpoint, restart an outage window later. The outage is
	// kept short (N/8 operations) so the benchmark measures recovery of a
	// briefly-dead shard, not an abandoned one.
	killAt := int64(b.N / 2)
	restartAt := killAt + int64(b.N/8)
	injectFault := b.N >= 512
	var recovered *registry.Instance

	rec := experiments.NewBenchRecorder("durable_restart_failover")
	var (
		seq       atomic.Int64
		readFails atomic.Int64
		writeErrs atomic.Int64
		ackMu     sync.Mutex
		acked     []string
	)
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if injectFault && i == killAt {
				// The process dies: the breaker is opened immediately (the
				// organic threshold path is BenchmarkReplicatedTierFailover's
				// subject) and the router samples the shard's durable seq.
				shards[victim].kill()
				tier.MarkShardDown(victim)
			}
			if injectFault && i == restartAt {
				// The process restarts: recover a fresh instance from the
				// shard's data directory and re-enter it into routing.
				insts[victim].Close() //nolint:errcheck // already fsynced per append
				recovered = openShard(victim)
				shards[victim].restart(recovered)
				tier.MarkShardUp(victim)
			}
			opStart := time.Now()
			switch i % 8 {
			case 0, 1:
				name := fmt.Sprintf("bench/restart/new/%d", i)
				_, err := tier.Create(bctx, registry.NewEntry(name, 4096, "bench",
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}))
				if err == nil {
					ackMu.Lock()
					acked = append(acked, name)
					ackMu.Unlock()
				} else if errors.Is(err, registry.ErrUnavailable) {
					writeErrs.Add(1)
				} else {
					b.Errorf("create %q: %v", name, err)
				}
			case 2:
				name := fmt.Sprintf("bench/restart/preload/%d", i%preload)
				if _, err := tier.AddLocation(bctx, name,
					registry.Location{Site: 1, Node: cloud.NodeID(i % 16)}); err != nil {
					if errors.Is(err, registry.ErrUnavailable) {
						writeErrs.Add(1)
					} else {
						b.Errorf("addlocation %q: %v", name, err)
					}
				}
			default:
				if _, err := tier.Get(bctx, fmt.Sprintf("bench/restart/preload/%d", i%preload)); err != nil {
					readFails.Add(1)
				}
			}
			rec.Observe(time.Since(opStart))
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	tier.Wait() // the delta repair must finish before the books are checked

	if n := readFails.Load(); n > 0 {
		b.Fatalf("%d reads failed despite replication and failover", n)
	}
	if n := writeErrs.Load(); injectFault && n > int64(b.N/10+64) {
		b.Fatalf("%d of %d writes failed; the breaker did not contain the dead shard", n, b.N)
	}

	// Zero lost acknowledged writes, with the tier fully recovered.
	for off := 0; off < len(acked); off += 256 {
		end := off + 256
		if end > len(acked) {
			end = len(acked)
		}
		got, err := tier.GetMany(bctx, acked[off:end])
		if err != nil {
			b.Fatalf("reading back acknowledged writes: %v", err)
		}
		if len(got) != end-off {
			b.Fatalf("lost acknowledged writes: read back %d of %d", len(got), end-off)
		}
	}

	if injectFault {
		snap := reg.Snapshot()
		if got := snap.Counters["router_delta_repairs_total"]; got < 1 {
			b.Fatalf("restarted shard was not delta-repaired (router_delta_repairs_total=%d, router_sweeps_total=%d)",
				got, snap.Counters["router_sweeps_total"])
		}
		if got := snap.Counters["router_sweeps_total"]; got != 0 {
			b.Fatalf("recovery fell back to a full re-sync sweep (%d sweeps)", got)
		}
		// Repair traffic near zero: bounded by the outage delta (at most the
		// writes issued during the N/8-op window), nowhere near the tier's
		// total entry count.
		bound := int64(b.N/16 + 64)
		if got := snap.Counters["router_repaired_entries_total"]; got > bound {
			b.Fatalf("router_repaired_entries_total=%d exceeds the outage delta bound %d", got, bound)
		}
		b.ReportMetric(float64(snap.Counters["router_repaired_entries_total"]), "repaired_entries")
		// Local state: the restarted shard answers from what it recovered,
		// holding its pre-outage share of the tier rather than starting cold.
		if n := recovered.Len(bctx); n < preload/8 {
			b.Fatalf("restarted shard recovered only %d entries; it is not serving from local state", n)
		}
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
}
