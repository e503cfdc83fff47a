package experiments

import (
	"context"
	"fmt"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/dht"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/workflow"
	"geomds/internal/workloads"
)

// This file contains ablation studies for the design choices called out in
// DESIGN.md: the local-replica read path, lazy vs eager propagation, the
// hashing scheme under membership churn, the capacity of a single registry
// instance, and locality-aware task scheduling.

// AblationLocalReplicaResult compares the read path of the two decentralized
// strategies: the hybrid strategy's local replica should raise the local-hit
// ratio and lower the mean read latency (paper Fig. 3: local reads are up to
// ~50x faster than geo-distant ones).
type AblationLocalReplicaResult struct {
	NonReplicatedMeanRead time.Duration
	ReplicatedMeanRead    time.Duration
	LocalHitRate          float64
	Speedup               float64
}

// AblationLocalReplica runs the same produce-then-consume pattern under the
// decentralized strategies with and without local replication: every node
// writes a set of entries and then reads back its own entries (the dominant
// pattern when the scheduler co-locates consumers with producers).
func AblationLocalReplica(ctx context.Context, cfg Config, entriesPerNode int) (AblationLocalReplicaResult, error) {
	if entriesPerNode <= 0 {
		entriesPerNode = 50
	}
	var res AblationLocalReplicaResult

	run := func(kind core.StrategyKind) (time.Duration, float64, error) {
		env := cfg.newEnvironment(cfg.Nodes)
		defer env.close()
		svc, err := cfg.newService(ctx, env, kind)
		if err != nil {
			return 0, 0, err
		}
		defer svc.Close()
		for _, node := range env.dep.Nodes() {
			for i := 0; i < entriesPerNode; i++ {
				name := fmt.Sprintf("ablation-replica/%s/n%d/f%d", kind.Short(), node.ID, i)
				e := registry.NewEntry(name, 0, "writer", registry.Location{Site: node.Site, Node: node.ID})
				if _, err := svc.Create(ctx, node.Site, e); err != nil {
					return 0, 0, err
				}
			}
		}
		if err := svc.Flush(ctx); err != nil {
			return 0, 0, err
		}
		env.rec.Reset() // isolate the read phase
		for _, node := range env.dep.Nodes() {
			for i := 0; i < entriesPerNode; i++ {
				name := fmt.Sprintf("ablation-replica/%s/n%d/f%d", kind.Short(), node.ID, i)
				if _, err := svc.Lookup(ctx, node.Site, name); err != nil {
					return 0, 0, err
				}
			}
		}
		reads := env.rec.SummarizeKind(metrics.OpRead)
		hitRate := 0.0
		if dr, ok := svc.(*core.DecReplicatedService); ok {
			hitRate = dr.LocalHitRate()
		}
		return reads.Mean, hitRate, nil
	}

	var err error
	if res.NonReplicatedMeanRead, _, err = run(core.Decentralized); err != nil {
		return res, err
	}
	if res.ReplicatedMeanRead, res.LocalHitRate, err = run(core.DecentralizedReplicated); err != nil {
		return res, err
	}
	if res.ReplicatedMeanRead > 0 {
		res.Speedup = float64(res.NonReplicatedMeanRead) / float64(res.ReplicatedMeanRead)
	}
	return res, nil
}

// AblationLazyVsEagerResult compares lazy (batched, asynchronous) and eager
// (synchronous) propagation to the hashed home site in the hybrid strategy.
type AblationLazyVsEagerResult struct {
	LazyMeanWrite  time.Duration
	EagerMeanWrite time.Duration
	WriteSpeedup   float64
}

// AblationLazyVsEager measures the writer-perceived latency of Create under
// lazy and eager propagation (paper §III-D: lazy updates achieve low
// user-perceived response latency).
func AblationLazyVsEager(ctx context.Context, cfg Config, entriesPerNode int) (AblationLazyVsEagerResult, error) {
	if entriesPerNode <= 0 {
		entriesPerNode = 50
	}
	var res AblationLazyVsEagerResult

	run := func(eager bool) (time.Duration, error) {
		env := cfg.newEnvironment(cfg.Nodes)
		defer env.close()
		svc, err := core.NewDecReplicated(env.fabric, core.StrategyConfig{FlushInterval: cfg.FlushInterval, Eager: eager})
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		for _, node := range env.dep.Nodes() {
			for i := 0; i < entriesPerNode; i++ {
				name := fmt.Sprintf("ablation-lazy/%v/n%d/f%d", eager, node.ID, i)
				e := registry.NewEntry(name, 0, "writer", registry.Location{Site: node.Site, Node: node.ID})
				if _, err := svc.Create(ctx, node.Site, e); err != nil {
					return 0, err
				}
			}
		}
		return env.rec.SummarizeKind(metrics.OpWrite).Mean, nil
	}

	var err error
	if res.LazyMeanWrite, err = run(false); err != nil {
		return res, err
	}
	if res.EagerMeanWrite, err = run(true); err != nil {
		return res, err
	}
	if res.LazyMeanWrite > 0 {
		res.WriteSpeedup = float64(res.EagerMeanWrite) / float64(res.LazyMeanWrite)
	}
	return res, nil
}

// AblationHashingChurnResult compares how many placements move when a site
// joins the deployment under modulo hashing vs consistent hashing.
type AblationHashingChurnResult struct {
	Keys           int
	ModuloMoved    int
	ModuloFraction float64
	RingMoved      int
	RingFraction   float64
}

// AblationHashingChurn quantifies the metadata-migration cost of elasticity
// (paper §VIII: "the problem of varying number of metadata servers").
func AblationHashingChurn(keys int) AblationHashingChurnResult {
	if keys <= 0 {
		keys = 10000
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("churn/file%08d", i)
	}
	sites4 := []cloud.SiteID{0, 1, 2, 3}
	sites5 := []cloud.SiteID{0, 1, 2, 3, 4}

	res := AblationHashingChurnResult{Keys: keys}
	res.ModuloMoved, res.ModuloFraction = dht.Moved(dht.NewModuloPlacer(sites4), dht.NewModuloPlacer(sites5), names)
	res.RingMoved, res.RingFraction = dht.Moved(dht.NewRingPlacer(sites4, 0), dht.NewRingPlacer(sites5, 0), names)
	return res
}

// AblationCapacityResult shows how the throughput of the centralized baseline
// saturates with the capacity of its single cache instance while the
// decentralized strategy keeps scaling (the mechanism behind Figs. 7 and 8).
type AblationCapacityResult struct {
	ServiceTime             time.Duration
	CentralizedThroughput   float64
	DecentralizedThroughput float64
}

// AblationRegistryCapacity runs the synthetic benchmark at one node count for
// the centralized and decentralized strategies under a given per-operation
// service time of the cache instances.
func AblationRegistryCapacity(ctx context.Context, cfg Config, serviceTime time.Duration, nodes, opsPerNode int) (AblationCapacityResult, error) {
	runCfg := cfg
	runCfg.ServiceTime = serviceTime
	res := AblationCapacityResult{ServiceTime: serviceTime}
	c, err := runSynthetic(ctx, runCfg, core.Centralized, nodes, opsPerNode, nil)
	if err != nil {
		return res, err
	}
	d, err := runSynthetic(ctx, runCfg, core.Decentralized, nodes, opsPerNode, nil)
	if err != nil {
		return res, err
	}
	res.CentralizedThroughput = c.Throughput
	res.DecentralizedThroughput = d.Throughput
	return res, nil
}

// AblationKeyDistributionResult compares the synthetic benchmark under
// uniform, Zipfian and hot-spot read skew: skewed reads concentrate load on
// the shards homing the popular keys, so throughput and mean node time
// degrade relative to uniform.
type AblationKeyDistributionResult struct {
	Strategy core.StrategyKind
	// Runs holds one synthetic result per distribution, in Distributions
	// order.
	Distributions []workloads.KeyDist
	Runs          []workloads.SyntheticResult
}

// AblationKeyDistribution runs the synthetic benchmark under the hybrid
// strategy with uniform, Zipfian and hot-spot reader key picks. Zero nodes or
// opsPerNode fall back to the config's node count and a reduced operation
// budget.
func AblationKeyDistribution(ctx context.Context, cfg Config, nodes, opsPerNode int) (AblationKeyDistributionResult, error) {
	if nodes <= 0 {
		nodes = cfg.Nodes
	}
	if opsPerNode <= 0 {
		opsPerNode = cfg.scaled(1000, 20)
	}
	res := AblationKeyDistributionResult{
		Strategy: core.DecentralizedReplicated,
		Distributions: []workloads.KeyDist{
			{Kind: workloads.KeyUniform},
			{Kind: workloads.KeyZipfian},
			{Kind: workloads.KeyHotspot},
		},
	}
	for _, dist := range res.Distributions {
		runCfg := cfg
		runCfg.KeyDist = dist
		run, err := runSynthetic(ctx, runCfg, res.Strategy, nodes, opsPerNode, nil)
		if err != nil {
			return res, fmt.Errorf("keydist ablation %s: %w", dist, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// AblationSchedulerResult compares workflow makespans under locality-aware,
// round-robin and random task placement.
type AblationSchedulerResult struct {
	Strategy core.StrategyKind
	Makespan map[string]time.Duration
}

// AblationScheduler runs a reduced Montage workflow under the hybrid strategy
// with three schedulers, isolating the benefit the paper attributes to
// engines scheduling dependent tasks in the same datacenter.
func AblationScheduler(ctx context.Context, cfg Config, sc workloads.Scenario) (AblationSchedulerResult, error) {
	res := AblationSchedulerResult{
		Strategy: core.DecentralizedReplicated,
		Makespan: make(map[string]time.Duration, 3),
	}
	schedulers := []workflow.Scheduler{
		workflow.LocalityScheduler{},
		workflow.RoundRobinScheduler{},
		workflow.RandomScheduler{Seed: cfg.Seed},
	}
	for _, sched := range schedulers {
		env := cfg.newEnvironment(cfg.Nodes)
		svc, err := cfg.newService(ctx, env, core.DecentralizedReplicated)
		if err != nil {
			env.close()
			return res, err
		}
		wcfg := workloads.DefaultMontageConfig(sc)
		wcfg.Prefix = "ablation-sched-" + sched.Name()
		wf := workloads.Montage(wcfg)
		plan, err := sched.Schedule(wf, env.dep)
		if err != nil {
			svc.Close()
			env.close()
			return res, err
		}
		eng := workflow.NewEngine(env.dep, svc, env.lat, workflow.EngineConfig{})
		run, err := eng.Run(ctx, wf, plan)
		svc.Close()
		env.close()
		if err != nil {
			return res, err
		}
		res.Makespan[sched.Name()] = run.Makespan
	}
	return res, nil
}
