package workloads

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/metrics"
	"geomds/internal/workflow"
)

func newWorkloadFixture(t *testing.T, kind core.StrategyKind, nodes int) (core.MetadataService, *cloud.Deployment, *latency.Model) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(9), latency.WithSleeper(func(time.Duration) {}))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0))
	svc, err := core.NewService(fabric, kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(nodes)
	return svc, dep, lat
}

func TestSyntheticConfigDefaults(t *testing.T) {
	cfg := SyntheticConfig{}.withDefaults()
	if cfg.OpsPerNode != 100 || cfg.Prefix == "" || cfg.ReadRetryInterval <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestRunSyntheticCentralized(t *testing.T) {
	svc, dep, lat := newWorkloadFixture(t, core.Centralized, 8)
	prog := metrics.NewProgress(ExpectedTotalOps(8, 20))
	res, err := RunSynthetic(context.Background(), svc, dep, lat, SyntheticConfig{OpsPerNode: 20, Seed: 1, Prefix: "t1"}, prog)
	if err != nil {
		t.Fatalf("RunSynthetic: %v", err)
	}
	if res.Nodes != 8 || res.OpsPerNode != 20 {
		t.Errorf("result identity: %+v", res)
	}
	if res.TotalOps != 160 {
		t.Errorf("TotalOps = %d, want 160", res.TotalOps)
	}
	if prog.Completed() != 160 {
		t.Errorf("progress recorded %d ops", prog.Completed())
	}
	if len(res.NodeTimes) != 8 {
		t.Errorf("NodeTimes = %d entries", len(res.NodeTimes))
	}
	if res.Makespan <= 0 || res.MeanNodeTime <= 0 {
		t.Errorf("timings not positive: %+v", res)
	}
	if res.Makespan < res.MeanNodeTime {
		t.Error("makespan cannot be below the mean node time")
	}
	// In this fixture the latency model never sleeps, so readers race far
	// ahead of the writers and many reads legitimately miss; the sanity bound
	// only guards against every single read missing (which would indicate the
	// reader/writer name scheme diverged).
	if res.Misses >= res.TotalOps/2 {
		t.Errorf("Misses = %d out of %d ops; every read missed", res.Misses, res.TotalOps)
	}
}

func TestRunSyntheticAllStrategies(t *testing.T) {
	for _, kind := range core.Strategies {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			svc, dep, lat := newWorkloadFixture(t, kind, 8)
			res, err := RunSynthetic(context.Background(), svc, dep, lat,
				SyntheticConfig{OpsPerNode: 15, Seed: 2, Prefix: "t-" + kind.Short(), ReadRetryInterval: time.Millisecond}, nil)
			if err != nil {
				t.Fatalf("RunSynthetic: %v", err)
			}
			if res.TotalOps != 8*15 {
				t.Errorf("TotalOps = %d, want %d", res.TotalOps, 8*15)
			}
			if res.Throughput <= 0 {
				t.Errorf("Throughput = %v", res.Throughput)
			}
		})
	}
}

func TestRunSyntheticNeedsTwoNodes(t *testing.T) {
	svc, _, lat := newWorkloadFixture(t, core.Centralized, 4)
	small := cloud.NewDeployment(cloud.Azure4DC())
	small.AddNode(0)
	if _, err := RunSynthetic(context.Background(), svc, small, lat, SyntheticConfig{}, nil); err == nil {
		t.Error("expected error with fewer than 2 nodes")
	}
}

func TestEntryNameDeterministic(t *testing.T) {
	if entryName("p", 1, 2) != entryName("p", 1, 2) {
		t.Error("entryName must be deterministic")
	}
	if entryName("p", 1, 2) == entryName("p", 2, 1) {
		t.Error("entryName must distinguish writer and index")
	}
}

func TestScenarios(t *testing.T) {
	if SmallScale.OpsPerTask != 100 || SmallScale.Compute != time.Second {
		t.Errorf("SmallScale = %+v", SmallScale)
	}
	if ComputationIntensive.OpsPerTask != 200 || ComputationIntensive.Compute != 5*time.Second {
		t.Errorf("ComputationIntensive = %+v", ComputationIntensive)
	}
	if MetadataIntensive.OpsPerTask != 1000 || MetadataIntensive.Compute != time.Second {
		t.Errorf("MetadataIntensive = %+v", MetadataIntensive)
	}
	shorts := map[string]string{"Small Scale": "SS", "Computation Intensive": "CI", "Metadata Intensive": "MI"}
	for _, sc := range Scenarios {
		if sc.Short() != shorts[sc.Name] {
			t.Errorf("Short(%s) = %s", sc.Name, sc.Short())
		}
	}
	if (Scenario{Name: "custom"}).Short() != "custom" {
		t.Error("unknown scenario Short should echo the name")
	}
}

func TestBuzzFlowShape(t *testing.T) {
	w := BuzzFlow(DefaultBuzzFlowConfig(SmallScale))
	if err := w.Validate(); err != nil {
		t.Fatalf("BuzzFlow invalid: %v", err)
	}
	if w.NumTasks() != 72 {
		t.Errorf("BuzzFlow jobs = %d, want 72 (paper Table I)", w.NumTasks())
	}
	if w.NumTasks() != JobCount("buzzflow", 16) {
		t.Errorf("JobCount mismatch: %d vs %d", w.NumTasks(), JobCount("buzzflow", 16))
	}
	stats, _ := w.Stats()
	// Near-pipelined: the DAG is deep relative to its width.
	if stats.Levels < 10 {
		t.Errorf("BuzzFlow depth = %d, want a deep near-pipeline", stats.Levels)
	}
	if stats.MaxWidth != 16 {
		t.Errorf("BuzzFlow max width = %d, want 16", stats.MaxWidth)
	}
	// Total metadata ops ≈ 72 jobs × 100 ops (paper: 7 200).
	if stats.MetadataOps < 6000 || stats.MetadataOps > 8500 {
		t.Errorf("BuzzFlow SS total ops = %d, want ≈7200", stats.MetadataOps)
	}
}

func TestMontageShape(t *testing.T) {
	w := Montage(DefaultMontageConfig(SmallScale))
	if err := w.Validate(); err != nil {
		t.Fatalf("Montage invalid: %v", err)
	}
	if w.NumTasks() != JobCount("montage", 52) {
		t.Errorf("Montage jobs = %d, want %d", w.NumTasks(), JobCount("montage", 52))
	}
	stats, _ := w.Stats()
	// Split -> parallel -> merge: wide but shallow compared to BuzzFlow.
	if stats.MaxWidth != 52 {
		t.Errorf("Montage max width = %d, want 52", stats.MaxWidth)
	}
	if stats.Levels >= 12 {
		t.Errorf("Montage depth = %d, want a shallow split/merge DAG", stats.Levels)
	}
	// Total metadata ops ≈ 160 jobs × 100 ops (paper: 16 000).
	if stats.MetadataOps < 13000 || stats.MetadataOps > 19000 {
		t.Errorf("Montage SS total ops = %d, want ≈16000", stats.MetadataOps)
	}
}

func TestTableITotalsScaleWithScenario(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("TableI rows = %d", len(rows))
	}
	// MI must be roughly 10x SS for both workflows (1000 vs 100 ops/task).
	ss, mi := rows[0], rows[2]
	if ratio := float64(mi.TotalOpsBuzz) / float64(ss.TotalOpsBuzz); ratio < 7 || ratio > 13 {
		t.Errorf("BuzzFlow MI/SS ratio = %.1f, want ≈10", ratio)
	}
	if ratio := float64(mi.TotalOpsMontage) / float64(ss.TotalOpsMontage); ratio < 7 || ratio > 13 {
		t.Errorf("Montage MI/SS ratio = %.1f, want ≈10", ratio)
	}
	// MI totals should be in the ballpark of the paper's 72 000 and 150 000.
	if mi.TotalOpsBuzz < 55000 || mi.TotalOpsBuzz > 90000 {
		t.Errorf("BuzzFlow MI total = %d, want ≈72000", mi.TotalOpsBuzz)
	}
	if mi.TotalOpsMontage < 120000 || mi.TotalOpsMontage > 190000 {
		t.Errorf("Montage MI total = %d, want ≈150000", mi.TotalOpsMontage)
	}
}

func TestJobCountUnknown(t *testing.T) {
	if JobCount("unknown", 5) != 0 {
		t.Error("unknown workflow should report 0 jobs")
	}
	if JobCount("buzzflow", 0) != 72 || JobCount("montage", 0) != JobCount("montage", 52) {
		t.Error("default widths not applied")
	}
}

func TestWorkflowsRunThroughEngine(t *testing.T) {
	// End-to-end: a reduced Montage runs through the real engine under the
	// hybrid strategy (eager propagation, because this fixture's latency
	// model never sleeps and lazy flush timers would race the spinning
	// retries) and publishes every file it promises.
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(9), latency.WithSleeper(func(time.Duration) {}))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0))
	svc, err := core.NewDecReplicated(fabric, core.StrategyConfig{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(16)
	cfg := WorkflowConfig{Scenario: Scenario{Name: "tiny", OpsPerTask: 6, Compute: 0}, Width: 6, FileSize: 1024, Prefix: "mini-montage"}
	w := Montage(cfg)
	sched, err := (workflow.LocalityScheduler{}).Schedule(w, dep)
	if err != nil {
		t.Fatal(err)
	}
	eng := workflow.NewEngine(dep, svc, lat, workflow.EngineConfig{RetryInterval: time.Millisecond})
	res, err := eng.Run(context.Background(), w, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats, _ := w.Stats()
	if res.Writes != stats.Files {
		t.Errorf("published %d files, workflow defines %d", res.Writes, stats.Files)
	}
}

// Property: window never returns more elements than requested nor than the
// pool holds, and all returned elements come from the pool.
func TestWindowProperty(t *testing.T) {
	f := func(poolRaw []uint8, offset, n uint8) bool {
		pool := make([]string, len(poolRaw))
		set := make(map[string]bool)
		for i := range poolRaw {
			pool[i] = entryName("w", i, int(poolRaw[i]))
			set[pool[i]] = true
		}
		out := window(pool, int(offset), int(n%32))
		if len(out) > len(pool) || len(out) > int(n%32) && len(out) != len(pool) {
			return false
		}
		for _, s := range out {
			if !set[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: generated workflows are valid for any scenario and width.
func TestGeneratorValidityProperty(t *testing.T) {
	f := func(widthRaw, opsRaw uint8) bool {
		width := int(widthRaw%10) + 1
		sc := Scenario{Name: "q", OpsPerTask: int(opsRaw%20) + 2, Compute: 0}
		buzz := BuzzFlow(WorkflowConfig{Scenario: sc, Width: width, Prefix: "qb"})
		mon := Montage(WorkflowConfig{Scenario: sc, Width: width, Prefix: "qm"})
		return buzz.Validate() == nil && mon.Validate() == nil &&
			buzz.NumTasks() == JobCount("buzzflow", width) &&
			mon.NumTasks() == JobCount("montage", width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
