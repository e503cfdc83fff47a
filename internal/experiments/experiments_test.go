package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"geomds/internal/core"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/workflow"
	"geomds/internal/workloads"
)

var tctx = context.Background()

// testConfig shrinks the workloads far below QuickConfig so the whole figure
// suite runs in a few seconds while preserving the latency hierarchy that
// determines strategy ordering.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SizeFactor = 0.004
	cfg.Nodes = 8
	cfg.SyncInterval = 200 * time.Millisecond
	cfg.FlushInterval = 100 * time.Millisecond
	return cfg
}

func TestConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale <= 0 || cfg.SizeFactor != 1.0 || cfg.Nodes != 32 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	q := QuickConfig()
	if q.SizeFactor >= cfg.SizeFactor {
		t.Error("QuickConfig should shrink the workloads")
	}
	if cfg.scaled(1000, 10) != 1000 {
		t.Error("scaled at factor 1.0 should be identity")
	}
	if q.scaled(100, 10) != 10 {
		t.Errorf("scaled(100) at 0.02 = %d, want the minimum 10", q.scaled(100, 10))
	}
	topo := cfg.topology()
	if cfg.centralSite(topo) != 1 { // West Europe is site 1 in Azure4DC
		t.Errorf("centralSite = %d", cfg.centralSite(topo))
	}
	bad := cfg
	bad.CentralSite = "Atlantis"
	if bad.centralSite(topo) != 0 {
		t.Error("unknown central site should fall back to site 0")
	}
}

func TestConfigFeedSync(t *testing.T) {
	cfg := testConfig()
	cfg.FeedSync = true
	env := cfg.newEnvironment(8)
	defer env.close()
	svc, err := cfg.newService(tctx, env, core.Replicated)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rs, ok := svc.(*core.ReplicatedService)
	if !ok || !rs.FeedDriven() {
		t.Fatalf("FeedSync config built %T (feed-driven=%v), want a feed-driven replicated service", svc, ok)
	}
	if _, err := env.fabric.FeedSources(); err != nil {
		t.Fatalf("FeedSync environment exposes no feed sources: %v", err)
	}
}

func TestConfigNearCache(t *testing.T) {
	cfg := testConfig()
	cfg.NearCache = true
	env := cfg.newEnvironment(8)
	defer env.close()
	for _, site := range env.fabric.Sites() {
		inst, err := env.fabric.Instance(site)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := inst.(*readcache.Cache); !ok {
			t.Fatalf("NearCache site %d serves a %T, want *readcache.Cache", site, inst)
		}
	}
	// NearCache alone must attach change feeds — without them the caches
	// would silently degrade to TTL staleness.
	if _, err := env.fabric.FeedSources(); err != nil {
		t.Fatalf("NearCache environment exposes no feed sources: %v", err)
	}
}

func TestNewEnvironmentAndService(t *testing.T) {
	cfg := testConfig()
	env := cfg.newEnvironment(8)
	if env.dep.NumNodes() != 8 || len(env.fabric.Sites()) != 4 {
		t.Fatalf("environment wrong: %d nodes, %d sites", env.dep.NumNodes(), len(env.fabric.Sites()))
	}
	for _, kind := range core.Strategies {
		svc, err := cfg.newService(tctx, cfg.newEnvironment(4), kind)
		if err != nil {
			t.Fatalf("newService(%v): %v", kind, err)
		}
		if svc.Kind() != kind {
			t.Errorf("Kind = %v, want %v", svc.Kind(), kind)
		}
		svc.Close()
	}
}

func TestEnvironmentWithDataDir(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Two environments over the same DataDir must not share state: each logs
	// under its own run subdirectory and starts empty.
	first := cfg.newEnvironment(4)
	site := first.fabric.Sites()[0]
	inst, err := first.fabric.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	e := registry.NewEntry("datadir/probe", 1, "t", registry.Location{Site: site, Node: 1})
	if _, err := inst.Create(tctx, e); err != nil {
		t.Fatal(err)
	}
	if err := first.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	second := cfg.newEnvironment(4)
	defer second.close()
	inst, err = second.fabric.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	if n := inst.Len(tctx); n != 0 {
		t.Errorf("fresh environment recovered %d entries from a previous run, want 0", n)
	}

	bad := cfg
	bad.DataDir = "/dev/null/not-a-dir"
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted an impossible data dir")
	}
	bad = cfg
	bad.Replication = 2
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted replication without a sharded tier")
	}
}

// TestRunWorkflowClosesWhatItBuilds runs a workflow over sharded, replicated,
// feeding, near-cached sites and checks no router, feed, cache or strategy
// goroutine outlives the call — what cmd/wfrun relies on between -compare
// runs.
func TestRunWorkflowClosesWhatItBuilds(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.Replication, cfg.NearCache, cfg.FeedSync = 3, 2, true, true
	wf := workflow.Pipeline(workflow.PatternConfig{Prefix: "leak-", FileSize: 1}, 6)
	res, err := cfg.RunWorkflow(tctx, wf, core.DecentralizedReplicated, workflow.RoundRobinScheduler{}, workflow.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("the workflow published nothing")
	}
	leaked := func() string {
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, pkg := range []string{"internal/registry.", "internal/feed.", "internal/readcache.", "internal/core."} {
				if strings.Contains(g, "geomds/"+pkg) {
					return g
				}
			}
		}
		return ""
	}
	// Goroutines that were told to stop may still be unwinding.
	for deadline := time.Now().Add(5 * time.Second); leaked() != ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a goroutine outlived RunWorkflow:\n%s", leaked())
		}
	}
}

func TestFigure1(t *testing.T) {
	res, err := Figure1(tctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Figure1FileCounts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The latency hierarchy must show on the largest file count.
	last := res.Rows[len(res.Rows)-1]
	if !(last.Local < last.SameRegion && last.SameRegion < last.GeoDistant) {
		t.Errorf("latency hierarchy violated: %+v", last)
	}
	// Remote posting of many files must cost far more than local posting
	// (the paper reports an order-of-magnitude gap; the reduced-size test run
	// checks a conservative 5x to stay robust against scheduling noise).
	if last.GeoDistant < 5*last.Local {
		t.Errorf("geo-distant (%v) should be >= 5x local (%v)", last.GeoDistant, last.Local)
	}
	if !strings.Contains(res.Render(), "Figure 1") || !strings.Contains(res.CSV(), "files,") {
		t.Error("rendering looks wrong")
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(tctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(Figure5OpCounts)*len(core.Strategies) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	biggest := Figure5OpCounts[len(Figure5OpCounts)-1]
	central, _ := res.Cell(core.Centralized, biggest)
	hybrid, _ := res.Cell(core.DecentralizedReplicated, biggest)
	if central.MeanNodeTime <= 0 || hybrid.MeanNodeTime <= 0 {
		t.Fatal("mean node times must be positive")
	}
	// The headline of Fig. 5: for large op counts the hybrid strategy beats
	// the centralized baseline.
	if hybrid.MeanNodeTime >= central.MeanNodeTime {
		t.Errorf("hybrid (%v) should beat centralized (%v) at %d ops/node",
			hybrid.MeanNodeTime, central.MeanNodeTime, biggest)
	}
	if central.TotalOps != workloads.ExpectedTotalOps(8, biggest) {
		t.Errorf("TotalOps = %d", central.TotalOps)
	}
	if _, ok := res.Cell(core.Centralized, 123456); ok {
		t.Error("Cell should miss unknown op counts")
	}
	if !strings.Contains(res.Render(), "Figure 5") || !strings.Contains(res.CSV(), "strategy,") {
		t.Error("rendering looks wrong")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(tctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != len(Figure6Percentages) {
			t.Fatalf("%s has %d points", s.Strategy, len(s.Points))
		}
		// Progress curves are monotone.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].At < s.Points[i-1].At {
				t.Errorf("%s progress curve not monotone at %v%%", s.Strategy, s.Points[i].Percent)
			}
		}
	}
	if res.MidBandSpeedup <= 0 {
		t.Errorf("MidBandSpeedup = %v, want > 0", res.MidBandSpeedup)
	}
	if !strings.Contains(res.Render(), "Figure 6") || !strings.Contains(res.CSV(), "percent") {
		t.Error("rendering looks wrong")
	}
}

func TestFigure7(t *testing.T) {
	res, err := Figure7(tctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(ScalingNodeCounts)*len(core.Strategies) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Decentralized throughput grows with the node count...
	dec8, _ := res.Point(core.Decentralized, 8)
	dec128, _ := res.Point(core.Decentralized, 128)
	if dec128.Throughput <= dec8.Throughput {
		t.Errorf("decentralized throughput should grow: 8 nodes %.0f, 128 nodes %.0f",
			dec8.Throughput, dec128.Throughput)
	}
	// ...and clearly exceeds the centralized baseline at 128 nodes. The
	// emulation realizes that gain by actually running the four sites'
	// registries in parallel, so the ordering is only guaranteed where
	// hardware parallelism exists; on a single-CPU runner both strategies
	// are bound by the same core and the comparison is scheduler noise.
	// Even with two cores, `go test ./...` loads them with other packages'
	// tests, which costs the four parallel sites more than the one central
	// one; so before the ordering fails, the two 128-node points are measured
	// once more and the assertion is made on that second pair.
	cen128, _ := res.Point(core.Centralized, 128)
	decT, cenT := dec128.Throughput, cen128.Throughput
	if decT <= cenT && runtime.GOMAXPROCS(0) > 1 {
		t.Logf("decentralized %.0f ops/s vs centralized %.0f ops/s at 128 nodes; measuring the pair again", decT, cenT)
		cfg := testConfig()
		again := func(kind core.StrategyKind) float64 {
			run, err := runSynthetic(tctx, cfg, kind, 128, cfg.scaled(5000, 20), nil)
			if err != nil {
				t.Fatal(err)
			}
			return run.Throughput
		}
		decT, cenT = again(core.Decentralized), again(core.Centralized)
	}
	if decT <= cenT {
		if runtime.GOMAXPROCS(0) > 1 {
			t.Errorf("decentralized (%.0f ops/s) should beat centralized (%.0f ops/s) at 128 nodes", decT, cenT)
		} else {
			t.Logf("single-CPU runner: decentralized %.0f ops/s vs centralized %.0f ops/s at 128 nodes (ordering not asserted)",
				decT, cenT)
		}
	}
	if _, ok := res.Point(core.Centralized, 7); ok {
		t.Error("Point should miss unknown node counts")
	}
	if !strings.Contains(res.Render(), "Figure 7") || !strings.Contains(res.CSV(), "throughput") {
		t.Error("rendering looks wrong")
	}
}

func TestFigure8(t *testing.T) {
	res, err := Figure8(tctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(ScalingNodeCounts)*len(core.Strategies) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Completing the fixed workload gets faster with more nodes for the
	// decentralized strategy.
	dec8, _ := res.Point(core.Decentralized, 8)
	dec128, _ := res.Point(core.Decentralized, 128)
	if dec128.CompletionTime >= dec8.CompletionTime {
		t.Errorf("decentralized completion should drop with more nodes: %v at 8, %v at 128",
			dec8.CompletionTime, dec128.CompletionTime)
	}
	if !strings.Contains(res.Render(), "Figure 8") || !strings.Contains(res.CSV(), "completion") {
		t.Error("rendering looks wrong")
	}
}

func TestFigure9AndTableI(t *testing.T) {
	fig9, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig9.Rows) != 2 {
		t.Fatalf("rows = %d", len(fig9.Rows))
	}
	var buzz, montage Figure9Row
	for _, r := range fig9.Rows {
		switch r.Workflow {
		case "buzzflow":
			buzz = r
		case "montage":
			montage = r
		}
	}
	if buzz.Jobs != 72 {
		t.Errorf("BuzzFlow jobs = %d, want 72", buzz.Jobs)
	}
	if montage.MaxWidth <= buzz.MaxWidth {
		t.Error("Montage should be wider than BuzzFlow")
	}
	if buzz.Levels <= montage.Levels {
		t.Error("BuzzFlow should be deeper than Montage")
	}
	if !strings.Contains(fig9.Render(), "buzzflow") {
		t.Error("rendering looks wrong")
	}

	tbl, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table I rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Render(), "Metadata Intensive") {
		t.Error("Table I rendering looks wrong")
	}
}

func TestFigure10(t *testing.T) {
	res, err := Figure10(tctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := len(Figure10Workflows) * len(workloads.Scenarios) * len(core.Strategies)
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Makespan <= 0 {
			t.Errorf("%s/%s/%s makespan = %v", c.Workflow, c.Scenario, c.Strategy, c.Makespan)
		}
		if c.Ops <= 0 {
			t.Errorf("%s/%s/%s ops = %d", c.Workflow, c.Scenario, c.Strategy, c.Ops)
		}
	}
	if _, ok := res.Cell("montage", "MI", core.Centralized); !ok {
		t.Error("expected montage/MI/centralized cell")
	}
	if _, ok := res.Cell("nope", "SS", core.Centralized); ok {
		t.Error("unknown workflow should miss")
	}
	if !strings.Contains(res.Render(), "Figure 10") || !strings.Contains(res.CSV(), "workflow,") {
		t.Error("rendering looks wrong")
	}
}

func TestAblationLocalReplica(t *testing.T) {
	cfg := testConfig()
	res, err := AblationLocalReplica(tctx, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicatedMeanRead <= 0 || res.NonReplicatedMeanRead <= 0 {
		t.Fatal("mean reads must be positive")
	}
	// Reading back locally produced entries: the local replica must win.
	if res.Speedup <= 1.0 {
		t.Errorf("local replica read speedup = %.2f, want > 1", res.Speedup)
	}
	if res.LocalHitRate <= 0.9 {
		t.Errorf("local hit rate = %.2f, want ~1.0 for self-produced entries", res.LocalHitRate)
	}
	if !strings.Contains(res.Render(), "local replica") {
		t.Error("rendering looks wrong")
	}
}

func TestAblationLazyVsEager(t *testing.T) {
	res, err := AblationLazyVsEager(tctx, testConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteSpeedup <= 1.0 {
		t.Errorf("lazy propagation writer speedup = %.2f, want > 1", res.WriteSpeedup)
	}
	if !strings.Contains(res.Render(), "lazy") {
		t.Error("rendering looks wrong")
	}
}

func TestAblationHashingChurn(t *testing.T) {
	res := AblationHashingChurn(5000)
	if res.Keys != 5000 {
		t.Errorf("Keys = %d", res.Keys)
	}
	if res.RingFraction >= res.ModuloFraction {
		t.Errorf("consistent hashing (%.2f) should move fewer keys than modulo (%.2f)",
			res.RingFraction, res.ModuloFraction)
	}
	if !strings.Contains(res.Render(), "churn") {
		t.Error("rendering looks wrong")
	}
	if AblationHashingChurn(0).Keys != 10000 {
		t.Error("default key count not applied")
	}
}

func TestAblationRegistryCapacity(t *testing.T) {
	res, err := AblationRegistryCapacity(tctx, testConfig(), 3*time.Millisecond, 16, 20)
	if err != nil {
		t.Fatal(err)
	}
	// As in TestFigure7: under `go test ./...` other packages' tests load the
	// cores the four parallel sites need, so the pair is measured once more
	// before the ordering fails.
	if res.DecentralizedThroughput <= res.CentralizedThroughput {
		t.Logf("decentralized %.0f ops/s vs centralized %.0f ops/s; measuring the pair again",
			res.DecentralizedThroughput, res.CentralizedThroughput)
		if res, err = AblationRegistryCapacity(tctx, testConfig(), 3*time.Millisecond, 16, 20); err != nil {
			t.Fatal(err)
		}
	}
	if res.DecentralizedThroughput <= res.CentralizedThroughput {
		t.Errorf("decentralized (%.0f) should out-throughput centralized (%.0f) under a capacity-bound registry",
			res.DecentralizedThroughput, res.CentralizedThroughput)
	}
	if !strings.Contains(res.Render(), "capacity") {
		t.Error("rendering looks wrong")
	}
}

func TestAblationScheduler(t *testing.T) {
	cfg := testConfig()
	sc := workloads.Scenario{Name: "tiny", OpsPerTask: 4, Compute: 0}
	res, err := AblationScheduler(tctx, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespan) != 3 {
		t.Fatalf("schedulers covered = %d", len(res.Makespan))
	}
	for name, d := range res.Makespan {
		if d <= 0 {
			t.Errorf("%s makespan = %v", name, d)
		}
	}
	if !strings.Contains(res.Render(), "scheduling") {
		t.Error("rendering looks wrong")
	}
}

func TestAblationProvisioning(t *testing.T) {
	cfg := testConfig()
	sc := workloads.Scenario{Name: "prov", OpsPerTask: 6, Compute: 2 * time.Second}
	res, err := AblationProvisioning(cfg, sc, workflow.RoundRobinScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers == 0 {
		t.Fatal("a round-robin Montage schedule must need cross-site transfers")
	}
	if res.ResidualIdle > res.OnDemandIdle {
		t.Errorf("prefetching cannot add idle time: %+v", res)
	}
	if res.IdleReduction < 0 || res.IdleReduction > 1 {
		t.Errorf("IdleReduction = %v", res.IdleReduction)
	}
	if !strings.Contains(res.Render(), "provisioning") {
		t.Error("rendering looks wrong")
	}
	// A nil scheduler falls back to round-robin.
	if _, err := AblationProvisioning(cfg, sc, nil); err != nil {
		t.Errorf("nil scheduler: %v", err)
	}
}
