package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/registry"
)

// newEngineFixture builds a 4-site deployment, a no-sleep latency model and a
// metadata service of the given strategy, plus an engine over them.
func newEngineFixture(t *testing.T, kind core.StrategyKind, nodes int, cfg EngineConfig) (*Engine, core.MetadataService, *cloud.Deployment, *latency.Model) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(3), latency.WithSleeper(func(time.Duration) {}))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0))
	svc, err := core.NewService(fabric, kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(nodes)
	return NewEngine(dep, svc, lat, cfg), svc, dep, lat
}

func TestEngineRunsDiamond(t *testing.T) {
	eng, svc, dep, _ := newEngineFixture(t, core.Centralized, 8, EngineConfig{})
	w := diamond()
	sched, _ := (RoundRobinScheduler{}).Schedule(w, dep)
	res, err := eng.Run(context.Background(), w, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Workflow != "diamond" || res.Strategy != core.Centralized {
		t.Errorf("result identity wrong: %+v", res)
	}
	// 5 input reads, 4 output writes, 1 external stage-in.
	if res.Reads < 5 || res.Writes != 4 || res.StageInWrites != 1 {
		t.Errorf("ops = %d reads / %d writes / %d stage-in", res.Reads, res.Writes, res.StageInWrites)
	}
	if res.MetadataOps() != res.Reads+res.Writes {
		t.Error("MetadataOps accessor inconsistent")
	}
	if len(res.TaskTime) != 4 {
		t.Errorf("TaskTime covers %d tasks", len(res.TaskTime))
	}
	// Every produced file must now be resolvable.
	for _, f := range []string{"a.out", "b.out", "c.out", "d.out"} {
		if _, err := svc.Lookup(context.Background(), 0, f); err != nil {
			t.Errorf("output %q not published: %v", f, err)
		}
	}
}

func TestEngineAllStrategies(t *testing.T) {
	w := Scatter(PatternConfig{Prefix: "es-", FileSize: 1 << 16, Compute: 0}, 12)
	for _, kind := range core.Strategies {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			// A short retry interval keeps eventually consistent strategies fast
			// in the no-sleep test fixture.
			eng, _, dep, _ := newEngineFixture(t, kind, 16, EngineConfig{RetryInterval: time.Millisecond})
			sched, err := (LocalityScheduler{}).Schedule(w, dep)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), w, sched)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			// Scatter(12): the splitter publishes 12 part files and each of
			// the 12 workers publishes one output.
			if res.Writes != 24 {
				t.Errorf("Writes = %d, want 24", res.Writes)
			}
		})
	}
}

// hidingService answers every Lookup of one name with ErrNotFound, as an
// eventually consistent strategy does before the entry propagates.
type hidingService struct {
	core.MetadataService
	hidden string
}

func (h hidingService) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	if name == h.hidden {
		return registry.Entry{}, fmt.Errorf("lookup %q: %w", name, core.ErrNotFound)
	}
	return h.MetadataService.Lookup(ctx, from, name)
}

// TestEngineGivesUpOnAnInputNeverVisible: a task polls an input that never
// becomes visible MaxRetries times after its first read, then fails the run
// with ErrNotFound.
func TestEngineGivesUpOnAnInputNeverVisible(t *testing.T) {
	_, svc, dep, lat := newEngineFixture(t, core.Centralized, 4, EngineConfig{})
	eng := NewEngine(dep, hidingService{MetadataService: svc, hidden: "in"}, lat, EngineConfig{MaxRetries: 3, RetryInterval: time.Millisecond})
	w := diamond()
	sched, _ := (RoundRobinScheduler{}).Schedule(w, dep)
	res, err := eng.Run(context.Background(), w, sched)
	if !errors.Is(err, core.ErrNotFound) || !strings.Contains(err.Error(), "after 3 polls") {
		t.Fatalf("Run = %v, want ErrNotFound after 3 polls", err)
	}
	if res.StageInWrites != 1 || res.Writes != 0 {
		t.Errorf("stage-in %d, writes %d; want 1 and 0", res.StageInWrites, res.Writes)
	}
}

func TestEngineRejectsInvalidWorkflow(t *testing.T) {
	eng, _, dep, _ := newEngineFixture(t, core.Centralized, 4, EngineConfig{})
	bad := New("bad")
	bad.MustAddTask(Task{ID: "t", Inputs: []string{"ghost"}})
	sched := Schedule{"t": 0}
	if _, err := eng.Run(context.Background(), bad, sched); err == nil {
		t.Error("invalid workflow should not run")
	}
	// Valid workflow, incomplete schedule.
	w := diamond()
	if _, err := eng.Run(context.Background(), w, Schedule{"a": 0}); err == nil {
		t.Error("incomplete schedule should not run")
	}
	_ = dep
}

func TestEngineMakespanReflectsCompute(t *testing.T) {
	// With a real (scaled) latency model, a pipeline of 4 tasks x 100ms of
	// compute must take at least 400ms of simulated time.
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(3), latency.WithScale(0.05))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0))
	svc, err := core.NewService(fabric, core.Decentralized)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(4)
	eng := NewEngine(dep, svc, lat, EngineConfig{})

	w := Pipeline(PatternConfig{Prefix: "mk-", Compute: 100 * time.Millisecond}, 4)
	sched, _ := (LocalityScheduler{}).Schedule(w, dep)
	res, err := eng.Run(context.Background(), w, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 400*time.Millisecond {
		t.Errorf("Makespan = %v, want >= 400ms of simulated compute", res.Makespan)
	}
	if res.Wall >= res.Makespan {
		t.Errorf("wall time %v should be far below simulated makespan %v at scale 0.05", res.Wall, res.Makespan)
	}
}

func TestEngineEventualConsistencyRetries(t *testing.T) {
	// Under the replicated strategy with a long sync interval, a consumer
	// task scheduled on a different site than its producer must poll until
	// the agent propagates the metadata; the run still completes because the
	// engine flushes... it does not flush, so the retries are resolved by the
	// background agent. Use a short agent interval to keep the test fast.
	topo := cloud.Azure4DC()
	// Real sleeps at a small scale so the retry interval genuinely waits for
	// the background agent instead of spinning through the retry budget.
	lat := latency.New(topo, latency.WithSeed(5), latency.WithScale(0.05))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0))
	svc, err := core.NewReplicated(fabric, core.StrategyConfig{SyncInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(8)
	// Simulated 50ms polls at scale 0.05 = 2.5ms of wall time per retry.
	eng := NewEngine(dep, svc, lat, EngineConfig{RetryInterval: 50 * time.Millisecond, MaxRetries: 5000})

	w := Pipeline(PatternConfig{Prefix: "ec-"}, 4)
	// Force producer/consumer onto different sites with a round-robin
	// schedule over a spread deployment.
	sched, _ := (RoundRobinScheduler{}).Schedule(w, dep)
	res, err := eng.Run(context.Background(), w, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Retries == 0 {
		t.Log("no retries observed (agent was fast enough); acceptable but unusual")
	}
}

// TestEngineRunHonoursCancelledContext asserts a cancelled run context aborts
// the workflow: tasks fail at their next metadata operation instead of
// executing to completion, and the error surfaces context.Canceled.
func TestEngineRunHonoursCancelledContext(t *testing.T) {
	eng, _, dep, _ := newEngineFixture(t, core.Centralized, 8, EngineConfig{})
	w := diamond()
	sched, _ := (RoundRobinScheduler{}).Schedule(w, dep)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Run(ctx, w, sched)
	if err == nil {
		t.Fatal("Run under a cancelled context should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}
