package workflow

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// diamond builds the classic diamond DAG:
//
//	  a
//	 / \
//	b   c
//	 \ /
//	  d
func diamond() *Workflow {
	w := New("diamond")
	w.AddExternalInput("in", 100)
	w.MustAddTask(Task{ID: "a", Inputs: []string{"in"}, Outputs: []FileSpec{{Name: "a.out", Size: 10}}, Compute: time.Second})
	w.MustAddTask(Task{ID: "b", Inputs: []string{"a.out"}, Outputs: []FileSpec{{Name: "b.out", Size: 10}}, Compute: 2 * time.Second})
	w.MustAddTask(Task{ID: "c", Inputs: []string{"a.out"}, Outputs: []FileSpec{{Name: "c.out", Size: 10}}, Compute: 3 * time.Second})
	w.MustAddTask(Task{ID: "d", Inputs: []string{"b.out", "c.out"}, Outputs: []FileSpec{{Name: "d.out", Size: 10}}, Compute: time.Second})
	return w
}

func TestAddTaskErrors(t *testing.T) {
	w := New("w")
	if err := w.AddTask(Task{ID: ""}); err == nil {
		t.Error("empty ID should be rejected")
	}
	if err := w.AddTask(Task{ID: "t1", Outputs: []FileSpec{{Name: "f"}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask(Task{ID: "t1"}); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("duplicate task = %v", err)
	}
	if err := w.AddTask(Task{ID: "t2", Outputs: []FileSpec{{Name: "f"}}}); !errors.Is(err, ErrDuplicateOutput) {
		t.Errorf("duplicate output = %v", err)
	}
}

func TestMustAddTaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w := New("w")
	w.MustAddTask(Task{ID: ""})
}

func TestTaskLookup(t *testing.T) {
	w := diamond()
	if w.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d", w.NumTasks())
	}
	task, err := w.Task("b")
	if err != nil || task.ID != "b" {
		t.Errorf("Task(b): %v", err)
	}
	if _, err := w.Task("zzz"); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task = %v", err)
	}
	if p := w.Producer("a.out"); p == nil || p.ID != "a" {
		t.Error("Producer(a.out) should be task a")
	}
	if w.Producer("in") != nil {
		t.Error("external inputs have no producer")
	}
	if len(w.Tasks()) != 4 {
		t.Error("Tasks() length mismatch")
	}
}

func TestDependencies(t *testing.T) {
	w := diamond()
	deps, err := w.Dependencies("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[0] != "b" || deps[1] != "c" {
		t.Errorf("Dependencies(d) = %v", deps)
	}
	deps, _ = w.Dependencies("a")
	if len(deps) != 0 {
		t.Errorf("Dependencies(a) = %v, want none (external input)", deps)
	}
}

func TestValidateMissingInput(t *testing.T) {
	w := New("w")
	w.MustAddTask(Task{ID: "t", Inputs: []string{"ghost"}})
	if err := w.Validate(); !errors.Is(err, ErrMissingInput) {
		t.Errorf("Validate = %v, want ErrMissingInput", err)
	}
}

func TestValidateCycle(t *testing.T) {
	w := New("w")
	w.MustAddTask(Task{ID: "x", Inputs: []string{"y.out"}, Outputs: []FileSpec{{Name: "x.out"}}})
	w.MustAddTask(Task{ID: "y", Inputs: []string{"x.out"}, Outputs: []FileSpec{{Name: "y.out"}}})
	if err := w.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("Validate = %v, want ErrCycle", err)
	}
}

func TestTopoSort(t *testing.T) {
	w := diamond()
	order, err := w.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, id := range order {
		pos[id] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Errorf("topological order violated: %v", order)
	}
}

func TestLevels(t *testing.T) {
	w := diamond()
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("Levels = %d, want 3", len(levels))
	}
	if len(levels[0]) != 1 || levels[0][0] != "a" {
		t.Errorf("level 0 = %v", levels[0])
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 = %v", levels[1])
	}
	if len(levels[2]) != 1 || levels[2][0] != "d" {
		t.Errorf("level 2 = %v", levels[2])
	}
}

func TestStats(t *testing.T) {
	w := diamond()
	s, err := w.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks != 4 || s.Files != 4 || s.ExternalInputs != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Levels != 3 || s.MaxWidth != 2 {
		t.Errorf("Levels/MaxWidth = %d/%d", s.Levels, s.MaxWidth)
	}
	if s.TotalCompute != 7*time.Second {
		t.Errorf("TotalCompute = %v", s.TotalCompute)
	}
	// inputs: 1+1+1+2 = 5 reads, outputs: 4 writes
	if s.MetadataOps != 9 {
		t.Errorf("MetadataOps = %d, want 9", s.MetadataOps)
	}
}

func TestPatternPipeline(t *testing.T) {
	cfg := PatternConfig{Prefix: "p-", FileSize: 1 << 20, Compute: time.Second}
	w := Pipeline(cfg, 5)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s, _ := w.Stats()
	if s.Tasks != 5 || s.Levels != 5 || s.MaxWidth != 1 {
		t.Errorf("pipeline stats = %+v", s)
	}
	if Pipeline(cfg, 0).NumTasks() != 0 {
		t.Error("zero-length pipeline should be empty")
	}
}

func TestPatternScatter(t *testing.T) {
	w := Scatter(PatternConfig{Prefix: "s-"}, 8)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s, _ := w.Stats()
	if s.Tasks != 9 || s.Levels != 2 || s.MaxWidth != 8 {
		t.Errorf("scatter stats = %+v", s)
	}
}

func TestPatternGather(t *testing.T) {
	w := Gather(PatternConfig{Prefix: "g-"}, 6)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s, _ := w.Stats()
	if s.Tasks != 7 || s.Levels != 2 || s.MaxWidth != 6 {
		t.Errorf("gather stats = %+v", s)
	}
	collect, _ := w.Task("g-collect")
	if len(collect.Inputs) != 6 {
		t.Errorf("collector inputs = %d", len(collect.Inputs))
	}
}

func TestPatternBroadcast(t *testing.T) {
	w := Broadcast(PatternConfig{Prefix: "b-"}, 10)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s, _ := w.Stats()
	if s.Tasks != 11 || s.MaxWidth != 10 {
		t.Errorf("broadcast stats = %+v", s)
	}
}

// Property: every pattern builder yields a valid (acyclic, closed) workflow
// whose topological order contains every task exactly once.
func TestPatternValidityProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		cfg := PatternConfig{Prefix: fmt.Sprintf("q%d-", n), FileSize: 1024, Compute: time.Millisecond}
		for _, w := range []*Workflow{
			Pipeline(cfg, n), Scatter(cfg, n), Gather(cfg, n), Broadcast(cfg, n),
		} {
			if err := w.Validate(); err != nil {
				return false
			}
			order, err := w.TopoSort()
			if err != nil || len(order) != w.NumTasks() {
				return false
			}
			seen := make(map[string]bool)
			for _, id := range order {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
