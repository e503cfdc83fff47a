// Package workflow models scientific workflows — directed acyclic graphs of
// batch tasks exchanging data through files — and executes them on a
// multi-site cloud deployment through a metadata service.
//
// Workflow tasks are standalone computations that read input files, compute
// for a while and produce output files; the workflow engine is essentially a
// scheduler that builds and manages the task-dependency graph based on the
// tasks' input/output files (paper §I). The engine in this package follows
// the paper's well-defined metadata passing scheme: it queries the metadata
// service to retrieve a job's input files, runs the job, and stores the
// metadata of the results (§II-A).
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// FileSpec describes one file produced by a task.
type FileSpec struct {
	// Name is the globally unique file name.
	Name string
	// Size is the file size in bytes.
	Size int64
}

// Task is one batch job of a workflow.
type Task struct {
	// ID uniquely identifies the task within its workflow.
	ID string
	// Stage is an optional label grouping tasks of the same phase
	// (e.g. "mProject", "mAdd"); used for reporting only.
	Stage string
	// Inputs are the names of the files the task reads. They must either be
	// produced by other tasks of the workflow or declared as external inputs.
	Inputs []string
	// Outputs are the files the task produces. Output names must be unique
	// across the whole workflow (write-once semantics, paper §II-A).
	Outputs []FileSpec
	// Compute is the simulated computation time of the task.
	Compute time.Duration
}

// Workflow is a DAG of tasks connected by file dependencies.
type Workflow struct {
	// Name identifies the workflow (e.g. "montage", "buzzflow").
	Name string
	// ExternalInputs are files assumed to pre-exist (staged-in data sets).
	ExternalInputs []FileSpec

	tasks []*Task
	byID  map[string]*Task
	// producer maps every produced file name to the task that creates it.
	producer map[string]*Task
}

// Validation errors.
var (
	// ErrDuplicateTask is returned when two tasks share an ID.
	ErrDuplicateTask = errors.New("workflow: duplicate task id")
	// ErrDuplicateOutput is returned when two tasks produce the same file.
	ErrDuplicateOutput = errors.New("workflow: duplicate output file")
	// ErrMissingInput is returned when a task reads a file nobody produces
	// and that is not an external input.
	ErrMissingInput = errors.New("workflow: missing input file")
	// ErrCycle is returned when the task graph contains a cycle.
	ErrCycle = errors.New("workflow: dependency cycle")
	// ErrUnknownTask is returned when referencing a task that does not exist.
	ErrUnknownTask = errors.New("workflow: unknown task")
)

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{
		Name:     name,
		byID:     make(map[string]*Task),
		producer: make(map[string]*Task),
	}
}

// AddExternalInput declares a file that exists before the workflow starts.
func (w *Workflow) AddExternalInput(name string, size int64) {
	w.ExternalInputs = append(w.ExternalInputs, FileSpec{Name: name, Size: size})
}

// AddTask adds a task to the workflow. It returns an error if the ID or any
// output name is already taken.
func (w *Workflow) AddTask(t Task) error {
	if t.ID == "" {
		return fmt.Errorf("%w: empty id", ErrUnknownTask)
	}
	if _, exists := w.byID[t.ID]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	for _, out := range t.Outputs {
		if _, exists := w.producer[out.Name]; exists {
			return fmt.Errorf("%w: %q", ErrDuplicateOutput, out.Name)
		}
	}
	task := t // copy; the workflow owns its task values
	w.tasks = append(w.tasks, &task)
	w.byID[task.ID] = &task
	for _, out := range task.Outputs {
		w.producer[out.Name] = &task
	}
	return nil
}

// MustAddTask adds a task and panics on error; convenient in generators whose
// construction is statically known to be valid.
func (w *Workflow) MustAddTask(t Task) {
	if err := w.AddTask(t); err != nil {
		panic(err)
	}
}

// NumTasks returns the number of tasks.
func (w *Workflow) NumTasks() int { return len(w.tasks) }

// Tasks returns the tasks in insertion order.
func (w *Workflow) Tasks() []*Task {
	out := make([]*Task, len(w.tasks))
	copy(out, w.tasks)
	return out
}

// Task returns the task with the given ID.
func (w *Workflow) Task(id string) (*Task, error) {
	t, ok := w.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	return t, nil
}

// Producer returns the task producing the given file, or nil if the file is
// an external input (or unknown).
func (w *Workflow) Producer(file string) *Task { return w.producer[file] }

// isExternal reports whether the file is declared as an external input.
func (w *Workflow) isExternal(file string) bool {
	for _, f := range w.ExternalInputs {
		if f.Name == file {
			return true
		}
	}
	return false
}

// Dependencies returns the IDs of the tasks that must complete before the
// given task can run (the producers of its non-external inputs), without
// duplicates, in sorted order.
func (w *Workflow) Dependencies(id string) ([]string, error) {
	t, err := w.Task(id)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, in := range t.Inputs {
		if p := w.producer[in]; p != nil {
			set[p.ID] = true
		} else if !w.isExternal(in) {
			return nil, fmt.Errorf("%w: task %q reads %q", ErrMissingInput, id, in)
		}
	}
	deps := make([]string, 0, len(set))
	for d := range set {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	return deps, nil
}

// Validate checks the structural invariants of the workflow: every input is
// produced exactly once or staged externally, and the graph is acyclic.
func (w *Workflow) Validate() error {
	for _, t := range w.tasks {
		if _, err := w.Dependencies(t.ID); err != nil {
			return err
		}
	}
	if _, err := w.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns the task IDs in a topological order (dependencies before
// dependents). It returns ErrCycle if the graph has a cycle.
func (w *Workflow) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(w.tasks))
	dependents := make(map[string][]string, len(w.tasks))
	for _, t := range w.tasks {
		deps, err := w.Dependencies(t.ID)
		if err != nil {
			return nil, err
		}
		indeg[t.ID] = len(deps)
		for _, d := range deps {
			dependents[d] = append(dependents[d], t.ID)
		}
	}
	// Kahn's algorithm with deterministic (sorted) tie-breaking.
	var ready []string
	for _, t := range w.tasks {
		if indeg[t.ID] == 0 {
			ready = append(ready, t.ID)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		next := dependents[id]
		sort.Strings(next)
		for _, dep := range next {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(order) != len(w.tasks) {
		return nil, ErrCycle
	}
	return order, nil
}

// Levels groups task IDs by dependency depth: level 0 contains tasks with no
// workflow-internal dependencies, level k tasks whose deepest dependency is
// at level k-1. Tasks within one level can run in parallel.
func (w *Workflow) Levels() ([][]string, error) {
	order, err := w.TopoSort()
	if err != nil {
		return nil, err
	}
	depth := make(map[string]int, len(order))
	maxDepth := 0
	for _, id := range order {
		deps, _ := w.Dependencies(id)
		d := 0
		for _, dep := range deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[id] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]string, maxDepth+1)
	for _, id := range order {
		levels[depth[id]] = append(levels[depth[id]], id)
	}
	return levels, nil
}

// Stats summarizes a workflow's shape.
type Stats struct {
	// Tasks is the number of tasks.
	Tasks int
	// Files is the number of files produced by the workflow.
	Files int
	// ExternalInputs is the number of staged-in files.
	ExternalInputs int
	// Levels is the DAG depth.
	Levels int
	// MaxWidth is the size of the largest level (degree of parallelism).
	MaxWidth int
	// TotalCompute is the sum of all task compute times.
	TotalCompute time.Duration
	// MetadataOps estimates the number of metadata operations an execution
	// performs: one read per task input plus one write per task output.
	MetadataOps int
}

// Stats computes summary statistics; the workflow must be valid.
func (w *Workflow) Stats() (Stats, error) {
	levels, err := w.Levels()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Tasks:          len(w.tasks),
		Files:          len(w.producer),
		ExternalInputs: len(w.ExternalInputs),
		Levels:         len(levels),
	}
	for _, lvl := range levels {
		if len(lvl) > s.MaxWidth {
			s.MaxWidth = len(lvl)
		}
	}
	for _, t := range w.tasks {
		s.TotalCompute += t.Compute
		s.MetadataOps += len(t.Inputs) + len(t.Outputs)
	}
	return s, nil
}
