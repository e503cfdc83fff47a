package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// Engine executes workflows on a multi-site deployment, performing every
// file-metadata interaction through a core.MetadataService. Each execution
// node processes its assigned tasks sequentially (the paper's small VMs have
// a single core); independent nodes run concurrently.
//
// For every task the engine follows the metadata passing scheme of §II-A:
// it queries the metadata service for the task's input files, simulates the
// task's computation, and publishes the metadata of the produced files.
// Under eventually consistent strategies an input's metadata may not be
// visible yet; the engine then polls with a configurable back-off, which is
// exactly the "idle time" the hybrid strategy is designed to shrink.
type Engine struct {
	dep *cloud.Deployment
	svc core.MetadataService
	lat *latency.Model
	cfg EngineConfig
	obs engineObs
}

// engineObs holds the engine's observability instruments, resolved once at
// construction on metrics.Default.
type engineObs struct {
	started   *metrics.Counter   // workflow_tasks_started_total
	completed *metrics.Counter   // workflow_tasks_completed_total
	failed    *metrics.Counter   // workflow_tasks_failed_total
	retries   *metrics.Counter   // workflow_retries_total: polls that found an input not yet visible
	taskTime  *metrics.Histogram // workflow_task_latency_ns (wall-clock)
}

func newEngineObs(reg *metrics.Registry) engineObs {
	return engineObs{
		started:   reg.Counter("workflow_tasks_started_total"),
		completed: reg.Counter("workflow_tasks_completed_total"),
		failed:    reg.Counter("workflow_tasks_failed_total"),
		retries:   reg.Counter("workflow_retries_total"),
		taskTime:  reg.Histogram("workflow_task_latency_ns"),
	}
}

// EngineConfig tunes the execution engine.
type EngineConfig struct {
	// RetryInterval is the simulated delay between polls when an input's
	// metadata is not yet visible (default 250 ms).
	RetryInterval time.Duration
	// MaxRetries bounds the polls per input before giving up (default 400).
	MaxRetries int
}

// DefaultRetryInterval is the default simulated metadata-poll interval.
const DefaultRetryInterval = 250 * time.Millisecond

// DefaultMaxRetries is the default bound on metadata polls per input.
const DefaultMaxRetries = 400

// NewEngine returns an engine executing workflows on the given deployment
// through the given metadata service. The latency model converts simulated
// compute and retry intervals into (scaled) wall-clock waits.
func NewEngine(dep *cloud.Deployment, svc core.MetadataService, lat *latency.Model, cfg EngineConfig) *Engine {
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = DefaultRetryInterval
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	return &Engine{dep: dep, svc: svc, lat: lat, cfg: cfg, obs: newEngineObs(metrics.Default)}
}

// Result summarizes one workflow execution.
type Result struct {
	// Workflow is the executed workflow's name.
	Workflow string
	// Strategy is the metadata strategy used.
	Strategy core.StrategyKind
	// Makespan is the end-to-end execution time in simulated seconds.
	Makespan time.Duration
	// Wall is the wall-clock time the (scaled) execution took.
	Wall time.Duration
	// Reads and Writes count metadata operations performed by tasks.
	Reads, Writes int
	// Retries counts metadata polls that found an input not yet visible.
	Retries int
	// StageInWrites counts metadata writes for external inputs.
	StageInWrites int
	// TaskTime records each task's execution time (metadata + compute).
	TaskTime map[string]time.Duration
	// NodeBusy records the total busy time per node.
	NodeBusy map[cloud.NodeID]time.Duration
}

// MetadataOps returns the total number of task-issued metadata operations.
func (r Result) MetadataOps() int { return r.Reads + r.Writes }

// Run executes the workflow under the given schedule and returns the
// execution summary. The workflow must validate and the schedule must cover
// it. The context bounds the whole run: once it is cancelled (or its
// deadline passes) every in-flight task aborts at its next metadata
// operation, retry wait, or simulated-compute sleep, and Run returns with
// the first error recorded — typically one wrapping context.Canceled or
// context.DeadlineExceeded.
func (e *Engine) Run(ctx context.Context, w *Workflow, sched Schedule) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := sched.Validate(w, e.dep); err != nil {
		return Result{}, err
	}

	res := Result{
		Workflow: w.Name,
		Strategy: e.svc.Kind(),
		TaskTime: make(map[string]time.Duration, w.NumTasks()),
		NodeBusy: make(map[cloud.NodeID]time.Duration, e.dep.NumNodes()),
	}
	start := time.Now()

	n, err := e.stageIn(ctx, w)
	res.StageInWrites = n
	if err != nil {
		return res, err
	}

	// Dependency bookkeeping.
	tasks := w.Tasks()
	remaining := make(map[string]int, len(tasks))
	dependents := make(map[string][]string, len(tasks))
	for _, t := range tasks {
		deps, err := w.Dependencies(t.ID)
		if err != nil {
			return res, err
		}
		remaining[t.ID] = len(deps)
		for _, d := range deps {
			dependents[d] = append(dependents[d], t.ID)
		}
	}

	// One buffered queue per node; the dispatcher never blocks.
	queues := make(map[cloud.NodeID]chan *Task, e.dep.NumNodes())
	for i := 0; i < e.dep.NumNodes(); i++ {
		queues[cloud.NodeID(i)] = make(chan *Task, len(tasks))
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     sync.WaitGroup
	)
	done.Add(len(tasks))

	var dispatch func(id string)
	dispatch = func(id string) {
		t, _ := w.Task(id)
		queues[sched[id]] <- t
	}

	complete := func(id string) {
		mu.Lock()
		next := make([]string, 0, len(dependents[id]))
		for _, dep := range dependents[id] {
			remaining[dep]--
			if remaining[dep] == 0 {
				next = append(next, dep)
			}
		}
		mu.Unlock()
		for _, id := range next {
			dispatch(id)
		}
		done.Done()
	}

	recordErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Node workers.
	var workers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < e.dep.NumNodes(); i++ {
		node := e.dep.Node(cloud.NodeID(i))
		workers.Add(1)
		go func(node cloud.Node, queue chan *Task) {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				case t := <-queue:
					e.obs.started.Inc()
					taskStart := time.Now()
					reads, writes, retries, err := e.runTask(ctx, node, t)
					wall := time.Since(taskStart)
					if err == nil {
						e.obs.completed.Inc()
					} else {
						e.obs.failed.Inc()
					}
					e.obs.retries.Add(int64(retries))
					e.obs.taskTime.ObserveDuration(wall)
					elapsed := e.lat.ToSimulated(wall)
					mu.Lock()
					res.Reads += reads
					res.Writes += writes
					res.Retries += retries
					res.TaskTime[t.ID] = elapsed
					res.NodeBusy[node.ID] += elapsed
					mu.Unlock()
					if err != nil {
						recordErr(fmt.Errorf("task %q on %s: %w", t.ID, node.Name, err))
					}
					complete(t.ID)
				}
			}
		}(node, queues[node.ID])
	}

	// Seed the ready tasks.
	initial := make([]string, 0)
	mu.Lock()
	for id, n := range remaining {
		if n == 0 {
			initial = append(initial, id)
		}
	}
	mu.Unlock()
	for _, id := range initial {
		dispatch(id)
	}

	done.Wait()
	close(stop)
	workers.Wait()

	res.Wall = time.Since(start)
	res.Makespan = e.lat.ToSimulated(res.Wall)
	return res, firstErr
}

// stageIn publishes metadata entries for the workflow's external inputs,
// spreading their locations round-robin across the deployment's sites.
func (e *Engine) stageIn(ctx context.Context, w *Workflow) (int, error) {
	sites := e.dep.Topology().Sites()
	writes := 0
	for i, f := range w.ExternalInputs {
		site := sites[i%len(sites)].ID
		entry := registry.NewEntry(f.Name, f.Size, "stage-in", registry.Location{Site: site, Node: registry.NoNode})
		if _, err := e.svc.Create(ctx, site, entry); err != nil && !errors.Is(err, core.ErrExists) {
			return writes, fmt.Errorf("stage-in %q: %w", f.Name, err)
		}
		writes++
	}
	return writes, nil
}

// runTask executes one task on one node: resolve inputs, compute, publish
// outputs.
func (e *Engine) runTask(ctx context.Context, node cloud.Node, t *Task) (reads, writes, retries int, err error) {
	// Resolve every input's metadata, polling while it is not yet visible.
	for _, in := range t.Inputs {
		r, rr, lookupErr := e.lookupWithRetry(ctx, node, in)
		reads += r
		retries += rr
		if lookupErr != nil {
			return reads, writes, retries, lookupErr
		}
	}

	// Simulate the task's computation.
	if t.Compute > 0 {
		if err := e.lat.InjectDuration(ctx, t.Compute); err != nil {
			return reads, writes, retries, err
		}
	}

	// Publish the produced files.
	for _, out := range t.Outputs {
		entry := registry.NewEntry(out.Name, out.Size, t.ID, registry.Location{Site: node.Site, Node: node.ID})
		if _, createErr := e.svc.Create(ctx, node.Site, entry); createErr != nil {
			if errors.Is(createErr, core.ErrExists) {
				// Another attempt already published it (idempotent restart);
				// record the copy we now hold instead.
				if _, locErr := e.svc.AddLocation(ctx, node.Site, out.Name, registry.Location{Site: node.Site, Node: node.ID}); locErr != nil {
					return reads, writes, retries, locErr
				}
			} else {
				return reads, writes, retries, createErr
			}
		}
		writes++
	}
	return reads, writes, retries, nil
}

// lookupWithRetry polls the metadata service until the entry is visible from
// the node's site or the retry budget is exhausted.
func (e *Engine) lookupWithRetry(ctx context.Context, node cloud.Node, name string) (reads, retries int, err error) {
	for attempt := 0; attempt <= e.cfg.MaxRetries; attempt++ {
		reads++
		_, lookupErr := e.svc.Lookup(ctx, node.Site, name)
		if lookupErr == nil {
			return reads, retries, nil
		}
		if !errors.Is(lookupErr, core.ErrNotFound) {
			return reads, retries, lookupErr
		}
		retries++
		if err := e.lat.InjectDuration(ctx, e.cfg.RetryInterval); err != nil {
			return reads, retries, err
		}
	}
	return reads, retries, fmt.Errorf("workflow: input %q never became visible from %s after %d polls: %w",
		name, node.Name, e.cfg.MaxRetries, core.ErrNotFound)
}
