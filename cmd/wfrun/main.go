// Command wfrun executes a workflow on the multi-site emulation under a
// chosen metadata management strategy and reports the makespan and the
// metadata operation counts.
//
// Usage:
//
//	wfrun -workflow montage -scenario MI -strategy dr -nodes 32
//	wfrun -workflow buzzflow -scenario SS -strategy centralized
//	wfrun -workflow pipeline -tasks 64 -strategy dn
//	wfrun -workflow montage -compare            # all four strategies
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"geomds/internal/core"
	"geomds/internal/experiments"
	"geomds/internal/metrics"
	"geomds/internal/workflow"
	"geomds/internal/workloads"
)

func main() {
	var (
		wfName    = flag.String("workflow", "montage", "workflow to run: montage, buzzflow, pipeline, scatter, gather, broadcast")
		specPath  = flag.String("spec", "", "run a workflow loaded from a JSON spec file instead of a built-in one")
		saveSpec  = flag.String("save-spec", "", "write the selected workflow as a JSON spec to this file and exit")
		scenario  = flag.String("scenario", "SS", "Table I scenario: SS, CI or MI")
		strategy  = flag.String("strategy", "dr", "metadata strategy: c, r, dn or dr")
		compare   = flag.Bool("compare", false, "run the workflow under all four strategies")
		nodes     = flag.Int("nodes", 32, "number of execution nodes")
		tasks     = flag.Int("tasks", 32, "task count for the pattern workflows (pipeline, scatter, ...)")
		scale     = flag.Float64("scale", 0.01, "time-compression factor for injected latencies")
		size      = flag.Float64("size", 1.0, "workload size factor (fraction of the scenario's ops per task)")
		scheduler = flag.String("scheduler", "round-robin", "task scheduler: round-robin, locality or random")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline for each run; 0 means none. On expiry every in-flight metadata operation is cancelled")
		showStats = flag.Bool("stats", false, "print a live-metrics dump (counters, latency histograms, recent ops) after the runs")
	)
	cfg := experiments.DefaultConfig()
	experiments.BindSiteFlags(flag.CommandLine, &cfg.Config)
	flag.Parse()

	sc, err := parseScenario(*scenario)
	if err != nil {
		fatal(err)
	}
	sc.OpsPerTask = int(float64(sc.OpsPerTask) * *size)
	if sc.OpsPerTask < 2 {
		sc.OpsPerTask = 2
	}

	var wf *workflow.Workflow
	if *specPath != "" {
		if wf, err = workflow.LoadSpec(*specPath); err != nil {
			fatal(err)
		}
	} else if wf, err = buildWorkflow(*wfName, sc, *tasks); err != nil {
		fatal(err)
	}
	if *saveSpec != "" {
		if err := wf.SaveSpec(*saveSpec); err != nil {
			fatal(err)
		}
		fmt.Printf("workflow spec written to %s\n", *saveSpec)
		return
	}
	stats, err := wf.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workflow %s: %d jobs, %d files, depth %d, max width %d, ~%d metadata ops\n",
		wf.Name, stats.Tasks, stats.Files, stats.Levels, stats.MaxWidth, stats.MetadataOps)

	kinds := []core.StrategyKind{}
	if *compare {
		kinds = core.Strategies
	} else {
		kind, err := core.ParseStrategy(*strategy)
		if err != nil {
			fatal(err)
		}
		kinds = append(kinds, kind)
	}

	sched, err := pickScheduler(*scheduler)
	if err != nil {
		fatal(err)
	}

	cfg.Scale = *scale
	cfg.Nodes = *nodes
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	for _, kind := range kinds {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		// A fresh environment per strategy, shut down before the next one.
		res, err := cfg.RunWorkflow(ctx, wf, kind, sched, workflow.EngineConfig{})
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fatal(fmt.Errorf("%s: deadline of %v exceeded: %w", kind, *timeout, err))
			}
			fatal(fmt.Errorf("%s: %w", kind, err))
		}
		fmt.Printf("%-22s makespan %8.1fs   reads %7d  writes %7d  retries %6d  (wall %v)\n",
			kind.String(), res.Makespan.Seconds(), res.Reads, res.Writes, res.Retries, res.Wall.Round(time.Millisecond))
	}

	if *showStats {
		// Every run above reported to the process-wide registry (fabric,
		// strategy, propagator/sync-agent, workflow engine and cache series).
		fmt.Printf("\n== live metrics ==\n%s",
			metrics.RenderReport(metrics.Default.Snapshot(), metrics.Default.Trace().Events(15)))
	}
}

func buildWorkflow(name string, sc workloads.Scenario, tasks int) (*workflow.Workflow, error) {
	pattern := workflow.PatternConfig{Prefix: name + "-", FileSize: 1 << 20, Compute: sc.Compute}
	switch name {
	case "montage":
		return workloads.Montage(workloads.DefaultMontageConfig(sc)), nil
	case "buzzflow":
		return workloads.BuzzFlow(workloads.DefaultBuzzFlowConfig(sc)), nil
	case "pipeline":
		return workflow.Pipeline(pattern, tasks), nil
	case "scatter":
		return workflow.Scatter(pattern, tasks), nil
	case "gather":
		return workflow.Gather(pattern, tasks), nil
	case "broadcast":
		return workflow.Broadcast(pattern, tasks), nil
	default:
		return nil, fmt.Errorf("unknown workflow %q", name)
	}
}

func parseScenario(s string) (workloads.Scenario, error) {
	for _, sc := range workloads.Scenarios {
		if sc.Short() == s || sc.Name == s {
			return sc, nil
		}
	}
	return workloads.Scenario{}, fmt.Errorf("unknown scenario %q (want SS, CI or MI)", s)
}

func pickScheduler(name string) (workflow.Scheduler, error) {
	switch name {
	case "round-robin":
		return workflow.RoundRobinScheduler{}, nil
	case "locality":
		return workflow.LocalityScheduler{}, nil
	case "random":
		return workflow.RandomScheduler{Seed: 1}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wfrun: %v\n", err)
	os.Exit(1)
}
