// Command metasim regenerates the paper's tables and figures on the
// multi-site emulation.
//
// Usage:
//
//	metasim -fig 5                 # regenerate Figure 5 at paper scale
//	metasim -fig 7 -quick          # reduced-size run (same shape, seconds)
//	metasim -table 1               # regenerate Table I
//	metasim -fig 10 -csv fig10.csv # also write the series as CSV
//	metasim -ablations             # run the design-choice ablations
//	metasim -all -quick            # everything, reduced size
//	metasim -fig 7 -quick -stats   # with live statistics while it runs
//
// -stats renders live observability while the emulation serves load: a
// statistics line on stderr every two seconds (operation counts and rates,
// queue depths, task progress) sourced from the process-wide metrics
// registry every instrumented component reports to, plus a full metrics
// snapshot and the most recent per-operation trace events once the run
// completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"geomds/internal/experiments"
	"geomds/internal/metrics"
	"geomds/internal/site"
	"geomds/internal/workloads"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (1, 5, 6, 7, 8, 9, 10)")
		table     = flag.Int("table", 0, "table to regenerate (1)")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations")
		quick     = flag.Bool("quick", false, "reduced-size run (keeps the shape, finishes in seconds)")
		scale     = flag.Float64("scale", 0, "override the time-compression factor (e.g. 0.01)")
		size      = flag.Float64("size", 0, "override the workload size factor (1.0 = paper scale)")
		nodes     = flag.Int("nodes", 0, "override the node count for fixed-size experiments")
		keydist   = flag.String("keydist", "", "key distribution for the synthetic readers: uniform (default), zipfian[:s], or hotspot[:frac,weight]")
		tenants   = flag.Int("tenants", 0, "spread the synthetic workload's nodes across this many tenants (node n runs as tenant-<n mod N>); 0 keeps every node on the default tenant")
		csvPath   = flag.String("csv", "", "write the result series as CSV to this file")
		seed      = flag.Int64("seed", 0, "override the random seed")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline for the whole run; 0 means none")
		stats     = flag.Bool("stats", false, "print live statistics during the run and a metrics dump at the end")
	)
	// The flags that shape each site's registry decode straight into the
	// site.Config every environment is built from.
	var tier site.Config
	experiments.BindSiteFlags(flag.CommandLine, &tier)
	flag.BoolVar(&tier.NearCache, "cache", false, "front every site's registry with a feed-coherent near cache (reads served locally, invalidated by the change feed)")
	flag.StringVar(&tier.DataDir, "data-dir", "", "back every registry with a write-ahead log under this directory, so runs pay real durability costs (each run logs under its own subdirectory)")
	flag.Var(&tier.Fsync, "fsync", "write-ahead log fsync policy with -data-dir: always (default) or never")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Config = tier
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *size > 0 {
		cfg.SizeFactor = *size
	}
	if *nodes > 0 {
		cfg.Nodes = *nodes
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *tenants < 0 {
		fmt.Fprintln(os.Stderr, "metasim: -tenants must be >= 0")
		os.Exit(2)
	}
	cfg.Tenants = *tenants
	if *keydist != "" {
		dist, err := workloads.ParseKeyDist(*keydist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metasim: -keydist: %v\n", err)
			os.Exit(2)
		}
		cfg.KeyDist = dist
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "metasim: %v\n", err)
		os.Exit(2)
	}

	if !*all && *fig == 0 && *table == 0 && !*ablations {
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *stats {
		stopStats := startLiveStats(os.Stderr, 2*time.Second)
		defer func() {
			stopStats()
			fmt.Printf("\n== live metrics ==\n%s",
				metrics.RenderReport(metrics.Default.Snapshot(), metrics.Default.Trace().Events(15)))
		}()
	}

	start := time.Now()
	var csv string
	var err error
	switch {
	case *all:
		csv, err = runAll(ctx, cfg)
	case *ablations:
		err = runAblations(ctx, cfg)
	case *table == 1:
		var tbl experiments.TableIResult
		if tbl, err = experiments.TableI(); err == nil {
			fmt.Print(tbl.Render())
		}
	case *fig != 0:
		csv, err = runFigure(ctx, cfg, *fig)
	default:
		err = fmt.Errorf("unknown table %d", *table)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "metasim: %v\n", err)
		os.Exit(1)
	}
	if *csvPath != "" && csv != "" {
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "metasim: writing %s: %v\n", *csvPath, err)
			os.Exit(1)
		}
		fmt.Printf("CSV written to %s\n", *csvPath)
	}
	fmt.Printf("(completed in %v wall-clock, scale %.3g, size factor %.3g)\n",
		time.Since(start).Round(time.Millisecond), cfg.Scale, cfg.SizeFactor)
}

// startLiveStats prints one statistics line per interval, sourced from the
// process-wide metrics registry every instrumented component (fabric,
// strategies, propagator, sync agent, workflow engine, memcache) reports to.
// The returned func stops the reporter and waits for it to finish.
func startLiveStats(w io.Writer, interval time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var lastOps int64
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				snap := metrics.Default.Snapshot()
				ops := snap.Counters["core_ops_total"]
				rate := float64(ops-lastOps) / interval.Seconds()
				lastOps = ops
				fmt.Fprintf(w, "live: ops=%d (+%.0f/s) remote=%d lazy_queue=%d sync_queue=%d tasks=%d/%d cache_hits=%d/%d\n",
					ops, rate,
					snap.Counters["core_remote_ops_total"],
					snap.Gauges["propagator_queue_depth"],
					snap.Gauges["sync_queue_depth"],
					snap.Counters["workflow_tasks_completed_total"],
					snap.Counters["workflow_tasks_started_total"],
					snap.Counters["memcache_hits_total"],
					snap.Counters["memcache_gets_total"])
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

func runFigure(ctx context.Context, cfg experiments.Config, fig int) (csv string, err error) {
	switch fig {
	case 1:
		res, err := experiments.Figure1(ctx, cfg)
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return res.CSV(), nil
	case 5:
		res, err := experiments.Figure5(ctx, cfg)
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return res.CSV(), nil
	case 6:
		res, err := experiments.Figure6(ctx, cfg)
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return res.CSV(), nil
	case 7:
		res, err := experiments.Figure7(ctx, cfg)
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return res.CSV(), nil
	case 8:
		res, err := experiments.Figure8(ctx, cfg)
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return res.CSV(), nil
	case 9:
		res, err := experiments.Figure9()
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return "", nil
	case 10:
		res, err := experiments.Figure10(ctx, cfg)
		if err != nil {
			return "", err
		}
		fmt.Print(res.Render())
		return res.CSV(), nil
	default:
		return "", fmt.Errorf("unknown figure %d (supported: 1, 5, 6, 7, 8, 9, 10)", fig)
	}
}

func runAll(ctx context.Context, cfg experiments.Config) (string, error) {
	tbl, err := experiments.TableI()
	if err != nil {
		return "", err
	}
	fmt.Print(tbl.Render())
	fmt.Println()
	var lastCSV string
	for _, fig := range []int{1, 5, 6, 7, 8, 9, 10} {
		csv, err := runFigure(ctx, cfg, fig)
		if err != nil {
			return "", fmt.Errorf("figure %d: %w", fig, err)
		}
		if csv != "" {
			lastCSV = csv
		}
		fmt.Println()
	}
	if err := runAblations(ctx, cfg); err != nil {
		return "", err
	}
	return lastCSV, nil
}

func runAblations(ctx context.Context, cfg experiments.Config) error {
	replica, err := experiments.AblationLocalReplica(ctx, cfg, 0)
	if err != nil {
		return err
	}
	fmt.Print(replica.Render())

	lazy, err := experiments.AblationLazyVsEager(ctx, cfg, 0)
	if err != nil {
		return err
	}
	fmt.Print(lazy.Render())

	fmt.Print(experiments.AblationHashingChurn(0).Render())

	dist, err := experiments.AblationKeyDistribution(ctx, cfg, 0, 0)
	if err != nil {
		return err
	}
	fmt.Print(dist.Render())

	capa, err := experiments.AblationRegistryCapacity(ctx, cfg, cfg.ServiceTime, cfg.Nodes, cfg.ScaledOps(1000, 20))
	if err != nil {
		return err
	}
	fmt.Print(capa.Render())

	sched, err := experiments.AblationScheduler(ctx, cfg, workloads.Scenario{
		Name: "ablation", OpsPerTask: cfg.ScaledOps(100, 4), Compute: time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Print(sched.Render())

	prov, err := experiments.AblationProvisioning(cfg, workloads.Scenario{
		Name: "ablation", OpsPerTask: cfg.ScaledOps(100, 4), Compute: time.Second,
	}, nil)
	if err != nil {
		return err
	}
	fmt.Print(prov.Render())
	return nil
}
