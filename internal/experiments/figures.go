package experiments

import (
	"context"
	"fmt"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/workloads"
)

// ---------------------------------------------------------------------------
// Figure 1 — remote metadata access cost
// ---------------------------------------------------------------------------

// Figure1Row is one group of bars of Fig. 1: the time to post a given number
// of files from the West Europe datacenter when the metadata registry is
// local, in the same region, or in a distant region.
type Figure1Row struct {
	Files      int
	Local      time.Duration
	SameRegion time.Duration
	GeoDistant time.Duration
}

// Figure1Result reproduces Fig. 1.
type Figure1Result struct {
	Rows []Figure1Row
}

// Figure1FileCounts are the published-file counts of the paper's Fig. 1.
var Figure1FileCounts = []int{100, 500, 1000, 5000}

// Figure1 measures the average time for file-posting metadata operations
// performed from West Europe against a centralized registry placed in the
// same datacenter, in the same region (North Europe) and in a distant region
// (South Central US).
func Figure1(ctx context.Context, cfg Config) (Figure1Result, error) {
	var res Figure1Result
	for _, files := range Figure1FileCounts {
		n := cfg.scaled(files, 10)
		row := Figure1Row{Files: files}
		for i, registrySite := range []string{cloud.SiteWestEU, cloud.SiteNorthEU, cloud.SiteSouthCentralUS} {
			elapsed, err := figure1Post(ctx, cfg, registrySite, n)
			if err != nil {
				return res, err
			}
			// Scale the measured time back up to the paper-size file count so
			// the reported magnitudes stay comparable across SizeFactors.
			elapsed = time.Duration(float64(elapsed) * float64(files) / float64(n))
			switch i {
			case 0:
				row.Local = elapsed
			case 1:
				row.SameRegion = elapsed
			case 2:
				row.GeoDistant = elapsed
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// figure1Post posts n entries from a single West Europe node to a centralized
// registry hosted at registrySite and returns the simulated elapsed time.
func figure1Post(ctx context.Context, cfg Config, registrySite string, n int) (time.Duration, error) {
	env := cfg.newEnvironment(1)
	defer env.close()
	weu, _ := env.topo.SiteByName(cloud.SiteWestEU)
	target, ok := env.topo.SiteByName(registrySite)
	if !ok {
		return 0, fmt.Errorf("experiments: unknown registry site %q", registrySite)
	}
	svc, err := core.NewCentralized(env.fabric, core.StrategyConfig{Central: target.ID})
	if err != nil {
		return 0, err
	}
	defer svc.Close()

	start := time.Now()
	for i := 0; i < n; i++ {
		e := registry.NewEntry(fmt.Sprintf("fig1/%s/file%06d", registrySite, i), 0, "poster",
			registry.Location{Site: weu.ID, Node: 0})
		if _, err := svc.Create(ctx, weu.ID, e); err != nil {
			return 0, err
		}
	}
	return env.lat.ToSimulated(time.Since(start)), nil
}

// ---------------------------------------------------------------------------
// Figure 5 — average node execution time vs. operations per node
// ---------------------------------------------------------------------------

// Figure5Cell is one bar of Fig. 5: the average node execution time for one
// strategy at one per-node operation count.
type Figure5Cell struct {
	Strategy     core.StrategyKind
	OpsPerNode   int
	MeanNodeTime time.Duration
	Makespan     time.Duration
	TotalOps     int
}

// Figure5Result reproduces Fig. 5.
type Figure5Result struct {
	Nodes int
	Cells []Figure5Cell
}

// Figure5OpCounts are the per-node operation counts of the paper's Fig. 5.
var Figure5OpCounts = []int{500, 1000, 5000, 10000}

// Figure5 runs the synthetic benchmark on a fixed set of nodes while varying
// the number of metadata operations per node, for all four strategies.
func Figure5(ctx context.Context, cfg Config) (Figure5Result, error) {
	res := Figure5Result{Nodes: cfg.Nodes}
	for _, ops := range Figure5OpCounts {
		scaledOps := cfg.scaled(ops, 10)
		for _, kind := range core.Strategies {
			run, err := runSynthetic(ctx, cfg, kind, cfg.Nodes, scaledOps, nil)
			if err != nil {
				return res, fmt.Errorf("figure5 %s/%d: %w", kind, ops, err)
			}
			res.Cells = append(res.Cells, Figure5Cell{
				Strategy:     kind,
				OpsPerNode:   ops,
				MeanNodeTime: scaleDuration(run.MeanNodeTime, ops, scaledOps),
				Makespan:     scaleDuration(run.Makespan, ops, scaledOps),
				TotalOps:     workloads.ExpectedTotalOps(cfg.Nodes, ops),
			})
		}
	}
	return res, nil
}

// Cell returns the Fig. 5 cell for a strategy and op count.
func (r Figure5Result) Cell(kind core.StrategyKind, ops int) (Figure5Cell, bool) {
	for _, c := range r.Cells {
		if c.Strategy == kind && c.OpsPerNode == ops {
			return c, true
		}
	}
	return Figure5Cell{}, false
}

// ---------------------------------------------------------------------------
// Figure 6 — completion-progress timelines
// ---------------------------------------------------------------------------

// Figure6Series is the progress curve of one strategy.
type Figure6Series struct {
	Strategy core.StrategyKind
	Points   []metrics.TimelinePoint
}

// Figure6Result reproduces Fig. 6, plus the speedup of the locally replicated
// strategy over the non-replicated one in the 20–70 % progress band.
type Figure6Result struct {
	Nodes          int
	OpsPerNode     int
	Series         []Figure6Series
	MidBandSpeedup float64
}

// Figure6Percentages are the x-axis points of the progress curves.
var Figure6Percentages = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// Figure6 zooms on the internal execution of the decentralized strategies
// (plus the centralized baseline for reference) by tracking the percentage of
// operations completed over time.
func Figure6(ctx context.Context, cfg Config) (Figure6Result, error) {
	ops := cfg.scaled(5000, 20)
	res := Figure6Result{Nodes: cfg.Nodes, OpsPerNode: 5000}
	kinds := []core.StrategyKind{core.Centralized, core.Decentralized, core.DecentralizedReplicated}
	curves := make(map[core.StrategyKind][]metrics.TimelinePoint, len(kinds))
	for _, kind := range kinds {
		prog := metrics.NewProgress(cfg.Nodes * ops)
		if _, err := runSynthetic(ctx, cfg, kind, cfg.Nodes, ops, prog); err != nil {
			return res, fmt.Errorf("figure6 %s: %w", kind, err)
		}
		points := prog.Timeline(Figure6Percentages)
		curves[kind] = points
		res.Series = append(res.Series, Figure6Series{Strategy: kind, Points: points})
	}
	// Speedup of DR over DN averaged over the 20-70% band (paper: >= 1.25).
	var sum float64
	var count int
	for _, pct := range []float64{20, 30, 40, 50, 60, 70} {
		if s := metrics.Speedup(curves[core.Decentralized], curves[core.DecentralizedReplicated], pct); s > 0 {
			sum += s
			count++
		}
	}
	if count > 0 {
		res.MidBandSpeedup = sum / float64(count)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — throughput scaling with the number of nodes
// ---------------------------------------------------------------------------

// Figure7Point is one point of Fig. 7.
type Figure7Point struct {
	Strategy   core.StrategyKind
	Nodes      int
	Throughput float64
}

// Figure7Result reproduces Fig. 7.
type Figure7Result struct {
	OpsPerNode int
	Points     []Figure7Point
}

// ScalingNodeCounts are the node counts of Figs. 7 and 8.
var ScalingNodeCounts = []int{8, 16, 32, 64, 128}

// Figure7 measures metadata throughput with a constant per-node workload of
// 5000 operations while growing the deployment from 8 to 128 nodes.
func Figure7(ctx context.Context, cfg Config) (Figure7Result, error) {
	ops := cfg.scaled(5000, 20)
	res := Figure7Result{OpsPerNode: 5000}
	for _, nodes := range ScalingNodeCounts {
		for _, kind := range core.Strategies {
			run, err := runSynthetic(ctx, cfg, kind, nodes, ops, nil)
			if err != nil {
				return res, fmt.Errorf("figure7 %s/%d: %w", kind, nodes, err)
			}
			res.Points = append(res.Points, Figure7Point{Strategy: kind, Nodes: nodes, Throughput: run.Throughput})
		}
	}
	return res, nil
}

// Point returns the Fig. 7 point for a strategy and node count.
func (r Figure7Result) Point(kind core.StrategyKind, nodes int) (Figure7Point, bool) {
	for _, p := range r.Points {
		if p.Strategy == kind && p.Nodes == nodes {
			return p, true
		}
	}
	return Figure7Point{}, false
}

// ---------------------------------------------------------------------------
// Figure 8 — completion time of a fixed workload as the set grows
// ---------------------------------------------------------------------------

// Figure8Point is one point of Fig. 8.
type Figure8Point struct {
	Strategy       core.StrategyKind
	Nodes          int
	CompletionTime time.Duration
}

// Figure8Result reproduces Fig. 8.
type Figure8Result struct {
	TotalOps int
	Points   []Figure8Point
}

// Figure8TotalOps is the constant aggregate workload of Fig. 8.
const Figure8TotalOps = 32000

// Figure8 measures the time to complete a constant aggregate workload of
// 32 000 operations as the number of nodes grows from 8 to 128.
func Figure8(ctx context.Context, cfg Config) (Figure8Result, error) {
	total := cfg.scaled(Figure8TotalOps, 160)
	res := Figure8Result{TotalOps: Figure8TotalOps}
	for _, nodes := range ScalingNodeCounts {
		perNode := total / nodes
		if perNode < 1 {
			perNode = 1
		}
		for _, kind := range core.Strategies {
			run, err := runSynthetic(ctx, cfg, kind, nodes, perNode, nil)
			if err != nil {
				return res, fmt.Errorf("figure8 %s/%d: %w", kind, nodes, err)
			}
			res.Points = append(res.Points, Figure8Point{
				Strategy:       kind,
				Nodes:          nodes,
				CompletionTime: scaleDuration(run.Makespan, Figure8TotalOps, total),
			})
		}
	}
	return res, nil
}

// Point returns the Fig. 8 point for a strategy and node count.
func (r Figure8Result) Point(kind core.StrategyKind, nodes int) (Figure8Point, bool) {
	for _, p := range r.Points {
		if p.Strategy == kind && p.Nodes == nodes {
			return p, true
		}
	}
	return Figure8Point{}, false
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

// runSynthetic builds a fresh environment and runs the synthetic benchmark
// for one strategy.
func runSynthetic(ctx context.Context, cfg Config, kind core.StrategyKind, nodes, opsPerNode int, prog *metrics.Progress) (workloads.SyntheticResult, error) {
	env := cfg.newEnvironment(nodes)
	defer env.close()
	svc, err := cfg.newService(ctx, env, kind)
	if err != nil {
		return workloads.SyntheticResult{}, err
	}
	defer svc.Close()
	if prog != nil {
		prog.SetSimConverter(env.lat.ToSimulated)
	}
	return workloads.RunSynthetic(ctx, svc, env.dep, env.lat, workloads.SyntheticConfig{
		OpsPerNode: opsPerNode,
		Seed:       cfg.Seed,
		Prefix:     fmt.Sprintf("%s-n%d-o%d", kind.Short(), nodes, opsPerNode),
		KeyDist:    cfg.KeyDist,
	}, prog)
}

// scaleDuration rescales a measured duration from the reduced workload size
// back to the paper's nominal size so reported magnitudes remain comparable.
func scaleDuration(d time.Duration, nominal, actual int) time.Duration {
	if actual <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(nominal) / float64(actual))
}
