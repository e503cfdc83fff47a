// Package experiments reproduces the evaluation of the paper: one harness per
// table and figure, each running the relevant workload against the metadata
// strategies and reporting the same rows or series the paper plots.
//
// Experiments run against the in-process multi-site emulation: real
// concurrency (one goroutine per execution node), real per-site cache
// instances with bounded capacity, and injected WAN latencies compressed by a
// configurable scale factor. All reported durations are *simulated* seconds —
// wall-clock time divided by the scale factor — so they are directly
// comparable to the paper's axes.
package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/dht"
	"geomds/internal/latency"
	"geomds/internal/metrics"
	"geomds/internal/site"
	"geomds/internal/workloads"
)

// Config parameterizes every experiment.
type Config struct {
	// Scale is the time-compression factor applied to injected latencies,
	// compute times and intervals; 0.005 runs 200x faster than real time.
	Scale float64
	// SizeFactor scales workload sizes (operation counts) relative to the
	// paper's; 1.0 reproduces the full experiment, smaller values keep the
	// shape while running much faster.
	SizeFactor float64
	// Nodes is the number of execution nodes for the fixed-size experiments
	// (the paper uses 32).
	Nodes int
	// Seed drives every random choice (jitter, reader picks).
	Seed int64
	// ServiceTime and Concurrency model the capacity of one per-site cache
	// instance; the defaults saturate a single instance at roughly the
	// throughput the paper reports for the centralized baseline.
	ServiceTime time.Duration
	// Concurrency is the number of operations one cache instance serves at a
	// time.
	Concurrency int
	// SyncInterval is the replicated strategy's agent period (simulated).
	SyncInterval time.Duration
	// FlushInterval is the hybrid strategy's lazy-propagation period
	// (simulated).
	FlushInterval time.Duration
	// CentralSite hosts the centralized registry and the sync agent; the
	// paper places it arbitrarily, we default to West Europe.
	CentralSite string
	// Config shapes every site's registry deployment — Shards, Replication,
	// DataDir and Fsync, NearCache — and is handed to core.WithSite as is,
	// with two adjustments per environment: each one logs under its own
	// run-<n> subdirectory of DataDir, so runs still start from empty
	// registries, and Feed is switched on whenever FeedSync or NearCache
	// needs it. Its per-site fields (Site, Remote, NewStore, Metrics) are the
	// fabric's to fill and must stay zero; core.NewFabric refuses them. The
	// zero value is the paper's one-instance-per-site layout (each instance's
	// cache bounded by ServiceTime/Concurrency above).
	site.Config
	// FeedSync switches the eventually consistent strategies from polling to
	// push: every registry instance exposes a change feed and the replicated
	// and hybrid strategies converge by consuming it (SyncInterval and
	// FlushInterval then only bound the polling fall-back). False keeps the
	// paper's polling agents as the baseline — also under NearCache, whose
	// feeds then only invalidate the caches.
	FeedSync bool
	// KeyDist shapes which entries the synthetic workload's readers look up:
	// the zero value keeps the paper's uniform picks, Zipfian and hot-spot
	// skews concentrate reads on a small popular set.
	KeyDist workloads.KeyDist
	// Tenants spreads the synthetic workload's nodes across this many
	// tenants (node n runs as "tenant-<n mod Tenants>"), exercising
	// admission control on limit-enforcing deployments. 0 keeps every node
	// on the default tenant.
	Tenants int
}

// BindSiteFlags registers the site-shaping flags metasim and wfrun share,
// decoding straight into the configuration every environment is built from.
func BindSiteFlags(fs *flag.FlagSet, c *site.Config) {
	fs.IntVar(&c.Shards, "shards", 0, "back every site's registry with this many shard instances behind a router (0/1 = single instance)")
	fs.IntVar(&c.Replication, "replication", 0, "store every key on this many shards of each site's tier (0/1 = single-home placement; more needs -shards > 1)")
}

// Validate checks what site.Build would refuse, plus the part of the
// configuration that can fail at runtime rather than by construction: that
// the data directory, if any, can be created and written.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if c.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.DataDir, 0o755); err != nil {
		return fmt.Errorf("experiments: data dir: %w", err)
	}
	probe, err := os.CreateTemp(c.DataDir, ".probe-*")
	if err != nil {
		return fmt.Errorf("experiments: data dir not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// DefaultConfig reproduces the paper-scale experiments: full operation
// counts, 32 nodes, 100x time compression. A full figure takes seconds to a
// few minutes of wall-clock time depending on the figure.
func DefaultConfig() Config {
	return Config{
		Scale:         0.01,
		SizeFactor:    1.0,
		Nodes:         32,
		Seed:          42,
		ServiceTime:   3 * time.Millisecond,
		Concurrency:   2,
		SyncInterval:  time.Second,
		FlushInterval: 500 * time.Millisecond,
		CentralSite:   cloud.SiteWestEU,
	}
}

// QuickConfig shrinks the workloads (2% of the paper's operation counts) and
// compresses time further so that every figure regenerates in well under a
// minute; the relative ordering of the strategies is preserved.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.SizeFactor = 0.02
	cfg.SyncInterval = 300 * time.Millisecond
	cfg.FlushInterval = 150 * time.Millisecond
	return cfg
}

// ScaledOps applies the size factor to a nominal operation count, keeping at
// least min operations; callers (e.g. the CLI) use it to derive ablation
// workload sizes consistent with the figure harnesses.
func (c Config) ScaledOps(ops, min int) int { return c.scaled(ops, min) }

// scaled applies the size factor to an operation count, keeping at least min.
func (c Config) scaled(ops, min int) int {
	n := int(float64(ops) * c.SizeFactor)
	if n < min {
		return min
	}
	return n
}

// topology returns the experiment's cloud topology (the paper's 4 Azure
// datacenters).
func (c Config) topology() *cloud.Topology { return cloud.Azure4DC() }

// newLatency builds the latency model for one run.
func (c Config) newLatency(topo *cloud.Topology) *latency.Model {
	return latency.New(topo, latency.WithScale(c.Scale), latency.WithSeed(c.Seed))
}

// centralSite resolves the configured central site on the topology, falling
// back to site 0.
func (c Config) centralSite(topo *cloud.Topology) cloud.SiteID {
	if s, ok := topo.SiteByName(c.CentralSite); ok {
		return s.ID
	}
	return 0
}

// environment bundles everything one strategy run needs.
type environment struct {
	topo   *cloud.Topology
	lat    *latency.Model
	dep    *cloud.Deployment
	fabric *core.Fabric
	rec    *metrics.Recorder
}

// envSeq numbers the environments built by this process, giving each one
// with persistence enabled its own subdirectory of Config.DataDir.
var envSeq atomic.Int64

// newEnvironment builds a fresh multi-site environment with the given number
// of evenly spread nodes. Every strategy run gets its own environment so that
// registries start empty and cache capacities are not shared across runs —
// with DataDir set, each environment therefore logs under a fresh
// run-<n> subdirectory instead of recovering the previous run's entries.
func (c Config) newEnvironment(nodes int) *environment {
	topo := c.topology()
	lat := c.newLatency(topo)
	rec := metrics.NewRecorder()
	rec.SetSimConverter(lat.ToSimulated)
	sc := c.Config
	if sc.DataDir != "" {
		sc.DataDir = filepath.Join(sc.DataDir, fmt.Sprintf("run-%d", envSeq.Add(1)))
	}
	// The near cache needs feeds for push invalidation even when the
	// strategies themselves keep polling.
	sc.Feed = sc.Feed || c.FeedSync || c.NearCache
	fabric := core.NewFabric(topo, lat,
		core.WithCacheCapacity(c.ServiceTime, c.Concurrency),
		core.WithRecorder(rec),
		core.WithSite(sc))
	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(nodes)
	return &environment{topo: topo, lat: lat, dep: dep, fabric: fabric, rec: rec}
}

// close shuts the environment down, flushing and closing any write-ahead
// logs its fabric owns.
func (e *environment) close() error { return e.fabric.Close() }

// newService builds the given strategy over the environment's fabric using
// the experiment's tuning parameters.
func (c Config) newService(ctx context.Context, env *environment, kind core.StrategyKind) (core.MetadataService, error) {
	central := c.centralSite(env.topo)
	ctrlOpts := []core.ControllerOption{
		core.WithCentralSite(central),
		core.WithAgentSite(central),
		core.WithControllerPlacer(dht.NewModuloPlacer(env.fabric.Sites())),
		core.WithControllerSyncInterval(c.SyncInterval),
		core.WithControllerLazy(c.FlushInterval, core.DefaultMaxBatch),
	}
	if c.FeedSync {
		ctrlOpts = append(ctrlOpts, core.WithControllerFeedSync())
	}
	ctrl := core.NewController(env.fabric, ctrlOpts...)
	return ctrl.Use(ctx, kind)
}
