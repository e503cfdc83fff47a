// Package workloads provides the workloads used in the paper's evaluation:
// the synthetic concurrent reader/writer metadata benchmark (Figs. 5-8) and
// DAG generators for the two real-life applications, BuzzFlow and Montage
// (Fig. 9), parameterized by the Table I scenarios (Fig. 10).
package workloads

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// SyntheticConfig parameterizes the synthetic metadata benchmark of §VI-B:
// half of the nodes act as writers posting consecutive entries to the
// registry, the other half act as readers getting random entries from it.
type SyntheticConfig struct {
	// OpsPerNode is the number of metadata operations each node performs.
	OpsPerNode int
	// ReadRetryInterval is the simulated back-off when a reader requests an
	// entry that is not visible yet (default 250 ms).
	ReadRetryInterval time.Duration
	// Seed makes the readers' random choices reproducible.
	Seed int64
	// Prefix namespaces entry names so repeated runs do not collide.
	Prefix string
	// KeyDist shapes which entries the readers request. The zero value keeps
	// the paper's uniform draws; Zipfian and hot-spot skews concentrate reads
	// on a small set of hot entries (tail-latency scenarios).
	KeyDist KeyDist
}

// maxReadRetries bounds the polls per read before a reader gives up and counts
// the operation as a miss. A read that misses still counts as a completed
// metadata operation — the paper's readers request random entries and a
// not-found answer is a valid answer.
const maxReadRetries = 2

// withDefaults fills unset fields.
func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.OpsPerNode <= 0 {
		c.OpsPerNode = 100
	}
	if c.ReadRetryInterval <= 0 {
		c.ReadRetryInterval = 250 * time.Millisecond
	}
	if c.Prefix == "" {
		c.Prefix = "bench"
	}
	return c
}

// SyntheticResult summarizes one synthetic benchmark run.
type SyntheticResult struct {
	// Strategy is the metadata strategy exercised.
	Strategy core.StrategyKind
	// Nodes is the number of execution nodes.
	Nodes int
	// OpsPerNode is the configured per-node operation count.
	OpsPerNode int
	// TotalOps is the number of completed operations across all nodes.
	TotalOps int
	// NodeTimes holds each node's completion time (simulated).
	NodeTimes []time.Duration
	// Makespan is the completion time of the slowest node.
	Makespan time.Duration
	// MeanNodeTime is the average node completion time — the metric of Fig. 5.
	MeanNodeTime time.Duration
	// Throughput is TotalOps divided by the makespan — the metric of Fig. 7.
	Throughput float64
	// Retries counts reader polls that found their entry not yet visible.
	Retries int
	// Misses counts reads that never found their entry within the retry
	// budget (still counted as completed operations).
	Misses int
}

// RunSynthetic executes the synthetic benchmark: the deployment's nodes are
// split into writers (even IDs) and readers (odd IDs); writers post
// consecutive entries while readers get random ones, mirroring §VI-B. The
// optional progress tracker receives one event per completed operation. The
// context bounds the whole run: cancellation aborts every node's loop at its
// next metadata operation or simulated wait.
func RunSynthetic(ctx context.Context, svc core.MetadataService, dep *cloud.Deployment, lat *latency.Model,
	cfg SyntheticConfig, progress *metrics.Progress) (SyntheticResult, error) {

	cfg = cfg.withDefaults()
	nodes := dep.Nodes()
	if len(nodes) < 2 {
		return SyntheticResult{}, fmt.Errorf("workloads: synthetic benchmark needs at least 2 nodes, have %d", len(nodes))
	}

	var writers, readers []cloud.Node
	for _, n := range nodes {
		if int(n.ID)%2 == 0 {
			writers = append(writers, n)
		} else {
			readers = append(readers, n)
		}
	}

	res := SyntheticResult{
		Strategy:   svc.Kind(),
		Nodes:      len(nodes),
		OpsPerNode: cfg.OpsPerNode,
		NodeTimes:  make([]time.Duration, len(nodes)),
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(node cloud.NodeID, elapsed time.Duration, ops, retries, misses int, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.NodeTimes[node] = elapsed
		res.TotalOps += ops
		res.Retries += retries
		res.Misses += misses
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	start := time.Now()
	// Writers post consecutive entries file-<writer>-<i>, of empty files as
	// in the paper, to isolate metadata costs.
	for wi, node := range writers {
		wg.Add(1)
		go func(wi int, node cloud.Node) {
			defer wg.Done()
			nodeStart := time.Now()
			ops := 0
			var err error
			for i := 0; i < cfg.OpsPerNode; i++ {
				name := entryName(cfg.Prefix, wi, i)
				entry := registry.NewEntry(name, 0, fmt.Sprintf("writer-%d", wi),
					registry.Location{Site: node.Site, Node: node.ID})
				if _, cerr := svc.Create(ctx, node.Site, entry); cerr != nil && !errors.Is(cerr, core.ErrExists) {
					err = fmt.Errorf("writer %d op %d: %w", wi, i, cerr)
					break
				}
				ops++
				if progress != nil {
					progress.Done()
				}
			}
			record(node.ID, lat.ToSimulated(time.Since(nodeStart)), ops, 0, 0, err)
		}(wi, node)
	}

	// Readers get random entries among those that should already exist. One
	// read-only sampler is shared across readers; each reader draws from it
	// with its own seeded rand source, so runs stay deterministic per seed.
	sampler := NewKeySampler(cfg.KeyDist, len(writers)*cfg.OpsPerNode)
	for ri, node := range readers {
		wg.Add(1)
		go func(ri int, node cloud.Node) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ri)*7919))
			nodeStart := time.Now()
			ops, retries, misses := 0, 0, 0
			var err error
			for i := 0; i < cfg.OpsPerNode; i++ {
				// Target an entry a writer should have posted by now: writer
				// chosen uniformly, index no later than this reader's own
				// progress (writers and readers proceed at similar paces).
				maxIdx := i
				if maxIdx >= cfg.OpsPerNode {
					maxIdx = cfg.OpsPerNode - 1
				}
				var w, idx int
				if cfg.KeyDist.Kind == KeyUniform {
					w = rng.Intn(len(writers))
					if maxIdx > 0 {
						idx = rng.Intn(maxIdx + 1)
					}
				} else {
					// Rank the currently visible keyspace so that low ranks —
					// the hot keys — are the entries every writer posted
					// first: rank r maps to writer r%W, index r/W.
					rank := sampler.Rank(rng, len(writers)*(maxIdx+1))
					w = rank % len(writers)
					idx = rank / len(writers)
				}
				name := entryName(cfg.Prefix, w, idx)
				found := false
				for attempt := 0; attempt <= maxReadRetries; attempt++ {
					_, lerr := svc.Lookup(ctx, node.Site, name)
					if lerr == nil {
						found = true
						break
					}
					if !errors.Is(lerr, core.ErrNotFound) {
						err = fmt.Errorf("reader %d op %d: %w", ri, i, lerr)
						break
					}
					retries++
					if err = lat.InjectDuration(ctx, cfg.ReadRetryInterval); err != nil {
						break
					}
				}
				if err != nil {
					break
				}
				if !found {
					misses++
				}
				ops++
				if progress != nil {
					progress.Done()
				}
			}
			record(node.ID, lat.ToSimulated(time.Since(nodeStart)), ops, retries, misses, err)
		}(ri, node)
	}

	wg.Wait()
	res.Makespan = lat.ToSimulated(time.Since(start))
	res.MeanNodeTime = metrics.Mean(res.NodeTimes)
	res.Throughput = metrics.Throughput(res.TotalOps, res.Makespan)
	return res, firstErr
}

// entryName builds the deterministic name of the i-th entry posted by a
// writer, shared between writers and readers.
func entryName(prefix string, writer, i int) string {
	return fmt.Sprintf("%s/w%03d/file%06d", prefix, writer, i)
}

// ExpectedTotalOps returns the aggregate operation count of a synthetic run
// (the grey bars of Fig. 5).
func ExpectedTotalOps(nodes, opsPerNode int) int { return nodes * opsPerNode }
