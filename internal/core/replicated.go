package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// DefaultSyncInterval is the period between synchronization-agent rounds, in
// simulated time.
const DefaultSyncInterval = 2 * time.Second

// ReplicatedService implements the "replicated on each site" strategy (paper
// §IV-B): a local metadata registry instance is placed in every datacenter so
// that every node performs its metadata operations locally; a single
// synchronization agent iteratively queries all registry instances for
// updates and propagates them to the rest of the set.
//
// Local operations are fast, but the information only becomes globally
// visible after the agent's next round, and the single agent is a potential
// bottleneck for metadata-intensive workloads (the degradation beyond 32
// nodes visible in Figs. 7 and 8). This implementation softens — without
// eliminating — that bottleneck: within a round the agent fans the per-site
// pull and push exchanges out concurrently, and every exchange is a bulk
// operation (GetMany / Merge / DeleteMany), one frame per site and
// direction. Closing the service cancels the agent's context, so a round
// blocked mid-fan-out on a slow site aborts instead of delaying shutdown;
// updates a cancelled round had drained are re-queued for the next round.
type ReplicatedService struct {
	singleTarget
	agentSite cloud.SiteID
	interval  time.Duration

	// life is cancelled on Close, stopping the agent and aborting its
	// in-flight round.
	life     context.Context
	lifeStop context.CancelFunc

	mu sync.Mutex
	// pending is the agent's work list: per site, the names mutated there
	// since the last round and whether the last mutation was a deletion. The
	// agent reads an updated entry's state from its site at round time, so
	// only names are queued.
	pending pendingQueue[cloud.SiteID]

	// syncMu serializes synchronization rounds (background loop vs Flush).
	syncMu sync.Mutex

	done chan struct{} // closed when the agent loop has exited

	// Live instruments (nil when the fabric's instrumentation is off).
	queueDepth   *metrics.Gauge     // sync_queue_depth: names awaiting the next round
	roundLatency *metrics.Histogram // sync_round_latency_ns
	roundsC      *metrics.Counter   // sync_rounds_total
	syncedC      *metrics.Counter   // sync_entries_synced_total
	requeuedC    *metrics.Counter   // sync_requeued_total: names put back by a failed round
}

// NewReplicated builds the replicated strategy with the synchronization agent
// hosted in cfg's Central datacenter, polling every cfg.SyncInterval. The
// agent starts immediately and runs until Close.
func NewReplicated(fabric *Fabric, cfg StrategyConfig) (*ReplicatedService, error) {
	agentSite := cfg.central(fabric)
	if !fabric.HasSite(agentSite) {
		return nil, fmt.Errorf("replicated: agent site: %w", ErrNoSuchSite)
	}
	interval := cfg.SyncInterval
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	life, lifeStop := context.WithCancel(context.Background())
	s := &ReplicatedService{
		agentSite:    agentSite,
		interval:     interval,
		life:         life,
		lifeStop:     lifeStop,
		pending:      make(pendingQueue[cloud.SiteID]),
		done:         make(chan struct{}),
		queueDepth:   fabric.Metrics().Gauge("sync_queue_depth"),
		roundLatency: fabric.Metrics().Histogram("sync_round_latency_ns"),
		roundsC:      fabric.Metrics().Counter("sync_rounds_total"),
		syncedC:      fabric.Metrics().Counter("sync_entries_synced_total"),
		requeuedC:    fabric.Metrics().Counter("sync_requeued_total"),
	}
	s.service = newService(fabric, Replicated)
	// Every node performs its metadata operations on its own site's instance.
	s.target = func(from cloud.SiteID, _ string) cloud.SiteID { return from }
	s.after = s.remember
	go func() {
		defer close(s.done)
		fabric.every(s.interval, life.Done(), func() {
			s.syncRound(s.life) //nolint:errcheck // a failed round re-queues its work
		})
	}()
	return s, nil
}

// remember queues a committed local mutation for the agent's next round: it
// is the service's singleTarget.after.
func (s *ReplicatedService) remember(o opFrame, _ bool, err error) {
	if err != nil || o.kind == metrics.OpRead {
		return
	}
	s.mu.Lock()
	_, added := s.pending.put(o.from, pendingOp{entry: registry.Entry{Name: o.name}})
	s.mu.Unlock()
	if added {
		s.queueDepth.Add(1)
	}
}

// Flush runs one synchronization round immediately and returns when every
// instance has been updated. A round that could not read from or write to
// some site — or whose context was cancelled — re-queues its work and returns
// the error.
func (s *ReplicatedService) Flush(ctx context.Context) error {
	if s.closed.Load() {
		return opErr("flush", s.agentSite, "", ErrClosed)
	}
	return opErr("flush", s.agentSite, "", s.syncRound(ctx))
}

// Close stops the synchronization agent, cancelling any in-flight round.
// Names the agent has not propagated yet are dropped; call Flush first to
// push them.
func (s *ReplicatedService) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.lifeStop()
	<-s.done
	return nil
}

// syncRound implements one iteration of the synchronization agent: it
// queries every registry instance for updates, then propagates the merged
// set of updates to every other instance (paper §IV-B and §V). Both phases
// fan out across the sites concurrently — the agent overlaps the per-site
// WAN round trips instead of serializing them — and both travel as bulk
// operations (GetMany on the pull side, the propagation path's ship on the
// push side), so a round costs one request frame per site and direction no
// matter how many entries it carries.
//
// The agent keeps its own queue over ship instead of enqueueing into a
// Propagator: what it queues is names, read once per round at their origin,
// and the one batch that results — sized once — goes to every site, where the
// propagator holds entries per destination and would carry a copy of the
// batch, and a size computation, for each.
//
// A round that fails anywhere — a site that cannot be read or written, or a
// cancelled context, which the per-site goroutines observe in their modelled
// exchange or registry call — re-queues every drained name for the next round
// and returns the error (bulk application is idempotent, so double-propagation
// is harmless).
func (s *ReplicatedService) syncRound(ctx context.Context) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()

	if err := ctx.Err(); err != nil {
		return err
	}
	roundStart := time.Now()

	s.mu.Lock()
	drained := s.pending
	s.pending = make(pendingQueue[cloud.SiteID])
	s.mu.Unlock()
	s.queueDepth.Add(-int64(drained.size()))

	var (
		mu   sync.Mutex // guards all and errs
		wg   sync.WaitGroup
		all  []registry.Entry
		errs []error
	)
	fail := func(site cloud.SiteID, err error) {
		mu.Lock()
		errs = append(errs, fmt.Errorf("site %d: %w", site, err))
		mu.Unlock()
	}

	// Pull phase: the agent queries each instance that reported updates, one
	// goroutine per site.
	for site, set := range drained {
		wg.Add(1)
		go func(site cloud.SiteID, names []string) {
			defer wg.Done()
			start := time.Now()
			inst, err := s.fabric.Instance(site)
			if err != nil {
				fail(site, err)
				return
			}
			// Bulk pull: one request returns every updated entry of the site
			// (entries deleted in the meantime are simply absent).
			batch, err := inst.GetMany(ctx, names)
			if err != nil {
				fail(site, err)
				return
			}
			remote, err := s.fabric.call(ctx, s.agentSite, site, s.fabric.queryBytes, s.fabric.batchBytes(batch, nil))
			if err != nil {
				fail(site, err)
				return
			}
			s.fabric.record(metrics.OpSync, start, remote)
			mu.Lock()
			all = append(all, batch...)
			mu.Unlock()
		}(site, slices.Collect(maps.Keys(set)))
	}
	wg.Wait()

	// Push phase: propagate the merged set to every instance concurrently.
	var synced atomic.Int64
	if len(errs) == 0 && len(all) > 0 {
		bytes := s.fabric.batchBytes(all, nil)
		for _, site := range s.fabric.Sites() {
			wg.Add(1)
			go func(site cloud.SiteID) {
				defer wg.Done()
				applied, err := s.fabric.ship(ctx, s.agentSite, site, all, nil, bytes)
				synced.Add(int64(applied))
				if err != nil {
					fail(site, err)
				}
			}(site)
		}
		wg.Wait()
	}

	if len(errs) > 0 {
		// Some sites may have been updated before the failure; the bulk
		// operations are idempotent, so re-queueing everything is safe.
		s.mu.Lock()
		restored := 0
		for site, set := range drained {
			restored += s.pending.restore(site, set)
		}
		s.mu.Unlock()
		s.queueDepth.Add(int64(restored))
		s.requeuedC.Add(int64(restored))
		return errors.Join(errs...)
	}

	s.roundsC.Inc()
	s.syncedC.Add(synced.Load())
	s.roundLatency.ObserveDuration(time.Since(roundStart))
	return nil
}
