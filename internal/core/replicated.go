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
// operation (GetMany / Merge), one frame per site and direction. Closing
// the service cancels the agent's context, so a round blocked mid-fan-out on
// a slow site aborts instead of delaying shutdown; updates a cancelled round
// had drained are re-queued for the next round.
type ReplicatedService struct {
	singleTarget
	agentSite cloud.SiteID

	// rounds holds the agent's work list: per site, the names mutated there
	// since the last round. The agent reads an updated entry's state from its
	// site at round time, so only names are queued.
	rounds *rounds[cloud.SiteID]

	// Live instruments (nil when the fabric's instrumentation is off).
	roundLatency *metrics.Histogram // sync_round_latency_ns
	roundsC      *metrics.Counter   // sync_rounds_total
	syncedC      *metrics.Counter   // sync_entries_synced_total
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
	s := &ReplicatedService{
		agentSite:    agentSite,
		roundLatency: fabric.Metrics().Histogram("sync_round_latency_ns"),
		roundsC:      fabric.Metrics().Counter("sync_rounds_total"),
		syncedC:      fabric.Metrics().Counter("sync_entries_synced_total"),
	}
	s.service = newService(fabric, Replicated)
	// Every node performs its metadata operations on its own site's instance.
	s.target = func(from cloud.SiteID, _ string) cloud.SiteID { return from }
	s.after = s.remember
	s.rounds = newRounds(fabric, "sync", interval, s.syncRound)
	return s, nil
}

// remember queues a committed local mutation for the agent's next round: it
// is the service's singleTarget.after.
func (s *ReplicatedService) remember(o opFrame, _ bool, err error) {
	if err != nil || o.kind == metrics.OpRead {
		return
	}
	s.rounds.put(o.from, registry.Entry{Name: o.name})
}

// Flush runs one synchronization round immediately and returns when every
// instance has been updated. A round that could not read from or write to
// some site — or whose context was cancelled — re-queues its work and returns
// the error. Rounds run one at a time; a call whose ctx ends while it waits
// for another round returns ctx's error at once.
func (s *ReplicatedService) Flush(ctx context.Context) error {
	if s.closed.Load() {
		return opErr("flush", s.agentSite, "", ErrClosed)
	}
	return opErr("flush", s.agentSite, "", s.rounds.run(ctx))
}

// Close stops the synchronization agent, cancelling any in-flight round.
// Names the agent has not propagated yet are dropped; call Flush first to
// push them.
func (s *ReplicatedService) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.rounds.close()
	return nil
}

// syncRound implements one iteration of the synchronization agent, the body
// of its rounds: it queries every registry instance for updates, then
// propagates the merged set of updates to every other instance (paper §IV-B
// and §V). Both phases fan out across the sites concurrently — the agent
// overlaps the per-site WAN round trips instead of serializing them — and
// both travel as bulk operations (GetMany on the pull side, the propagation
// path's ship on the push side), so a round costs one request frame per site
// and direction no matter how many entries it carries.
//
// The agent queues names over the shared round engine instead of enqueueing
// into a Propagator: a name is read once per round at its origin, and the one
// batch that results — sized once — goes to every site, where the propagator
// holds entries per destination and would carry a copy of the batch, and a
// size computation, for each.
//
// A round that fails anywhere — a site that cannot be read or written, or a
// cancelled context, which the per-site goroutines observe in their modelled
// exchange or registry call — hands back every drained name for the next
// round and returns the error (bulk application is idempotent, so
// double-propagation is harmless).
func (s *ReplicatedService) syncRound(ctx context.Context, drained pendingQueue[cloud.SiteID]) (pendingQueue[cloud.SiteID], error) {
	roundStart := time.Now()
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
			remote, err := s.fabric.call(ctx, s.agentSite, site, s.fabric.queryBytes, s.fabric.batchBytes(batch))
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
		bytes := s.fabric.batchBytes(all)
		for _, site := range s.fabric.Sites() {
			wg.Add(1)
			go func(site cloud.SiteID) {
				defer wg.Done()
				applied, err := s.fabric.ship(ctx, s.agentSite, site, all, bytes)
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
		return drained, errors.Join(errs...)
	}
	s.roundsC.Inc()
	s.syncedC.Add(synced.Load())
	s.roundLatency.ObserveDuration(time.Since(roundStart))
	return nil, nil
}
