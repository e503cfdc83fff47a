package core

import (
	"context"
	"errors"
	"fmt"
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

	// wantFeed selects the push-based mode (WithFeedSync): feedSync relays the
	// sites' change feeds into out, and no agent runs. Both are nil in the
	// default polling mode.
	wantFeed bool
	feedSync *feedSyncer
	out      *Propagator

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

	rounds        int64
	entriesSynced int64

	// Live instruments (nil when the fabric's instrumentation is off).
	queueDepth   *metrics.Gauge     // sync_queue_depth: names awaiting the next round
	roundLatency *metrics.Histogram // sync_round_latency_ns
	roundsC      *metrics.Counter   // sync_rounds_total
	syncedC      *metrics.Counter   // sync_entries_synced_total
	requeuedC    *metrics.Counter   // sync_requeued_total: names put back by a failed round
}

// ReplicatedOption configures a ReplicatedService.
type ReplicatedOption func(*ReplicatedService)

// WithSyncInterval sets the period between agent rounds (simulated time).
func WithSyncInterval(d time.Duration) ReplicatedOption {
	return func(s *ReplicatedService) {
		if d > 0 {
			s.interval = d
		}
	}
}

// WithFeedSync replaces the polling synchronization agent with a push-based
// consumer of the sites' change feeds: every committed local mutation is
// enqueued for the other replicas and shipped as soon as its feed event
// arrives, instead of waiting for the next agent round. Updates become
// globally visible after one WAN exchange rather than up to a full sync
// interval, and an idle system exchanges nothing at all. Requires a fabric
// built with site.Config.Feed (or external instances implementing
// registry.ChangeFeeder); NewReplicated fails with ErrNoFeed otherwise. The
// polling agent remains the default — and the baseline the feed path is
// benchmarked against.
func WithFeedSync() ReplicatedOption {
	return func(s *ReplicatedService) { s.wantFeed = true }
}

// NewReplicated builds the replicated strategy with the synchronization agent
// hosted in the given datacenter. The agent starts immediately and runs until
// Close.
func NewReplicated(fabric *Fabric, agentSite cloud.SiteID, opts ...ReplicatedOption) (*ReplicatedService, error) {
	if !fabric.HasSite(agentSite) {
		return nil, fmt.Errorf("replicated: agent site: %w", ErrNoSuchSite)
	}
	life, lifeStop := context.WithCancel(context.Background())
	s := &ReplicatedService{
		agentSite:    agentSite,
		interval:     DefaultSyncInterval,
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
	for _, o := range opts {
		o(s)
	}
	if s.wantFeed {
		// A committed mutation goes to every other replica; a shipment that
		// fails is retried once per sync interval.
		others := make(map[cloud.SiteID][]cloud.SiteID)
		for _, origin := range fabric.Sites() {
			for _, to := range fabric.Sites() {
				if to != origin {
					others[origin] = append(others[origin], to)
				}
			}
		}
		s.out = NewPropagator(fabric, s.interval, DefaultMaxBatch)
		fs, err := newFeedSyncer(fabric, s.out, func(origin cloud.SiteID, _ string) []cloud.SiteID { return others[origin] })
		if err != nil {
			lifeStop()
			s.out.Close() //nolint:errcheck // nothing was enqueued
			return nil, fmt.Errorf("replicated: %w", err)
		}
		s.feedSync = fs
		close(s.done) // no agent loop to wait for on Close
		return s, nil
	}
	s.after = s.remember
	go func() {
		defer close(s.done)
		fabric.every(s.interval, life.Done(), func() {
			s.syncRound(s.life) //nolint:errcheck // a failed round re-queues its work
		})
	}()
	return s, nil
}

// FeedDriven reports whether the service propagates through change feeds
// (WithFeedSync) instead of the polling agent.
func (s *ReplicatedService) FeedDriven() bool { return s.feedSync != nil }

// AgentSite returns the datacenter hosting the synchronization agent.
func (s *ReplicatedService) AgentSite() cloud.SiteID { return s.agentSite }

// SyncRounds returns how many synchronization rounds the agent has completed.
func (s *ReplicatedService) SyncRounds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// EntriesSynced returns how many entry applications have been pushed to
// remote instances in total, by the agent or — in feed mode — by the feed
// consumer's propagator.
func (s *ReplicatedService) EntriesSynced() int64 {
	if s.out != nil {
		return s.out.Propagated()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesSynced
}

// remember queues a committed local mutation for the agent's next round. It
// is the polling mode's singleTarget.after; in feed mode the commit's feed
// event carries the update by itself.
func (s *ReplicatedService) remember(o opFrame, _ bool, err error) {
	if err != nil || o.kind == metrics.OpRead {
		return
	}
	s.mu.Lock()
	_, added := s.pending.put(o.from, pendingOp{entry: registry.Entry{Name: o.name}, del: o.kind == metrics.OpDelete})
	s.mu.Unlock()
	if added {
		s.queueDepth.Add(1)
	}
}

// Flush runs one synchronization round immediately and returns when every
// instance has been updated. A round that could not read from or write to
// some site — or whose context was cancelled — re-queues its work and returns
// the error. In feed mode it instead waits until every event committed before
// the call has been relayed and the propagator has shipped it.
func (s *ReplicatedService) Flush(ctx context.Context) error {
	switch {
	case s.closed.Load():
		return opErr("flush", s.agentSite, "", ErrClosed)
	case s.feedSync != nil:
		return opErr("flush", s.agentSite, "", s.feedSync.Flush(ctx))
	}
	return opErr("flush", s.agentSite, "", s.syncRound(ctx))
}

// Close stops the synchronization agent, cancelling any in-flight round.
// Names the agent has not propagated yet are dropped; call Flush first to
// push them. In feed mode it stops the feed consumer and returns the error of
// the propagator's last flush.
func (s *ReplicatedService) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.lifeStop()
	<-s.done
	if s.feedSync != nil {
		s.feedSync.Close()
		return opErr("flush", s.agentSite, "", s.out.Close())
	}
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
	var allDeletes []string
	for site, set := range drained {
		var names []string
		for name, op := range set {
			if op.del {
				allDeletes = append(allDeletes, name)
			} else {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			continue
		}
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
		}(site, names)
	}
	wg.Wait()

	// Push phase: propagate the merged set to every instance concurrently.
	var synced atomic.Int64
	if len(errs) == 0 && len(all)+len(allDeletes) > 0 {
		bytes := s.fabric.batchBytes(all, allDeletes)
		for _, site := range s.fabric.Sites() {
			wg.Add(1)
			go func(site cloud.SiteID) {
				defer wg.Done()
				applied, err := s.fabric.ship(ctx, s.agentSite, site, all, allDeletes, bytes)
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

	s.mu.Lock()
	s.rounds++
	s.entriesSynced += synced.Load()
	s.mu.Unlock()
	s.roundsC.Inc()
	s.syncedC.Add(synced.Load())
	s.roundLatency.ObserveDuration(time.Since(roundStart))
	return nil
}
