package core

import (
	"context"
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
	fabric    *Fabric
	agentSite cloud.SiteID
	interval  time.Duration

	// wantFeed selects the push-based agent (WithFeedSync); feedSync is the
	// running consumer, nil in the default polling mode.
	wantFeed bool
	feedSync *feedSyncer

	// life is cancelled on Close, aborting the agent's in-flight round.
	life     context.Context
	lifeStop context.CancelFunc

	mu             sync.Mutex
	pendingCreates map[cloud.SiteID][]string
	pendingDeletes map[cloud.SiteID][]string
	closed         bool

	// syncMu serializes synchronization rounds (background loop vs Flush).
	syncMu sync.Mutex

	stop chan struct{}
	done chan struct{}

	rounds          int64
	entriesSynced   int64
	entriesObserved int64

	// Live instruments (nil when the fabric's instrumentation is off).
	ops          *metrics.Counter   // core_strategy_r_ops_total
	queueDepth   *metrics.Gauge     // sync_queue_depth: updates awaiting the next round
	roundLatency *metrics.Histogram // sync_round_latency_ns
	roundsC      *metrics.Counter   // sync_rounds_total
	syncedC      *metrics.Counter   // sync_entries_synced_total
	requeuedC    *metrics.Counter   // sync_requeued_total: updates put back by a cancelled round
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
// applied to the other replicas as soon as its feed event arrives, instead of
// waiting for the next agent round. Updates become globally visible after one
// WAN exchange rather than up to a full sync interval, and an idle system
// exchanges nothing at all. Requires a fabric built with site.Config.Feed (or
// external instances implementing registry.ChangeFeeder); NewReplicated
// fails with ErrNoFeed otherwise. The polling agent remains the default —
// and the baseline the feed path is benchmarked against.
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
		fabric:         fabric,
		agentSite:      agentSite,
		interval:       DefaultSyncInterval,
		life:           life,
		lifeStop:       lifeStop,
		pendingCreates: make(map[cloud.SiteID][]string),
		pendingDeletes: make(map[cloud.SiteID][]string),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		ops:            fabric.strategyOps(Replicated),
		queueDepth:     fabric.Metrics().Gauge("sync_queue_depth"),
		roundLatency:   fabric.Metrics().Histogram("sync_round_latency_ns"),
		roundsC:        fabric.Metrics().Counter("sync_rounds_total"),
		syncedC:        fabric.Metrics().Counter("sync_entries_synced_total"),
		requeuedC:      fabric.Metrics().Counter("sync_requeued_total"),
	}
	for _, o := range opts {
		o(s)
	}
	if s.wantFeed {
		fs, err := newFeedSyncer(fabric, s.applyFeed)
		if err != nil {
			lifeStop()
			return nil, fmt.Errorf("replicated: %w", err)
		}
		s.feedSync = fs
		close(s.done) // no agent loop to wait for on Close
		return s, nil
	}
	go s.agentLoop()
	return s, nil
}

// FeedDriven reports whether the service propagates through change feeds
// (WithFeedSync) instead of the polling agent.
func (s *ReplicatedService) FeedDriven() bool { return s.feedSync != nil }

// applyFeed pushes one micro-batch of mutations committed at site from to
// every other replica, mirroring the polling agent's push phase: the batch
// travels as one modelled frame per destination and lands as bulk Merge and
// DeleteMany calls. Echoed batches apply as no-ops (Merge skips equal
// entries, DeleteMany skips absent names) and emit no further events.
func (s *ReplicatedService) applyFeed(ctx context.Context, from cloud.SiteID, puts []registry.Entry, dels []string) int {
	if len(puts) == 0 && len(dels) == 0 {
		return 0
	}
	batchBytes := len(dels) * s.fabric.queryBytes
	for _, e := range puts {
		batchBytes += s.fabric.EntrySize(e)
	}
	var (
		applied atomic.Int64
		wg      sync.WaitGroup
	)
	for _, site := range s.fabric.Sites() {
		if site == from {
			continue
		}
		inst, err := s.fabric.Instance(site)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func(site cloud.SiteID, inst registry.API) {
			defer wg.Done()
			start := time.Now()
			if _, err := s.fabric.call(ctx, from, site, batchBytes, s.fabric.ackBytes); err != nil {
				return
			}
			n, _ := inst.Merge(ctx, puts)
			if len(dels) > 0 {
				m, _ := inst.DeleteMany(ctx, dels)
				n += m
			}
			applied.Add(int64(n))
			s.fabric.record(metrics.OpSync, start, s.fabric.Topology().DistanceClass(from, site).Remote())
		}(site, inst)
	}
	wg.Wait()
	n := applied.Load()
	if n > 0 {
		s.mu.Lock()
		s.entriesSynced += n
		s.mu.Unlock()
		s.syncedC.Add(n)
	}
	return int(n)
}

// Kind implements MetadataService.
func (s *ReplicatedService) Kind() StrategyKind { return Replicated }

// AgentSite returns the datacenter hosting the synchronization agent.
func (s *ReplicatedService) AgentSite() cloud.SiteID { return s.agentSite }

// SyncRounds returns how many synchronization rounds the agent has completed.
func (s *ReplicatedService) SyncRounds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// EntriesSynced returns how many entry applications the agent has pushed to
// remote instances in total.
func (s *ReplicatedService) EntriesSynced() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesSynced
}

func (s *ReplicatedService) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *ReplicatedService) localInstance(from cloud.SiteID) (registry.API, error) {
	return s.fabric.Instance(from)
}

// Create implements MetadataService: the entry is created in the caller's
// local registry instance and queued for propagation by the agent.
func (s *ReplicatedService) Create(ctx context.Context, from cloud.SiteID, e registry.Entry) (registry.Entry, error) {
	if s.isClosed() {
		return registry.Entry{}, opErr("create", from, e.Name, ErrClosed)
	}
	inst, err := s.localInstance(from)
	if err != nil {
		return registry.Entry{}, opErr("create", from, e.Name, err)
	}
	s.ops.Inc()
	start := time.Now()
	// One intra-datacenter round trip; the registry instance performs the
	// look-up (existence check) and the write server-side.
	if _, err := s.fabric.call(ctx, from, from, s.fabric.EntrySize(e), s.fabric.ackBytes); err != nil {
		s.fabric.record(metrics.OpWrite, start, false)
		return registry.Entry{}, opErr("create", from, e.Name, err)
	}
	stored, err := inst.Create(ctx, e)
	if err == nil && s.feedSync == nil {
		// Polling mode queues the name for the agent's next round; in feed
		// mode the commit's feed event carries the update by itself.
		s.mu.Lock()
		s.pendingCreates[from] = append(s.pendingCreates[from], e.Name)
		s.mu.Unlock()
		s.queueDepth.Add(1)
	}
	s.fabric.record(metrics.OpWrite, start, false)
	return stored, opErr("create", from, e.Name, err)
}

// Lookup implements MetadataService: only the caller's local instance is
// consulted. Entries created at other sites become visible after the agent's
// next round (eventual consistency).
func (s *ReplicatedService) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	if s.isClosed() {
		return registry.Entry{}, opErr("lookup", from, name, ErrClosed)
	}
	inst, err := s.localInstance(from)
	if err != nil {
		return registry.Entry{}, opErr("lookup", from, name, err)
	}
	s.ops.Inc()
	start := time.Now()
	e, err := inst.Get(ctx, name)
	respBytes := s.fabric.ackBytes
	if err == nil {
		respBytes = s.fabric.EntrySize(e)
	}
	_, callErr := s.fabric.call(ctx, from, from, s.fabric.queryBytes, respBytes)
	s.fabric.record(metrics.OpRead, start, false)
	if lerr := lookupErr(from, name, err, callErr); lerr != nil {
		return registry.Entry{}, lerr
	}
	return e, nil
}

// AddLocation implements MetadataService: the update is applied locally and
// queued for propagation.
func (s *ReplicatedService) AddLocation(ctx context.Context, from cloud.SiteID, name string, loc registry.Location) (registry.Entry, error) {
	if s.isClosed() {
		return registry.Entry{}, opErr("addlocation", from, name, ErrClosed)
	}
	inst, err := s.localInstance(from)
	if err != nil {
		return registry.Entry{}, opErr("addlocation", from, name, err)
	}
	s.ops.Inc()
	start := time.Now()
	if _, err := s.fabric.call(ctx, from, from, s.fabric.queryBytes, s.fabric.ackBytes); err != nil {
		s.fabric.record(metrics.OpUpdate, start, false)
		return registry.Entry{}, opErr("addlocation", from, name, err)
	}
	e, err := inst.AddLocation(ctx, name, loc)
	if err == nil && s.feedSync == nil {
		s.mu.Lock()
		s.pendingCreates[from] = append(s.pendingCreates[from], name)
		s.mu.Unlock()
		s.queueDepth.Add(1)
	}
	s.fabric.record(metrics.OpUpdate, start, false)
	return e, opErr("addlocation", from, name, err)
}

// Delete implements MetadataService: the entry is removed locally and the
// deletion is propagated by the agent.
func (s *ReplicatedService) Delete(ctx context.Context, from cloud.SiteID, name string) error {
	if s.isClosed() {
		return opErr("delete", from, name, ErrClosed)
	}
	inst, err := s.localInstance(from)
	if err != nil {
		return opErr("delete", from, name, err)
	}
	s.ops.Inc()
	start := time.Now()
	if _, err := s.fabric.call(ctx, from, from, s.fabric.queryBytes, s.fabric.ackBytes); err != nil {
		s.fabric.record(metrics.OpDelete, start, false)
		return opErr("delete", from, name, err)
	}
	err = inst.Delete(ctx, name)
	if err == nil && s.feedSync == nil {
		s.mu.Lock()
		s.pendingDeletes[from] = append(s.pendingDeletes[from], name)
		s.mu.Unlock()
		s.queueDepth.Add(1)
	}
	s.fabric.record(metrics.OpDelete, start, false)
	return opErr("delete", from, name, err)
}

// Flush runs one synchronization round immediately and returns when every
// instance has been updated (or the context is cancelled mid-round, in which
// case the drained updates are re-queued and the context's error returned).
// In feed mode it instead waits until every event committed before the call
// has been applied to all replicas.
func (s *ReplicatedService) Flush(ctx context.Context) error {
	if s.isClosed() {
		return opErr("flush", s.agentSite, "", ErrClosed)
	}
	if s.feedSync != nil {
		return opErr("flush", s.agentSite, "", s.feedSync.Flush(ctx))
	}
	return opErr("flush", s.agentSite, "", s.syncRound(ctx))
}

// Close stops the synchronization agent, cancelling any in-flight round.
// Pending updates that have not been propagated yet are dropped; call Flush
// first to push them.
func (s *ReplicatedService) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.lifeStop()
	close(s.stop)
	<-s.done
	if s.feedSync != nil {
		s.feedSync.Close()
	}
	return nil
}

// agentLoop runs synchronization rounds until the service is closed.
func (s *ReplicatedService) agentLoop() {
	defer close(s.done)
	wallInterval := s.fabric.Latency().ToWall(s.interval)
	if wallInterval <= 0 {
		wallInterval = time.Millisecond
	}
	timer := time.NewTimer(wallInterval)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
			s.syncRound(s.life) //nolint:errcheck // a cancelled round re-queues its work
			timer.Reset(wallInterval)
		}
	}
}

// syncRound implements one iteration of the synchronization agent: it
// queries every registry instance for updates, then propagates the merged
// set of updates to every other instance (paper §IV-B and §V). Both phases
// fan out across the sites concurrently — the agent overlaps the per-site
// WAN round trips instead of serializing them — and both travel as bulk
// operations (GetMany on the pull side, Merge plus DeleteMany on the push
// side), so a round costs one request frame per site and direction no matter
// how many entries it carries.
//
// A cancelled context aborts the round mid-fan-out: the per-site goroutines
// return as soon as their modelled exchange or registry call observes the
// cancellation, and every drained update is re-queued so the next round
// picks it up (bulk application is idempotent, so double-propagation is
// harmless).
func (s *ReplicatedService) syncRound(ctx context.Context) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()

	if err := ctx.Err(); err != nil {
		return err
	}

	roundStart := time.Now()

	// Drain the pending queues.
	s.mu.Lock()
	creates := s.pendingCreates
	deletes := s.pendingDeletes
	s.pendingCreates = make(map[cloud.SiteID][]string)
	s.pendingDeletes = make(map[cloud.SiteID][]string)
	s.mu.Unlock()

	drained := 0
	for _, names := range creates {
		drained += len(names)
	}
	for _, names := range deletes {
		drained += len(names)
	}
	s.queueDepth.Add(-int64(drained))

	requeue := func() {
		s.mu.Lock()
		for site, names := range creates {
			s.pendingCreates[site] = append(s.pendingCreates[site], names...)
		}
		for site, names := range deletes {
			s.pendingDeletes[site] = append(s.pendingDeletes[site], names...)
		}
		s.mu.Unlock()
		s.queueDepth.Add(int64(drained))
		s.requeuedC.Add(int64(drained))
	}

	// Pull phase: the agent queries each instance that reported updates,
	// one goroutine per site.
	var (
		pullMu       sync.Mutex
		pullWG       sync.WaitGroup
		all          []registry.Entry
		totalEntries int
	)
	for _, site := range s.fabric.Sites() {
		names := dedupe(creates[site])
		if len(names) == 0 {
			continue
		}
		inst, err := s.fabric.Instance(site)
		if err != nil {
			continue
		}
		pullWG.Add(1)
		go func(site cloud.SiteID, inst registry.API, names []string) {
			defer pullWG.Done()
			start := time.Now()
			// Bulk pull: one request returns every updated entry of the site
			// (entries deleted in the meantime are simply absent).
			batch, err := inst.GetMany(ctx, names)
			if err != nil {
				return
			}
			batchBytes := 0
			for _, e := range batch {
				batchBytes += s.fabric.EntrySize(e)
			}
			s.fabric.call(ctx, s.agentSite, site, s.fabric.queryBytes, batchBytes) //nolint:errcheck // cancellation handled below
			s.fabric.record(metrics.OpSync, start, s.fabric.Topology().DistanceClass(s.agentSite, site).Remote())
			if len(batch) > 0 {
				pullMu.Lock()
				all = append(all, batch...)
				totalEntries += len(batch)
				pullMu.Unlock()
			}
		}(site, inst, names)
	}
	pullWG.Wait()

	if err := ctx.Err(); err != nil {
		requeue()
		return err
	}

	allBytes := 0
	for _, e := range all {
		allBytes += s.fabric.EntrySize(e)
	}
	allDeletes := make([]string, 0)
	for _, names := range deletes {
		allDeletes = append(allDeletes, dedupe(names)...)
	}

	if len(all) == 0 && len(allDeletes) == 0 {
		s.mu.Lock()
		s.rounds++
		s.mu.Unlock()
		s.roundsC.Inc()
		s.roundLatency.ObserveDuration(time.Since(roundStart))
		return nil
	}

	// Push phase: propagate the merged set to every instance concurrently.
	// Creates travel as one Merge batch, deletions as one DeleteMany batch —
	// never as per-entry calls.
	var (
		synced atomic.Int64
		pushWG sync.WaitGroup
	)
	for _, site := range s.fabric.Sites() {
		inst, err := s.fabric.Instance(site)
		if err != nil {
			continue
		}
		pushWG.Add(1)
		go func(site cloud.SiteID, inst registry.API) {
			defer pushWG.Done()
			start := time.Now()
			if _, err := s.fabric.call(ctx, s.agentSite, site, allBytes+len(allDeletes)*s.fabric.queryBytes, s.fabric.ackBytes); err != nil {
				return
			}
			applied, _ := inst.Merge(ctx, all)
			if len(allDeletes) > 0 {
				n, _ := inst.DeleteMany(ctx, allDeletes)
				applied += n
			}
			synced.Add(int64(applied))
			s.fabric.record(metrics.OpSync, start, s.fabric.Topology().DistanceClass(s.agentSite, site).Remote())
		}(site, inst)
	}
	pushWG.Wait()

	if err := ctx.Err(); err != nil {
		// Some sites may have been updated before the cancellation; the bulk
		// operations are idempotent, so re-queueing everything is safe.
		requeue()
		return err
	}

	s.mu.Lock()
	s.rounds++
	s.entriesSynced += synced.Load()
	s.entriesObserved += int64(totalEntries)
	s.mu.Unlock()
	s.roundsC.Inc()
	s.syncedC.Add(synced.Load())
	s.roundLatency.ObserveDuration(time.Since(roundStart))
	return nil
}

// dedupe returns the unique strings of the input, preserving first-seen order.
func dedupe(in []string) []string {
	if len(in) <= 1 {
		return in
	}
	seen := make(map[string]bool, len(in))
	out := in[:0:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
