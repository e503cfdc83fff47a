package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/dht"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// DecReplicatedService implements the hybrid strategy, decentralized metadata
// with local replication (paper §IV-D): every new entry is first stored in
// the writer's local registry instance, then stored at the site designated by
// hashing its name (the "home"). Reads follow a two-step hierarchical
// procedure: look in the local instance first and, on a miss, in the home
// instance. With uniform metadata creation this doubles the probability of a
// local hit compared to the non-replicated scheme, saving one costly remote
// operation per read served locally (up to ~50x faster per Figure 3).
//
// Propagation to the home site is either eager (synchronous, part of the
// write latency) or lazy (batched and asynchronous, the paper's preferred
// eventual-consistency scheme, §III-D).
type DecReplicatedService struct {
	fabric *Fabric
	placer dht.Placer
	// lazy selects batched asynchronous propagation to the home site.
	lazy       bool
	propagator *Propagator
	// feedSync replaces the propagator in feed mode (WithFeedPropagation):
	// home copies converge by consuming the sites' change feeds.
	feedSync *feedSyncer
	closed   atomic.Bool

	localHits   atomic.Int64
	remoteReads atomic.Int64

	// Live instruments (nil when the fabric's instrumentation is off).
	ops      *metrics.Counter // core_strategy_dr_ops_total
	hitsC    *metrics.Counter // core_dr_local_hits_total
	remotesC *metrics.Counter // core_dr_remote_reads_total
}

// DecReplicatedOption configures a DecReplicatedService.
type DecReplicatedOption func(*decRepConfig)

type decRepConfig struct {
	placer        dht.Placer
	eager         bool
	feed          bool
	flushInterval time.Duration
	maxBatch      int
	propOpts      []PropagatorOption
}

// WithPlacer selects the hashing scheme used to pick home sites (default
// modulo hashing over the fabric's sites).
func WithPlacer(p dht.Placer) DecReplicatedOption {
	return func(c *decRepConfig) { c.placer = p }
}

// WithEagerPropagation makes writes propagate to the home site synchronously
// instead of using lazy batched updates.
func WithEagerPropagation() DecReplicatedOption {
	return func(c *decRepConfig) { c.eager = true }
}

// WithLazyPropagation tunes the lazy-update batching parameters.
func WithLazyPropagation(flushInterval time.Duration, maxBatch int) DecReplicatedOption {
	return func(c *decRepConfig) {
		c.eager = false
		c.feed = false
		c.flushInterval = flushInterval
		c.maxBatch = maxBatch
	}
}

// WithAdaptiveLazyBatch arms the lazy propagator's adaptive batch sizing
// (see WithAdaptiveBatch): the early-flush limit moves within [min, max]
// driven by the windowed p95 of observed flush-round latencies against
// target. It only matters for the lazy propagation scheme.
func WithAdaptiveLazyBatch(min, max int, target time.Duration) DecReplicatedOption {
	return func(c *decRepConfig) {
		c.propOpts = append(c.propOpts, WithAdaptiveBatch(min, max, target))
	}
}

// WithFeedPropagation keeps writes asynchronous like the lazy scheme but
// replaces the interval-driven propagator with a consumer of the sites'
// change feeds: a locally committed write reaches its hashed home site as
// soon as its feed event arrives, rather than on the next flush tick.
// Writers still perceive only the local latency. Requires a fabric built
// with site.Config.Feed; NewDecReplicated fails with ErrNoFeed otherwise.
func WithFeedPropagation() DecReplicatedOption {
	return func(c *decRepConfig) {
		c.eager = false
		c.feed = true
	}
}

// NewDecReplicated builds the hybrid decentralized/replicated strategy.
func NewDecReplicated(fabric *Fabric, opts ...DecReplicatedOption) (*DecReplicatedService, error) {
	cfg := decRepConfig{flushInterval: DefaultFlushInterval, maxBatch: DefaultMaxBatch}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.placer == nil {
		cfg.placer = dht.NewModuloPlacer(fabric.Sites())
	}
	for _, s := range cfg.placer.Sites() {
		if !fabric.HasSite(s) {
			return nil, fmt.Errorf("decentralized-rep: placer site %d: %w", s, ErrNoSuchSite)
		}
	}
	s := &DecReplicatedService{
		fabric:   fabric,
		placer:   cfg.placer,
		lazy:     !cfg.eager,
		ops:      fabric.strategyOps(DecentralizedReplicated),
		hitsC:    fabric.Metrics().Counter("core_dr_local_hits_total"),
		remotesC: fabric.Metrics().Counter("core_dr_remote_reads_total"),
	}
	if s.lazy {
		if cfg.feed {
			fs, err := newFeedSyncer(fabric, s.applyFeed)
			if err != nil {
				return nil, fmt.Errorf("decentralized-rep: %w", err)
			}
			s.feedSync = fs
		} else {
			s.propagator = NewPropagator(fabric, cfg.flushInterval, cfg.maxBatch, cfg.propOpts...)
		}
	}
	return s, nil
}

// FeedDriven reports whether home-site propagation consumes change feeds
// (WithFeedPropagation) instead of the interval-driven propagator.
func (s *DecReplicatedService) FeedDriven() bool { return s.feedSync != nil }

// applyFeed routes one micro-batch of mutations committed at site from to the
// home sites of the touched names. Events already at their home (from ==
// home) drop out — which is also what stops the echo: applying a put at the
// home republishes it on the home's feed, and that event's home is its own
// origin.
func (s *DecReplicatedService) applyFeed(ctx context.Context, from cloud.SiteID, puts []registry.Entry, dels []string) int {
	type group struct {
		puts []registry.Entry
		dels []string
	}
	byHome := make(map[cloud.SiteID]*group)
	add := func(home cloud.SiteID) *group {
		g := byHome[home]
		if g == nil {
			g = &group{}
			byHome[home] = g
		}
		return g
	}
	for _, e := range puts {
		if home := s.placer.Home(e.Name); home != from {
			g := add(home)
			g.puts = append(g.puts, e)
		}
	}
	for _, name := range dels {
		if home := s.placer.Home(name); home != from {
			g := add(home)
			g.dels = append(g.dels, name)
		}
	}
	var (
		applied atomic.Int64
		wg      sync.WaitGroup
	)
	for home, g := range byHome {
		inst, err := s.fabric.Instance(home)
		if err != nil {
			continue
		}
		batchBytes := len(g.dels) * s.fabric.queryBytes
		for _, e := range g.puts {
			batchBytes += s.fabric.EntrySize(e)
		}
		wg.Add(1)
		go func(home cloud.SiteID, inst registry.API, g *group, batchBytes int) {
			defer wg.Done()
			start := time.Now()
			if _, err := s.fabric.call(ctx, from, home, batchBytes, s.fabric.ackBytes); err != nil {
				return
			}
			n, _ := inst.Merge(ctx, g.puts)
			if len(g.dels) > 0 {
				m, _ := inst.DeleteMany(ctx, g.dels)
				n += m
			}
			applied.Add(int64(n))
			s.fabric.record(metrics.OpSync, start, s.fabric.Topology().DistanceClass(from, home).Remote())
		}(home, inst, g, batchBytes)
	}
	wg.Wait()
	return int(applied.Load())
}

// Kind implements MetadataService.
func (s *DecReplicatedService) Kind() StrategyKind { return DecentralizedReplicated }

// Home returns the hashed home site of the given entry name.
func (s *DecReplicatedService) Home(name string) cloud.SiteID { return s.placer.Home(name) }

// Lazy reports whether home-site propagation is lazy (batched) or eager.
func (s *DecReplicatedService) Lazy() bool { return s.lazy }

// LocalHitRate returns the fraction of reads served by the caller's local
// replica. It returns 0 before any read has completed.
func (s *DecReplicatedService) LocalHitRate() float64 {
	hits := s.localHits.Load()
	total := hits + s.remoteReads.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Create implements MetadataService: the entry is stored in the caller's
// local instance first, then replicated to its hashed home site (eagerly or
// lazily). When the hash designates the local site no second copy is made.
func (s *DecReplicatedService) Create(ctx context.Context, from cloud.SiteID, e registry.Entry) (registry.Entry, error) {
	if s.closed.Load() {
		return registry.Entry{}, opErr("create", from, e.Name, ErrClosed)
	}
	local, err := s.fabric.Instance(from)
	if err != nil {
		return registry.Entry{}, opErr("create", from, e.Name, err)
	}
	home := s.placer.Home(e.Name)
	s.ops.Inc()
	start := time.Now()

	// The entry is first stored in the local registry instance: one
	// intra-datacenter round trip, with the look-up (existence check against
	// the local replica set) and the write performed server-side.
	if _, err := s.fabric.call(ctx, from, from, s.fabric.EntrySize(e), s.fabric.ackBytes); err != nil {
		s.fabric.record(metrics.OpWrite, start, false)
		return registry.Entry{}, opErr("create", from, e.Name, err)
	}
	stored, err := local.Create(ctx, e)
	if err != nil {
		s.fabric.record(metrics.OpWrite, start, false)
		return registry.Entry{}, opErr("create", from, e.Name, err)
	}

	if home != from {
		if s.lazy {
			// Lazy mode (paper §III-D): the home copy is propagated in a
			// later batch; the writer only perceives the local latency.
			// Writes are optimistic: concurrent creates of the same name at
			// different sites converge at the home via the merge. In feed
			// mode the local commit's feed event carries the propagation —
			// there is nothing to enqueue.
			if s.propagator != nil {
				s.propagator.Enqueue(from, home, stored)
			}
		} else {
			// Eager mode: a second, synchronous round trip stores the entry
			// at its hashed home site (the existence check happens there as
			// part of the same request).
			homeInst, err := s.fabric.Instance(home)
			if err != nil {
				return registry.Entry{}, opErr("create", from, e.Name, err)
			}
			if _, err := s.fabric.call(ctx, from, home, s.fabric.EntrySize(stored), s.fabric.ackBytes); err != nil {
				s.fabric.record(metrics.OpWrite, start, true)
				return registry.Entry{}, opErr("create", from, e.Name, err)
			}
			if _, err := homeInst.Create(ctx, stored); err != nil {
				s.fabric.record(metrics.OpWrite, start, true)
				if errors.Is(err, registry.ErrExists) {
					return registry.Entry{}, opErr("create", from, e.Name, ErrExists)
				}
				return registry.Entry{}, opErr("create", from, e.Name, err)
			}
			s.fabric.record(metrics.OpWrite, start, true)
			return stored, nil
		}
	}
	// The caller only waits for the local write (plus enqueueing).
	s.fabric.record(metrics.OpWrite, start, false)
	return stored, nil
}

// Lookup implements MetadataService: two-step hierarchical read — local
// replica first, then the hashed home site.
func (s *DecReplicatedService) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	if s.closed.Load() {
		return registry.Entry{}, opErr("lookup", from, name, ErrClosed)
	}
	local, err := s.fabric.Instance(from)
	if err != nil {
		return registry.Entry{}, opErr("lookup", from, name, err)
	}
	s.ops.Inc()
	start := time.Now()

	// Step 1: local replica.
	if e, err := local.Get(ctx, name); err == nil {
		if _, callErr := s.fabric.call(ctx, from, from, s.fabric.queryBytes, s.fabric.EntrySize(e)); callErr != nil {
			s.fabric.record(metrics.OpRead, start, false)
			return registry.Entry{}, opErr("lookup", from, name, callErr)
		}
		s.fabric.record(metrics.OpRead, start, false)
		s.localHits.Add(1)
		s.hitsC.Inc()
		return e, nil
	} else if ctx.Err() != nil {
		s.fabric.record(metrics.OpRead, start, false)
		return registry.Entry{}, opErr("lookup", from, name, ctx.Err())
	}
	if _, callErr := s.fabric.call(ctx, from, from, s.fabric.queryBytes, s.fabric.ackBytes); callErr != nil {
		s.fabric.record(metrics.OpRead, start, false)
		return registry.Entry{}, opErr("lookup", from, name, callErr)
	}

	// Step 2: the entry's home site.
	home := s.placer.Home(name)
	if home == from {
		// The local instance *is* the home: the entry does not exist (yet).
		s.fabric.record(metrics.OpRead, start, false)
		s.remoteReads.Add(1)
		s.remotesC.Inc()
		return registry.Entry{}, opErr("lookup", from, name, ErrNotFound)
	}
	homeInst, err := s.fabric.Instance(home)
	if err != nil {
		return registry.Entry{}, opErr("lookup", from, name, err)
	}
	e, err := homeInst.Get(ctx, name)
	respBytes := s.fabric.ackBytes
	if err == nil {
		respBytes = s.fabric.EntrySize(e)
	}
	_, callErr := s.fabric.call(ctx, from, home, s.fabric.queryBytes, respBytes)
	s.fabric.record(metrics.OpRead, start, true)
	s.remoteReads.Add(1)
	s.remotesC.Inc()
	if lerr := lookupErr(from, name, err, callErr); lerr != nil {
		return registry.Entry{}, lerr
	}
	return e, nil
}

// AddLocation implements MetadataService: the update is applied to the local
// replica if present and to the home site (eagerly or lazily).
func (s *DecReplicatedService) AddLocation(ctx context.Context, from cloud.SiteID, name string, loc registry.Location) (registry.Entry, error) {
	if s.closed.Load() {
		return registry.Entry{}, opErr("addlocation", from, name, ErrClosed)
	}
	local, err := s.fabric.Instance(from)
	if err != nil {
		return registry.Entry{}, opErr("addlocation", from, name, err)
	}
	home := s.placer.Home(name)
	s.ops.Inc()
	start := time.Now()

	var updated registry.Entry
	var localErr error
	if _, err := s.fabric.call(ctx, from, from, s.fabric.queryBytes, s.fabric.ackBytes); err != nil {
		s.fabric.record(metrics.OpUpdate, start, false)
		return registry.Entry{}, opErr("addlocation", from, name, err)
	}
	if local.Contains(ctx, name) {
		updated, localErr = local.AddLocation(ctx, name, loc)
	} else {
		localErr = registry.ErrNotFound
	}
	if ctx.Err() != nil {
		s.fabric.record(metrics.OpUpdate, start, false)
		return registry.Entry{}, opErr("addlocation", from, name, ctx.Err())
	}

	if home == from {
		s.fabric.record(metrics.OpUpdate, start, false)
		if localErr != nil {
			return registry.Entry{}, opErr("addlocation", from, name, ErrNotFound)
		}
		return updated, nil
	}

	homeInst, err := s.fabric.Instance(home)
	if err != nil {
		return registry.Entry{}, opErr("addlocation", from, name, err)
	}
	if s.lazy && localErr == nil {
		// Local update succeeded; propagate the new state lazily (the feed
		// event of the local commit carries it in feed mode).
		if s.propagator != nil {
			s.propagator.Enqueue(from, home, updated)
		}
		s.fabric.record(metrics.OpUpdate, start, false)
		return updated, nil
	}
	// Eager mode, or the entry is not replicated locally: update the home.
	remote, callErr := s.fabric.call(ctx, from, home, s.fabric.queryBytes, s.fabric.ackBytes)
	if callErr != nil {
		s.fabric.record(metrics.OpUpdate, start, remote)
		return registry.Entry{}, opErr("addlocation", from, name, callErr)
	}
	e, err := homeInst.AddLocation(ctx, name, loc)
	s.fabric.record(metrics.OpUpdate, start, remote)
	if err != nil && localErr == nil {
		return updated, nil
	}
	return e, opErr("addlocation", from, name, err)
}

// Delete implements MetadataService: the entry is removed from the local
// replica and from its home site. In lazy mode a locally confirmed delete
// only enqueues the home-site removal — it rides the propagator's next batch
// as part of a DeleteMany frame and the caller perceives just the local
// latency, mirroring how lazy creates and updates behave. When there is no
// local copy to confirm against, the home is deleted eagerly so the caller
// gets an authoritative answer.
func (s *DecReplicatedService) Delete(ctx context.Context, from cloud.SiteID, name string) error {
	if s.closed.Load() {
		return opErr("delete", from, name, ErrClosed)
	}
	local, err := s.fabric.Instance(from)
	if err != nil {
		return opErr("delete", from, name, err)
	}
	home := s.placer.Home(name)
	s.ops.Inc()
	start := time.Now()

	if _, err := s.fabric.call(ctx, from, from, s.fabric.queryBytes, s.fabric.ackBytes); err != nil {
		s.fabric.record(metrics.OpDelete, start, false)
		return opErr("delete", from, name, err)
	}
	localErr := local.Delete(ctx, name)
	if ctx.Err() != nil {
		s.fabric.record(metrics.OpDelete, start, false)
		return opErr("delete", from, name, ctx.Err())
	}

	if home == from {
		s.fabric.record(metrics.OpDelete, start, false)
		return opErr("delete", from, name, localErr)
	}
	if s.lazy && localErr == nil {
		// The local delete succeeded; the home copy is removed in a later
		// batch (or by the local delete's feed event in feed mode).
		if s.propagator != nil {
			s.propagator.EnqueueDelete(from, home, name)
		}
		s.fabric.record(metrics.OpDelete, start, false)
		return nil
	}
	homeInst, err := s.fabric.Instance(home)
	if err != nil {
		return opErr("delete", from, name, err)
	}
	remote, callErr := s.fabric.call(ctx, from, home, s.fabric.queryBytes, s.fabric.ackBytes)
	if callErr != nil {
		s.fabric.record(metrics.OpDelete, start, remote)
		return opErr("delete", from, name, callErr)
	}
	homeErr := homeInst.Delete(ctx, name)
	s.fabric.record(metrics.OpDelete, start, remote)
	if localErr == nil || homeErr == nil {
		return nil
	}
	if errors.Is(homeErr, registry.ErrNotFound) {
		return opErr("delete", from, name, ErrNotFound)
	}
	return opErr("delete", from, name, homeErr)
}

// Flush pushes every pending lazy batch to its home site. A cancelled
// context aborts the flush mid-fan-out; the un-applied batches are re-queued
// for the propagator's next round.
func (s *DecReplicatedService) Flush(ctx context.Context) error {
	if s.closed.Load() {
		return opErr("flush", 0, "", ErrClosed)
	}
	if s.feedSync != nil {
		return opErr("flush", 0, "", s.feedSync.Flush(ctx))
	}
	if s.propagator != nil {
		return opErr("flush", 0, "", s.propagator.FlushNow(ctx))
	}
	return ctx.Err()
}

// Close stops the lazy propagator (flushing pending batches first).
func (s *DecReplicatedService) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.propagator != nil {
		s.propagator.Close()
	}
	if s.feedSync != nil {
		s.feedSync.Close()
	}
	return nil
}
