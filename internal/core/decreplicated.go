package core

import (
	"context"
	"sync/atomic"

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
// eventual-consistency scheme, §III-D). Every operation is the package's two
// steps, mutate and fetch, taken at the caller's site and then at the home.
type DecReplicatedService struct {
	service
	placer *dht.ModuloPlacer
	// propagator carries home-site propagation in the lazy scheme; nil in
	// eager mode.
	propagator *Propagator

	localHits   atomic.Int64
	remoteReads atomic.Int64

	// Live instruments (nil when the fabric's instrumentation is off).
	hitsC    *metrics.Counter // core_dr_local_hits_total
	remotesC *metrics.Counter // core_dr_remote_reads_total
}

// NewDecReplicated builds the hybrid decentralized/replicated strategy, homing
// each name at its hash modulo the fabric's sites. Writes propagate to the
// home lazily, every cfg.FlushInterval, or with cfg.Eager synchronously.
// Writers perceive only the local latency unless cfg.Eager is set.
func NewDecReplicated(fabric *Fabric, cfg StrategyConfig) (*DecReplicatedService, error) {
	s := &DecReplicatedService{
		placer:   dht.NewModuloPlacer(fabric.sites),
		hitsC:    fabric.Metrics().Counter("core_dr_local_hits_total"),
		remotesC: fabric.Metrics().Counter("core_dr_remote_reads_total"),
	}
	s.service = newService(fabric, DecentralizedReplicated)
	if cfg.Eager {
		return s, nil
	}
	s.propagator = NewPropagator(fabric, cfg.FlushInterval)
	return s, nil
}

// Home returns the hashed home site of the given entry name.
func (s *DecReplicatedService) Home(name string) cloud.SiteID { return s.placer.Home(name) }

// Lazy reports whether home-site propagation is lazy (batched) or eager.
func (s *DecReplicatedService) Lazy() bool { return s.propagator != nil }

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
	o, err := s.begin(metrics.OpWrite, from, e.Name)
	if err != nil {
		return registry.Entry{}, err
	}
	// The existence check is against the local replica set.
	stored, _, err := s.fabric.mutate(ctx, from, from, s.fabric.EntrySize(e),
		func(inst registry.API) (registry.Entry, error) { return inst.Create(ctx, e) })
	home := s.placer.Home(e.Name)
	if err != nil || home == from {
		return stored, s.finish(o, false, err)
	}
	if s.Lazy() {
		// Lazy mode (paper §III-D): the home copy is propagated in a later
		// batch; the writer only perceives the local latency. Writes are
		// optimistic: concurrent creates of the same name at different sites
		// converge at the home via the merge.
		s.propagator.Enqueue(from, home, stored)
		return stored, s.finish(o, false, nil)
	}
	// Eager mode: a second, synchronous round trip stores the entry at its
	// hashed home site (the existence check happens there as part of the same
	// request).
	_, remote, err := s.fabric.mutate(ctx, from, home, s.fabric.EntrySize(stored),
		func(inst registry.API) (registry.Entry, error) { return inst.Create(ctx, stored) })
	if err != nil {
		return registry.Entry{}, s.finish(o, remote, err)
	}
	return stored, s.finish(o, remote, nil)
}

// Lookup implements MetadataService: two-step hierarchical read — local
// replica first, then the hashed home site.
func (s *DecReplicatedService) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	o, err := s.begin(metrics.OpRead, from, name)
	if err != nil {
		return registry.Entry{}, err
	}
	// Step 1: local replica. Any failure short of the caller giving up reads
	// as a miss.
	e, _, err := s.fabric.fetch(ctx, from, from, name)
	if err == nil {
		s.localHits.Add(1)
		s.hitsC.Inc()
		return e, s.finish(o, false, nil)
	}
	if ctx.Err() != nil {
		return registry.Entry{}, s.finish(o, false, ctx.Err())
	}
	// Step 2: the entry's home site — unless the local instance *is* the
	// home, in which case the entry does not exist (yet).
	remote := false
	err = ErrNotFound
	if home := s.placer.Home(name); home != from {
		e, remote, err = s.fabric.fetch(ctx, from, home, name)
	}
	s.remoteReads.Add(1)
	s.remotesC.Inc()
	return e, s.finish(o, remote, err)
}

// AddLocation implements MetadataService: the update is applied to the local
// replica if present and to the home site (eagerly or lazily).
func (s *DecReplicatedService) AddLocation(ctx context.Context, from cloud.SiteID, name string, loc registry.Location) (registry.Entry, error) {
	o, err := s.begin(metrics.OpUpdate, from, name)
	if err != nil {
		return registry.Entry{}, err
	}
	addLoc := func(inst registry.API) (registry.Entry, error) { return inst.AddLocation(ctx, name, loc) }
	updated, _, localErr := s.fabric.mutate(ctx, from, from, s.fabric.queryBytes, addLoc)
	if ctx.Err() != nil {
		return registry.Entry{}, s.finish(o, false, ctx.Err())
	}
	home := s.placer.Home(name)
	if home == from {
		return updated, s.finish(o, false, localErr)
	}
	if s.Lazy() && localErr == nil {
		// Local update succeeded; propagate the new state lazily.
		s.propagator.Enqueue(from, home, updated)
		return updated, s.finish(o, false, nil)
	}
	// Eager mode, or the entry is not replicated locally: update the home. In
	// eager mode a home that missed the update fails the call, as it fails an
	// eager Create: the next Lookup from another site reads the home copy.
	e, remote, err := s.fabric.mutate(ctx, from, home, s.fabric.queryBytes, addLoc)
	return e, s.finish(o, remote, err)
}

// Flush pushes every pending lazy batch to its home site. A destination that
// cannot be updated — or a cancelled context — fails the flush; the
// un-applied batches stay queued for the propagator's next round.
func (s *DecReplicatedService) Flush(ctx context.Context) error {
	switch {
	case s.closed.Load():
		return opErr("flush", 0, "", ErrClosed)
	case s.propagator != nil:
		return opErr("flush", 0, "", s.propagator.FlushNow(ctx))
	}
	return ctx.Err()
}

// Close stops the lazy propagator, flushing pending batches first; it
// returns the error of that last flush.
func (s *DecReplicatedService) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.propagator != nil {
		return opErr("flush", 0, "", s.propagator.Close())
	}
	return nil
}
