package registry

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/dht"
	"geomds/internal/feed"
	"geomds/internal/metrics"
)

// Router implements API over a horizontally-scaled tier of shard instances
// within one site. Where a plain *Instance (or one rpc.Client) is the "one
// registry per datacenter" deployment of the paper, a Router is N of them
// behind one API: single-key operations are routed to the shards owning the
// key (the same hashing machinery internal/dht uses to pick a site picks the
// shards), and bulk operations are split into at most one sub-batch per shard,
// issued concurrently and merged — a GetMany over a 4-shard site costs four
// concurrent sub-batch calls, never one call per key.
//
// Because Router satisfies API, everything built over a registry instance —
// the four strategies, the synchronization agent, the lazy propagator, the
// RPC server — drives a sharded site transparently. The shards themselves may
// be in-process *Instance values (one cache per shard, scaling the site's
// bounded cache capacity) or rpc.Client proxies to shard servers running as
// separate processes (scaling across machines).
//
// Placement has one rule, parameterised by the replication factor R
// (WithRouterReplication, default 1): every key lives on its replica set, the
// first R distinct shards of its consistent-hash successor list
// (dht.Placer.Homes), primary first. Writes fan out to all R homes and
// succeed only when every one acknowledges, single-key reads try the primary
// and fail over down the replica list on transport errors, and a shard that
// is primary for some keys of a bulk call and replica for others receives one
// combined frame. The paper's single-home tier is R = 1, a replica set of
// one, served by the same code (a one-member fan-out simply stays on the
// caller's goroutine). A per-shard health breaker (fed by operation outcomes
// plus a background probe) takes crashed shards out of placement so a dead
// shard costs a few failed calls, not an error storm; when the shard answers
// its probe again a re-sync sweep repairs everything it missed while it was
// away. What R = 1 turns off is policy, one check of the factor each, never a
// second implementation of an operation — with one home per key there is
// nowhere correct to re-route to, so report does not feed the breaker,
// replicaIDs and reachableShards keep down shards in placement,
// forceNoteDeleted records no failed delete (the caller was told, and
// nothing would ever unpin its note), sweepShard skips the
// noted-name cleanup (no second replica to restore a raced write from), and
// Len can sum the shard sizes. docs/ARCHITECTURE.md tabulates each with its
// reason.
//
// The shard set is fixed when the router is built. Operations issued through
// the router stay reliable while a re-sync sweep is in flight: a read that
// misses at a key's homes falls back to the other shards, and a deletion —
// single or bulk — is recorded and purged so a stale copy on a substitute or
// on the returning shard can never resurrect it. Routers that share shards
// but not state (a second router process over the same shard servers) see
// plain eventual consistency during a sweep instead — the contract the paper
// accepts for server volatility (§VIII).
//
// Partial failures of bulk operations surface through the typed-error model:
// the returned error wraps each failed shard's cause (so errors.Is sees
// ErrUnavailable when a shard is unreachable), and sub-batches that did reach
// their shard stay applied. Bulk application is idempotent, so callers — like
// the sync agent — simply re-send on the next round.
//
// The data operations live in replication.go, sweeps here.
//
// A Router is safe for concurrent use.
type Router struct {
	site   cloud.SiteID
	placer dht.Placer // over shard IDs masquerading as site IDs

	// shards is the tier, indexed by shard ID. NewRouter sets it and nothing
	// changes it afterwards, so reading it takes no lock.
	shards []API

	// rep is the replication factor — the size of every key's replica set, 1
	// by default. health is the per-shard breaker tier; it is always present,
	// but only rep > 1 routing feeds it and skips shards whose breaker is open
	// (with one home per key there is nowhere correct to re-route to).
	rep    int
	health *healthTracker

	// sweeps counts every sweep from sweepBegin to sweepEnd (see Wait);
	// sweeping counts the active sweeps alone so the hot path can cheaply
	// tell whether entries may currently live away from their home shards.
	// It is raised *before* a recovering shard's breaker closes and lowered
	// only when the sweep (including retries) is over, so there is no window
	// in which the shard is back in placement but the mitigations below are
	// inactive. sweepGen increments on every sweepBegin: the write path
	// snapshots it before resolving any replica set and re-checks it after
	// its shard calls, catching even a sweep that started *and finished*
	// while the write was in flight.
	sweeps   sync.WaitGroup
	sweeping atomic.Int32
	sweepGen atomic.Uint64

	// staleNotes is set when a background sweep is abandoned (it may have
	// left a stale copy of a noted name behind) and cleared only by a clean
	// full sweep — the point at which every shard has been reconciled
	// against the notes. While set, every deletion is noted and the note
	// table is never cleared.
	staleNotes atomic.Bool

	// delMu guards deletedDuringSweep — the deletion notes, each name mapped
	// to whether its note is pinned — *and* serializes the sweeping
	// transitions against it: notes are only recorded while notesNeeded and
	// the unpinned ones are cleared in the same critical section that drops
	// the sweep counter to zero, so a stale note can never leak into a later
	// sweep. A note is pinned when its deletion was force-noted (a replica
	// failed to apply it and holds a stale copy whatever the breaker or sweep
	// state); it outlives sweepEnd until a clean sweep unpins it. A sweep
	// consults the notes before and after merging a batch so a stale source
	// copy cannot resurrect a concurrent deletion; writes re-establishing a
	// name clear its note.
	delMu              sync.Mutex
	deletedDuringSweep map[string]bool

	// relay is the tier's combined change feed — every shard's events
	// re-sequenced into one log — enabled when every shard implements
	// ChangeFeeder (see feed.go). The shards' logs publish into it; Close
	// closes it.
	relay *feed.Log

	obs routerObs
}

// Router implements the registry API.
var _ API = (*Router)(nil)

// routerObs holds the router's observability instruments, resolved once at
// construction. All fields tolerate being nil (instrumentation disabled).
type routerObs struct {
	shardsG    *metrics.Gauge     // router_shards: active shards in placement
	replicaG   *metrics.Gauge     // router_replication: configured replication factor
	bulkOps    *metrics.Counter   // router_bulk_ops_total: bulk calls on the router
	subBatches *metrics.Counter   // router_subbatches_total: per-shard sub-batches issued
	migrated   *metrics.Counter   // router_migrated_entries_total: off-home copies moved by sweeps
	repaired   *metrics.Counter   // router_repaired_entries_total: replica copies (re)written by sweeps
	sweepsC    *metrics.Counter   // router_sweeps_total: re-sync sweeps completed
	sweepFails *metrics.Counter   // router_sweep_failures_total: background sweeps abandoned after retries
	resyncs    *metrics.Counter   // router_resync_sweeps_total: sweeps triggered by a shard recovering
	failovers  *metrics.Counter   // router_failover_reads_total: reads served by a non-primary replica
	readLat    *metrics.Histogram // router_read_latency_ns: answered single-key Gets, end to end
}

func newRouterObs(reg *metrics.Registry) routerObs {
	return routerObs{
		shardsG:    reg.Gauge("router_shards"),
		replicaG:   reg.Gauge("router_replication"),
		bulkOps:    reg.Counter("router_bulk_ops_total"),
		subBatches: reg.Counter("router_subbatches_total"),
		migrated:   reg.Counter("router_migrated_entries_total"),
		repaired:   reg.Counter("router_repaired_entries_total"),
		sweepsC:    reg.Counter("router_sweeps_total"),
		sweepFails: reg.Counter("router_sweep_failures_total"),
		resyncs:    reg.Counter("router_resync_sweeps_total"),
		failovers:  reg.Counter("router_failover_reads_total"),
		readLat:    reg.Histogram("router_read_latency_ns"),
	}
}

// WriteConcern names the replicated-write acknowledgement rule. There is one:
// WriteAll, every replica acknowledges or the write fails. The type remains
// only as the value of metaserver's -write-concern flag and of
// WithRouterWriteConcern, which geobench still passes.
type WriteConcern int

// WriteAll requires every targeted replica to acknowledge; any replica
// failure surfaces as an error (replicas that were reached stay applied).
const WriteAll WriteConcern = 0

// String returns the concern's flag spelling, "all".
func (WriteConcern) String() string { return "all" }

// Set parses the flag spelling, making *WriteConcern a flag.Value (the
// -write-concern flag of metaserver). Only "all" is accepted.
func (c *WriteConcern) Set(s string) error {
	if s != "all" {
		return fmt.Errorf("registry: write concern must be all, got %q", s)
	}
	*c = WriteAll
	return nil
}

// RouterOption configures a Router.
type RouterOption func(*routerConfig)

type routerConfig struct {
	metrics         *metrics.Registry
	replication     int
	healthThreshold int
	probeInterval   time.Duration
}

// WithRouterMetrics selects the registry the router's instruments report to:
// the active-shard gauge, bulk-call and sub-batch counters (their ratio is
// the fan-out factor), migrated-entry and sweep counters, and the
// suppressed-error counter fed by best-effort operations. The default is
// metrics.Default; pass nil to disable instrumentation entirely.
func WithRouterMetrics(reg *metrics.Registry) RouterOption {
	return func(c *routerConfig) { c.metrics = reg }
}

// WithRouterReplication stores every key on the first r distinct shards of
// its successor list instead of one home shard: writes fan out to all r
// replicas, reads fail over down the list when the primary is unreachable,
// and routing draws replica sets from healthy shards only — a shard whose
// breaker is open is skipped and re-synced when it returns. r <= 1 keeps the
// default, a replica set of one.
func WithRouterReplication(r int) RouterOption {
	return func(c *routerConfig) {
		if r > 1 {
			c.replication = r
		}
	}
}

// WithRouterWriteConcern has no effect: WriteAll is the only rule. It remains
// because geobench still passes it.
func WithRouterWriteConcern(WriteConcern) RouterOption {
	return func(*routerConfig) {}
}

// WithRouterHealth tunes the per-shard breaker: threshold is the number of
// consecutive transport failures that mark a shard down, probeInterval is
// how often down shards are re-probed. Non-positive values keep the
// defaults (3 failures, 250ms).
func WithRouterHealth(threshold int, probeInterval time.Duration) RouterOption {
	return func(c *routerConfig) {
		c.healthThreshold = threshold
		c.probeInterval = probeInterval
	}
}

// NewRouter builds a routing tier for the given site over the given shard
// instances. Shards are assigned IDs 0..n-1 in input order, and the set is
// fixed for the router's life. Keys map to shards by a consistent-hash ring
// (dht.NewRingPlacer).
func NewRouter(site cloud.SiteID, shards []API, opts ...RouterOption) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("registry: router needs at least one shard")
	}
	cfg := routerConfig{metrics: metrics.Default}
	for _, o := range opts {
		o(&cfg)
	}
	ids := make([]cloud.SiteID, len(shards))
	for i := range shards {
		ids[i] = cloud.SiteID(i)
	}
	rep := max(cfg.replication, 1)
	r := &Router{
		site:   site,
		placer: dht.NewRingPlacer(ids, 0),
		shards: slices.Clone(shards),
		rep:    rep,
		health: newHealthTracker(len(shards), cfg.healthThreshold, cfg.probeInterval, cfg.metrics),
		obs:    newRouterObs(cfg.metrics),
	}
	r.health.probe = r.probeShard
	// A recovering shard re-enters placement missing everything written while
	// it was away: raise the sweep flag *before* its breaker closes (so the
	// deletion notes recorded during the outage survive into the sweep and
	// the read-fallback mitigations are armed the moment routing may hand the
	// shard reads again), then run a re-sync sweep to repair it.
	r.health.preRecover = func(cloud.SiteID) { r.sweepBegin() }
	r.health.abortRecover = r.sweepEnd
	r.health.postRecover = func(cloud.SiteID) {
		r.obs.resyncs.Inc()
		r.spawnSweep()
	}
	r.initRelay(cfg.metrics)
	r.obs.shardsG.Add(int64(len(shards)))
	r.obs.replicaG.Add(int64(rep))
	return r, nil
}

// Replication returns the configured replication factor (1 = one home per
// key).
func (r *Router) Replication() int { return r.rep }

// Close stops the router's background health prober and, when the tier has
// a change feed, closes the relay. Operations issued after Close still work;
// only probing (and therefore automatic recovery of down shards) and the
// combined feed stop. Idempotent.
func (r *Router) Close() {
	r.health.close()
	if r.relay != nil {
		r.relay.Close()
	}
}

// probeKey is the reserved name health probes read. It never exists; a
// healthy shard answers ErrNotFound, a dead one a transport error.
const probeKey = "\x00geomds/health/probe"

// probeShard asks one shard whether it is answering requests again. It is
// the health tracker's probe hook.
func (r *Router) probeShard(id cloud.SiteID) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := r.shards[id].Get(ctx, probeKey)
	return err == nil || errors.Is(err, ErrNotFound)
}

// MarkShardDown opens the shard's breaker immediately, without waiting for
// the failure threshold: replicated routing stops sending the shard
// operations until a probe (or MarkShardUp) closes the breaker again. It is
// the manual override for operators draining a struggling shard and for
// fault-injection tests.
func (r *Router) MarkShardDown(id cloud.SiteID) { r.health.markDown(id) }

// MarkShardUp closes the shard's breaker and kicks the same re-sync sweep a
// successful probe would.
func (r *Router) MarkShardUp(id cloud.SiteID) { r.health.markUp(id) }

// DownShards returns the shards whose breakers are currently open.
func (r *Router) DownShards() []cloud.SiteID { return r.health.downShards() }

// Site implements API: the datacenter this sharded tier serves as a whole.
func (r *Router) Site() cloud.SiteID { return r.site }

// Shards returns the tier's shard IDs, 0..n-1.
func (r *Router) Shards() []cloud.SiteID { return r.placer.Sites() }

// reachableShards returns the shards full-tier fan-outs (Entries, the
// replicated Len, purges, feed snapshots) address: every shard, minus
// down-marked ones when the tier is replicated — a down shard's content also
// lives on its healthy replicas, so full-tier reads need not fail (or stall)
// on it. Without replication every shard is the only holder of its range and
// stays included.
func (r *Router) reachableShards() []shardRef {
	all := r.allShards()
	if r.rep <= 1 {
		return all
	}
	return slices.DeleteFunc(all, func(ref shardRef) bool { return r.health.isDown(ref.id) })
}

// allShards returns a handle on every shard of the tier, down-marked ones
// included.
func (r *Router) allShards() []shardRef {
	out := make([]shardRef, len(r.shards))
	for i, api := range r.shards {
		out[i] = shardRef{id: cloud.SiteID(i), api: api}
	}
	return out
}

// report feeds one shard call's outcome to the health tracker: transport
// failures (ErrUnavailable) trip the breaker, answers — even application
// errors like ErrNotFound — reset it, and caller-side cancellations say
// nothing about the shard at all. Without replication the tracker is not
// fed: a single-home tier has nowhere correct to re-route to, so an open
// breaker could only add recovery sweeps that repair nothing (and
// note-retention that never drains).
func (r *Router) report(id cloud.SiteID, err error) {
	if r.rep <= 1 {
		return
	}
	switch {
	case err == nil:
		r.health.reportSuccess(id)
	case errors.Is(err, ErrUnavailable):
		r.health.reportFailure(id)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller gave up; the shard may be fine.
	default:
		r.health.reportSuccess(id)
	}
}

// shardErr wraps the per-shard failures of one routed operation. errors.Is
// and errors.As see through to every cause, so a caller checking
// ErrUnavailable (core.ErrSiteUnreachable) matches if any shard was
// unreachable.
func (r *Router) shardErr(op string, errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("registry: router %s at site %d: %w", op, r.site, errors.Join(errs...))
}

// sweepFallback looks for the names their replicas missed while a re-sync
// sweep may have left entries off-home: tried maps each such name to the
// shards already asked for it, and every other shard gets one concurrent
// GetMany for the names it has not been asked about. It keeps the highest
// version of each name (a sweep may briefly leave two copies) and returns the
// failures of the shards asked about a name it did not find: a miss is only
// authoritative when every shard asked actually answered.
func (r *Router) sweepFallback(ctx context.Context, tried map[string][]shardRef) (map[string]Entry, []error) {
	type ask struct {
		shardRef
		names []string
	}
	var asks []ask
	for _, ref := range r.allShards() {
		a := ask{shardRef: ref}
		for name, refs := range tried {
			if !hasRef(refs, ref.id) {
				a.names = append(a.names, name)
			}
		}
		if len(a.names) > 0 {
			asks = append(asks, a)
		}
	}
	var (
		mu     sync.Mutex
		found  = make(map[string]Entry, len(tried))
		failed = make([]error, len(asks))
	)
	fanOut(asks, func(i int, a ask) {
		entries, err := a.api.GetMany(ctx, a.names)
		if err != nil {
			failed[i] = err
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, e := range entries {
			if cur, ok := found[e.Name]; !ok || e.Version > cur.Version {
				found[e.Name] = e
			}
		}
	})
	var errs []error
	for i, err := range failed {
		if err == nil {
			continue
		}
		for _, name := range asks[i].names {
			if _, ok := found[name]; !ok {
				errs = append(errs, fmt.Errorf("shard %d: %q: %w", asks[i].id, name, err))
			}
		}
	}
	return found, errs
}

// sweepActive reports whether a re-sync sweep is currently in flight.
func (r *Router) sweepActive() bool { return r.sweeping.Load() > 0 }

// sweepBegin marks one sweep as in flight. It runs before the recovering
// shard's breaker closes (the health tracker's preRecover hook), so the
// hot-path mitigations (read fallback, deletion notes and purges) are active
// the moment the shard can be handed operations again — and so Wait covers
// the sweep before anyone can observe the breaker closed.
func (r *Router) sweepBegin() {
	r.sweeps.Add(1)
	r.delMu.Lock()
	r.sweeping.Add(1)
	r.sweepGen.Add(1)
	r.delMu.Unlock()
}

// notesNeeded reports whether deletions must currently be noted (and the
// note table must not be cleared): while a sweep is in flight (a stale
// source copy is in some sweep's hands), while a shard's breaker is open
// (the down shard holds stale copies of everything deleted during its
// outage), or after an abandoned sweep, until a clean one (it may have left
// a stale copy no counter tracks). A force-noted deletion pins only its own
// note. Callers hold delMu.
func (r *Router) notesNeeded() bool {
	return r.sweeping.Load() > 0 || r.staleNotes.Load() || r.health.anyDown()
}

// sweepEnd retires one sweep, clearing the unpinned deletion notes when
// nothing needs them anymore — in the same critical section that drops the
// counter, so a concurrent noteDeleted cannot slip a note into the dying
// generation.
func (r *Router) sweepEnd() {
	r.delMu.Lock()
	if r.sweeping.Add(-1) == 0 && !r.notesNeeded() {
		maps.DeleteFunc(r.deletedDuringSweep, func(_ string, pinned bool) bool { return !pinned })
		if len(r.deletedDuringSweep) == 0 {
			r.deletedDuringSweep = nil // a large table's memory goes with it
		}
	}
	r.delMu.Unlock()
	r.sweeps.Done()
}

// noteDeleted records deletions while anything could resurrect them (see
// notesNeeded); otherwise no copy can be off-home and the notes are skipped.
func (r *Router) noteDeleted(names ...string) {
	r.delMu.Lock()
	if r.notesNeeded() {
		if r.deletedDuringSweep == nil {
			r.deletedDuringSweep = make(map[string]bool)
		}
		for _, name := range names {
			r.deletedDuringSweep[name] = r.deletedDuringSweep[name] // a pinned note stays pinned
		}
	}
	r.delMu.Unlock()
}

// clearDeleted forgets the deletion notes for names a write is about to
// re-establish, so a sweep's post-merge check or cleanup cannot undo the
// write. It returns the names that had a note, and those of them whose note
// was pinned, so a failed write can restore exactly the protection it removed
// — and never invent a note for a name that was not deleted.
func (r *Router) clearDeleted(names ...string) (noted, pinned []string) {
	r.delMu.Lock()
	defer r.delMu.Unlock()
	for _, name := range names {
		if p, ok := r.deletedDuringSweep[name]; ok {
			delete(r.deletedDuringSweep, name)
			noted = append(noted, name)
			if p {
				pinned = append(pinned, name)
			}
		}
	}
	return noted, pinned
}

// deletedSince reports which of the given names were deleted while a sweep
// was active.
func (r *Router) deletedSince(names []string) []string {
	r.delMu.Lock()
	defer r.delMu.Unlock()
	var out []string
	for _, n := range names {
		if _, ok := r.deletedDuringSweep[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Entries implements API: every shard is queried concurrently and the
// results are merged, deduplicating by name — a replicated entry lives on
// several shards, a re-sync sweep may briefly leave a stale copy beside a
// fresh one, and the copy with the higher version wins. Under replication,
// shards whose breaker is open are skipped: their content is replicated on
// healthy shards, so the full listing survives a shard crash.
func (r *Router) Entries(ctx context.Context) ([]Entry, error) {
	shards := r.reachableShards()
	r.countBulk(len(shards))
	var (
		mu   sync.Mutex
		best = make(map[string]Entry)
		errs []error
	)
	fanOut(shards, func(_ int, ref shardRef) {
		batch, err := ref.api.Entries(ctx)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", ref.id, err))
			return
		}
		for _, e := range batch {
			if cur, ok := best[e.Name]; !ok || e.Version > cur.Version {
				best[e.Name] = e
			}
		}
	})
	if err := r.shardErr("entries", errs); err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Len implements API: the shard sizes are summed, querying every shard
// concurrently like the other full-tier fan-outs (best-effort). With
// replication every entry lives on r.rep shards, so the sum over-counts; the
// replicated tier counts the distinct names of its reachable shards instead,
// reading an *Instance shard's store directly, as FeedSnapshot does, and any
// other shard's Entries (one that fails contributes nothing).
func (r *Router) Len(ctx context.Context) int {
	if r.rep <= 1 {
		var total atomic.Int64
		fanOut(r.allShards(), func(_ int, ref shardRef) {
			total.Add(int64(ref.api.Len(ctx)))
		})
		return int(total.Load())
	}
	if ctx.Err() != nil {
		return 0
	}
	shards := r.reachableShards()
	r.countBulk(len(shards))
	var (
		mu   sync.Mutex
		seen = make(map[string]struct{})
	)
	fanOut(shards, func(_ int, ref shardRef) {
		if inst, ok := ref.api.(*Instance); ok {
			items := inst.store.Snapshot()
			mu.Lock()
			for _, it := range items {
				seen[it.Key] = struct{}{}
			}
			mu.Unlock()
		} else if entries, err := ref.api.Entries(ctx); err == nil {
			mu.Lock()
			for _, e := range entries {
				seen[e.Name] = struct{}{}
			}
			mu.Unlock()
		}
	})
	return len(seen)
}

// countBulk feeds the bulk-call and sub-batch counters; their ratio is the
// observed fan-out factor of the tier.
func (r *Router) countBulk(subBatches int) {
	r.obs.bulkOps.Inc()
	r.obs.subBatches.Add(int64(subBatches))
}

// sweepRetries bounds how often a failed background sweep is retried before
// it is abandoned (counted in router_sweep_failures_total; the next recovery
// sweeps again).
const sweepRetries = 5

// spawnSweep runs the re-sync sweep asynchronously. The caller must have
// called sweepBegin already; the sweep retires it when done. Transient
// failures (an unreachable remote shard) are retried with backoff so copies
// are not left on substitutes with the mitigations disarmed; a sweep
// abandoned after the retry budget is observable via
// router_sweep_failures_total and keeps its deletion notes for the next one.
func (r *Router) spawnSweep() {
	go func() {
		defer r.sweepEnd()
		for attempt := 0; ; attempt++ {
			if r.sweep(context.Background()) == nil {
				return
			}
			if attempt >= sweepRetries {
				// Abandoned: a copy the sweep failed to purge may still stand.
				// Pin the note table (before sweepEnd runs) so the next sweep
				// purges that copy instead of merging it back.
				r.staleNotes.Store(true)
				r.obs.sweepFails.Inc()
				return
			}
			time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
		}
	}()
}

// Wait blocks until every background re-sync sweep has completed. A
// recovery's sweep counts from before its shard's breaker closes, so a caller
// that saw the breaker close waits for the sweep too. Nothing outside tests
// needs to wait for sweeps; it is the seam tests use to observe a tier once a
// recovery is over.
func (r *Router) Wait() { r.sweeps.Wait() }

// sweep reconciles every shard against the ring placement, one sweepShard
// per shard: copies a home is missing are merged into it with one bulk Merge
// per destination, and copies on shards that are not their homes are removed
// with one bulk DeleteMany per source. It is idempotent — the merge is the
// same last-writer-wins merge inter-site propagation uses — so re-running a
// partially failed sweep converges. Deletions issued through *this* router
// while the sweep runs are tracked and can never be resurrected by a stale
// copy; concurrent routers over the same shards (e.g. a client-side metactl
// router) do not share that protection.
func (r *Router) sweep(ctx context.Context) error {
	moved := 0
	var errs []error
	for i, api := range r.shards {
		n, err := r.sweepShard(ctx, cloud.SiteID(i), api)
		moved += n
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	if moved > 0 {
		r.obs.migrated.Add(int64(moved))
	}
	err := r.shardErr("sweep", errs)
	if err == nil {
		// Only clean sweeps count as completed; failed attempts surface via
		// router_sweep_failures_total once the retry budget is spent. A
		// clean sweep reconciled every shard against the deletion notes, so
		// neither an abandoned sweep nor a force-note pins them any longer
		// (a force-note after the unpinning pins its note again and the next
		// sweep serves it).
		r.delMu.Lock()
		for name := range r.deletedDuringSweep {
			r.deletedDuringSweep[name] = false
		}
		r.staleNotes.Store(false)
		r.delMu.Unlock()
		r.obs.sweepsC.Inc()
	}
	return err
}

// sweepShard reconciles one shard against the current placement. For every
// entry it holds, the entry's home set (the first R healthy successors) is
// resolved once; copies a home is missing — because a shard crashed or
// returned — are grouped into one bulk Merge per destination, and copies
// this shard does not own are removed with one bulk DeleteMany at the end,
// only after every replica of them was safely placed. Stale copies
// of names deleted while a sweep ran or a shard was down are purged rather
// than migrated, so a returning shard cannot resurrect deletions that
// happened during its outage.
//
// With replication every sweep is a full reconciliation: each entry is
// merged to every other home, costing O(entries x (rep-1)) Merge traffic per
// sweep even when the replicas are already identical (those merges no-op on
// the destination after one bulk read). Filtering by the destination's name
// list would miss replicas holding stale *content* — exactly what a
// post-outage re-sync exists to repair — and the API has no (name, version)
// listing to filter soundly, so sweeps pay the full pass; they only run on
// recoveries.
func (r *Router) sweepShard(ctx context.Context, id cloud.SiteID, api API) (int, error) {
	entries, err := api.Entries(ctx)
	r.report(id, err)
	if err != nil {
		return 0, err
	}

	byDest := make(map[cloud.SiteID][]Entry)
	okToDrop := make(map[string]bool)
	for _, e := range entries {
		onThis := false
		for _, home := range r.replicaIDs(e.Name) {
			if home == id {
				onThis = true
				continue
			}
			byDest[home] = append(byDest[home], e)
		}
		if !onThis {
			okToDrop[e.Name] = true
		}
	}

	var errs []error
	applied := 0
	for dest, batch := range byDest {
		// A destination that fails keeps the source copies of its batch: an
		// entry leaves this shard only once every one of its replicas is
		// safely placed.
		failDest := func(err error) {
			errs = append(errs, err)
			for _, e := range batch {
				delete(okToDrop, e.Name)
			}
		}
		dapi := r.shards[dest]
		// Skip entries deleted since the sweep read them: merging the stale
		// source copy would resurrect the deletion at its home.
		kept := batch
		if dropped := r.deletedSince(entryNames(batch)); len(dropped) > 0 {
			gone := make(map[string]bool, len(dropped))
			for _, n := range dropped {
				gone[n] = true
			}
			kept = batch[:0:0]
			for _, e := range batch {
				if !gone[e.Name] {
					kept = append(kept, e)
				}
			}
		}
		n, err := dapi.Merge(ctx, kept)
		r.report(dest, err)
		if err != nil {
			failDest(fmt.Errorf("merge into shard %d: %w", dest, err))
			continue
		}
		applied += n
		// Post-merge check: a Delete that raced the Merge noted itself before
		// touching any shard, so re-reading the note set here catches every
		// deletion the Merge may have resurrected — undo it at the
		// destination.
		if undo := r.deletedSince(entryNames(kept)); len(undo) > 0 {
			if _, err := dapi.DeleteMany(ctx, undo); err != nil {
				failDest(fmt.Errorf("undoing resurrected deletions on shard %d: %w", dest, err))
				continue
			}
		}
	}

	// One cleanup DeleteMany on this shard: fully-placed off-home copies
	// plus — on replicated tiers — stale copies of names deleted while this
	// shard was down or a sweep ran. Off-home copies are always safe to drop
	// (a racing re-create writes to the name's current homes, which exclude
	// this shard). Noted names homed *here* can race a write that just
	// re-established them: the note set is re-read immediately before the
	// delete, and re-checked after it — a note that vanished mid-delete
	// means a write slipped in, and this shard's copy is restored from the
	// name's other replicas (the racing write reached them too). With one
	// home per name the noted-name cleanup is skipped: no copy is ever
	// routed off its home, and there would be no replica to restore a raced
	// write from.
	drop := make([]string, 0, len(okToDrop))
	for name := range okToDrop {
		drop = append(drop, name)
	}
	var notedDrop []string
	if r.rep > 1 {
		allNames := make([]string, 0, len(entries))
		for _, e := range entries {
			if !okToDrop[e.Name] {
				allNames = append(allNames, e.Name)
			}
		}
		notedDrop = r.deletedSince(allNames)
		drop = append(drop, notedDrop...)
	}
	moved := 0
	if len(drop) > 0 {
		if _, err := api.DeleteMany(ctx, drop); err != nil {
			errs = append(errs, fmt.Errorf("cleanup on shard %d: %w", id, err))
		} else {
			moved = len(okToDrop)
			if len(notedDrop) > 0 {
				still := make(map[string]bool, len(notedDrop))
				for _, name := range r.deletedSince(notedDrop) {
					still[name] = true
				}
				for _, name := range notedDrop {
					if !still[name] {
						r.restoreRacedWrite(ctx, id, api, name)
					}
				}
			}
		}
	}
	if applied > 0 {
		r.obs.repaired.Add(int64(applied))
	}
	return moved, errors.Join(errs...)
}

// restoreRacedWrite re-establishes this shard's copy of a name whose
// deletion note vanished while the sweep's cleanup delete was in flight: a
// write re-created the name concurrently, and the cleanup may have removed
// the fresh copy from this shard. The replicated write also reached the
// name's other homes, so the copy is recovered from the first replica that
// still holds it (best-effort; the next sweep converges the same way).
func (r *Router) restoreRacedWrite(ctx context.Context, id cloud.SiteID, api API, name string) {
	for _, ref := range r.replicaSet(name) {
		if ref.id == id {
			continue
		}
		if e, gerr := ref.api.Get(ctx, name); gerr == nil {
			api.Merge(ctx, []Entry{e}) //nolint:errcheck // best-effort restore; the next sweep converges
			return
		}
	}
}
