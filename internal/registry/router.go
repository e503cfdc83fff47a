package registry

import (
	"context"
	"errors"
	"fmt"
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
// (dht.Placer.Homes), primary first. Writes fan out to all R homes
// (all-or-quorum, WithRouterWriteConcern), single-key reads try the primary
// and fail over down the replica list on transport errors, and a shard that
// is primary for some keys of a bulk call and replica for others receives one
// combined frame. The paper's single-home tier is R = 1, a replica set of
// one, served by the same code (a one-member fan-out simply stays on the
// caller's goroutine). A per-shard health breaker (fed by operation outcomes
// plus a background probe) takes crashed shards out of placement so a dead
// shard costs a few failed calls, not an error storm; when the shard answers
// its probe again a re-sync sweep — the same machinery that migrates entries
// on membership changes — repairs everything it missed while it was away.
// What R = 1 turns off is policy, one check of the factor each, never a
// second implementation of an operation — with one home per key there is
// nowhere correct to re-route to, so report does not feed the breaker,
// replicaIDsLocked and reachableShards keep down shards in placement,
// noteWritten records no outage writes, forceNoteDeleted records no failed
// delete (the caller was told, and nothing would ever unpin the note table),
// NewRouter reads every write concern as WriteAll, sweepShard skips the
// noted-name cleanup (no second replica to restore a raced write from), and
// Len can sum the shard sizes. docs/ARCHITECTURE.md tabulates each with its
// reason.
//
// Membership can change online: AddShard and RemoveShard update the
// consistent-hash placement and kick a background migration sweep that moves
// the (few, thanks to consistent hashing) entries whose home shards changed.
// Operations issued through the router stay reliable while a sweep is in
// flight: a read that misses at a key's new homes falls back to the other
// shards, and a deletion — single or bulk — is recorded and purged so a stale
// source copy can never resurrect it. Routers that share shards but not state
// (a second router process over the same shard servers) see plain eventual
// consistency during a sweep instead — the contract the paper accepts for
// server volatility (§VIII).
//
// Partial failures of bulk operations surface through the typed-error model:
// the returned error wraps each failed shard's cause (so errors.Is sees
// ErrUnavailable when a shard is unreachable), and sub-batches that did reach
// their shard stay applied. Bulk application is idempotent, so callers — like
// the sync agent — simply re-send on the next round.
//
// The data operations live in replication.go, membership and sweeps here.
//
// A Router is safe for concurrent use.
type Router struct {
	site   cloud.SiteID
	placer dht.DynamicPlacer // over shard IDs masquerading as site IDs

	// rep is the replication factor — the size of every key's replica set, 1
	// by default; concern is the write acknowledgement rule. health is the
	// per-shard breaker tier; it is always present, but only rep > 1 routing
	// feeds it and skips shards whose breaker is open (with one home per key
	// there is nowhere correct to re-route to).
	rep     int
	concern WriteConcern
	health  *healthTracker

	// mu guards shards/nextID and serializes membership changes against the
	// placer (which has its own lock for read paths).
	mu     sync.RWMutex
	shards map[cloud.SiteID]API // active shards plus shards draining after removal
	nextID cloud.SiteID

	// sweeps tracks in-flight background migration sweeps (see Wait);
	// sweeping counts the active ones so the hot path can cheaply tell
	// whether entries may currently live away from their home shard. It is
	// raised *before* a membership change touches the placer and lowered
	// only when the sweep (including retries) is over, so there is no window
	// in which keys are off-home but the mitigations below are inactive.
	// sweepGen increments on every sweepBegin: single-key fast paths snapshot
	// it before their shard call and re-check it afterwards, catching even a
	// sweep that started *and finished* while their call was in flight.
	sweeps   sync.WaitGroup
	sweeping atomic.Int32
	sweepGen atomic.Uint64

	// repairsPending counts quorum-mode write fan-outs and their spawned
	// background repairs. While it is positive, deletions note themselves
	// (see noteDeleted): a repair that lost a race against a delete then
	// finds the note and stands down instead of merging the deleted entry
	// back — without the guard, a repair spawned by a write that preceded
	// the delete could resurrect it. The guard is raised before the write's
	// fan-out begins, so there is no window in which a repair can be pending
	// and a delete unaware of it.
	repairsPending atomic.Int32

	// staleNotes is set whenever a deletion is force-noted (a replica failed
	// to apply it, so a stale copy exists somewhere regardless of breaker or
	// sweep state) and cleared only by a clean full sweep — the point at
	// which every shard has been reconciled against the notes. While set,
	// the note table is never cleared.
	staleNotes atomic.Bool

	// delMu guards deletedDuringSweep — the names deleted while a sweep was
	// active — *and* serializes the sweeping transitions against it: notes
	// are only recorded while the counter is positive and the set is cleared
	// in the same critical section that drops the counter to zero, so a
	// stale note can never leak into a later sweep. A sweep consults the set
	// before and after merging a moved batch so a stale source copy cannot
	// resurrect a concurrent deletion; writes re-establishing a name clear
	// its note.
	delMu              sync.Mutex
	deletedDuringSweep map[string]bool

	// wroteDuringOutage — the names written through the router while any
	// shard's breaker was open — feeds the delta repair of a
	// Recoverable shard (see delta.go). It shares delMu and the clear
	// points with deletedDuringSweep: both sets describe "what changed
	// while something was away" and die together once nothing needs them.
	wroteDuringOutage map[string]bool

	// seqAtDown records each down shard's durable sequence number, sampled
	// the moment its breaker opened (healthTracker.onDown); the recovery
	// path compares it against the shard's recovered sequence number to
	// decide between delta repair and full sweep.
	seqMu     sync.Mutex
	seqAtDown map[cloud.SiteID]uint64

	// relay is the tier's combined change feed — every shard's events
	// re-sequenced into one log — enabled when all initial shards implement
	// ChangeFeeder (see feed.go). taps holds the per-shard pump goroutines,
	// started when a shard joins and stopped when it is detached after
	// draining (or at Close).
	relay *feed.Log
	tapMu sync.Mutex
	taps  map[cloud.SiteID]*relayTap

	obs routerObs
}

// Router implements the registry API.
var _ API = (*Router)(nil)

// routerObs holds the router's observability instruments, resolved once at
// construction. All fields tolerate being nil (instrumentation disabled).
type routerObs struct {
	shardsG     *metrics.Gauge     // router_shards: active shards in placement
	replicaG    *metrics.Gauge     // router_replication: configured replication factor
	bulkOps     *metrics.Counter   // router_bulk_ops_total: bulk calls on the router
	subBatches  *metrics.Counter   // router_subbatches_total: per-shard sub-batches issued
	migrated    *metrics.Counter   // router_migrated_entries_total: entries moved by sweeps
	repaired    *metrics.Counter   // router_repaired_entries_total: replica copies (re)written by sweeps
	sweepsC     *metrics.Counter   // router_sweeps_total: migration sweeps completed
	sweepFails  *metrics.Counter   // router_sweep_failures_total: background sweeps abandoned after retries
	resyncs     *metrics.Counter   // router_resync_sweeps_total: sweeps triggered by a shard recovering
	deltas      *metrics.Counter   // router_delta_repairs_total: recoveries served by a delta repair instead of a full sweep
	failovers   *metrics.Counter   // router_failover_reads_total: reads served by a non-primary replica
	replicaErrs *metrics.Counter   // router_replica_write_errors_total: write failures suppressed by the quorum concern
	repairFails *metrics.Counter   // router_replica_repair_failures_total: background replica repairs abandoned after retries
	suppressed  *metrics.Counter   // router_suppressed_errors_total: errors swallowed by best-effort ops
	readLat     *metrics.Histogram // router_read_latency_ns: answered single-key Gets, end to end
}

func newRouterObs(reg *metrics.Registry) routerObs {
	return routerObs{
		shardsG:     reg.Gauge("router_shards"),
		replicaG:    reg.Gauge("router_replication"),
		bulkOps:     reg.Counter("router_bulk_ops_total"),
		subBatches:  reg.Counter("router_subbatches_total"),
		migrated:    reg.Counter("router_migrated_entries_total"),
		repaired:    reg.Counter("router_repaired_entries_total"),
		sweepsC:     reg.Counter("router_sweeps_total"),
		sweepFails:  reg.Counter("router_sweep_failures_total"),
		resyncs:     reg.Counter("router_resync_sweeps_total"),
		deltas:      reg.Counter("router_delta_repairs_total"),
		failovers:   reg.Counter("router_failover_reads_total"),
		replicaErrs: reg.Counter("router_replica_write_errors_total"),
		repairFails: reg.Counter("router_replica_repair_failures_total"),
		suppressed:  reg.Counter("router_suppressed_errors_total"),
		readLat:     reg.Histogram("router_read_latency_ns"),
	}
}

// WriteConcern selects how many replica acknowledgements a write needs when
// the router replicates placement (WithRouterReplication).
type WriteConcern int

const (
	// WriteAll (the default) requires every targeted replica to acknowledge;
	// any replica failure surfaces as an error (replicas that were reached
	// stay applied, matching bulk partial-failure semantics).
	WriteAll WriteConcern = iota
	// WriteQuorum requires a majority of the replication factor. Failures
	// beyond the quorum are suppressed (router_replica_write_errors_total)
	// and repaired by the next re-sync sweep.
	WriteQuorum
)

// String returns the concern's flag spelling ("all", "quorum").
func (c WriteConcern) String() string {
	if c == WriteQuorum {
		return "quorum"
	}
	return "all"
}

// Set parses the flag spelling, making *WriteConcern a flag.Value (the
// -write-concern flag of metaserver and metactl).
func (c *WriteConcern) Set(s string) error {
	switch s {
	case "all":
		*c = WriteAll
	case "quorum":
		*c = WriteQuorum
	default:
		return fmt.Errorf("registry: write concern must be all or quorum, got %q", s)
	}
	return nil
}

// RouterOption configures a Router.
type RouterOption func(*routerConfig)

type routerConfig struct {
	metrics         *metrics.Registry
	replication     int
	concern         WriteConcern
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

// WithRouterWriteConcern selects the acknowledgement rule for replicated
// writes (default WriteAll). It has no effect without WithRouterReplication.
func WithRouterWriteConcern(w WriteConcern) RouterOption {
	return func(c *routerConfig) { c.concern = w }
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
// instances. Shards are assigned IDs 0..n-1 in input order; AddShard hands
// out the following IDs. Keys map to shards by a consistent-hash ring
// (dht.NewRingPlacer), which keeps migration small when shards join or leave.
func NewRouter(site cloud.SiteID, shards []API, opts ...RouterOption) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("registry: router needs at least one shard")
	}
	cfg := routerConfig{metrics: metrics.Default}
	for _, o := range opts {
		o(&cfg)
	}
	ids := make([]cloud.SiteID, len(shards))
	m := make(map[cloud.SiteID]API, len(shards))
	for i, s := range shards {
		ids[i] = cloud.SiteID(i)
		m[cloud.SiteID(i)] = s
	}
	rep, concern := cfg.replication, cfg.concern
	if rep <= 1 {
		// A replica set of one has no majority short of all of it: the write
		// concern has no effect without replication, so a one-home tier never
		// suppresses a failure or spawns a repair.
		rep, concern = 1, WriteAll
	}
	r := &Router{
		site:    site,
		placer:  dht.NewRingPlacer(ids, 0),
		shards:  m,
		nextID:  cloud.SiteID(len(shards)),
		rep:     rep,
		concern: concern,
		health:  newHealthTracker(cfg.healthThreshold, cfg.probeInterval, cfg.metrics),
		obs:     newRouterObs(cfg.metrics),
	}
	r.health.probe = r.probeShard
	// A recovering shard re-enters placement missing everything written while
	// it was away: raise the sweep flag *before* its breaker closes (so the
	// deletion notes recorded during the outage survive into the sweep and
	// the read-fallback mitigations are armed the moment routing may hand the
	// shard reads again), then run a re-sync sweep to repair it.
	r.health.preRecover = func(cloud.SiteID) { r.sweepBegin() }
	r.health.abortRecover = r.sweepEnd
	// The moment a breaker opens, sample the shard's durable sequence number
	// (delta.go); when it closes again, a shard that provably recovered its
	// pre-outage state takes the delta repair, everything else the full
	// re-sync sweep.
	r.health.onDown = r.recordDownSeq
	r.health.postRecover = func(id cloud.SiteID) {
		r.obs.resyncs.Inc()
		if seqDown, ok := r.takeDownSeq(id); ok && r.deltaEligible(id, seqDown) {
			r.spawnDeltaRepair(id)
			return
		}
		r.spawnSweep()
	}
	for id := range m {
		r.health.track(id)
	}
	r.initRelay(m)
	r.obs.shardsG.Add(int64(len(shards)))
	r.obs.replicaG.Add(int64(rep))
	return r, nil
}

// Replication returns the configured replication factor (1 = one home per
// key).
func (r *Router) Replication() int { return r.rep }

// Close stops the router's background health prober and, when the tier has
// a change feed, drains and closes the relay. Operations issued after Close
// still work; only probing (and therefore automatic recovery of down
// shards) and the combined feed stop. Idempotent.
func (r *Router) Close() {
	r.health.close()
	r.closeRelay()
}

// probeKey is the reserved name health probes read. It never exists; a
// healthy shard answers ErrNotFound, a dead one a transport error.
const probeKey = "\x00geomds/health/probe"

// probeShard asks one shard whether it is answering requests again. It is
// the health tracker's probe hook.
func (r *Router) probeShard(id cloud.SiteID) bool {
	r.mu.RLock()
	api, ok := r.shards[id]
	r.mu.RUnlock()
	if !ok {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := api.Get(ctx, probeKey)
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

// Shards returns the IDs of the shards currently participating in placement,
// sorted. Shards still draining after RemoveShard are excluded.
func (r *Router) Shards() []cloud.SiteID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.placer.Sites()
}

// ShardCount returns the number of shards currently participating in
// placement.
func (r *Router) ShardCount() int { return len(r.Shards()) }

// Home returns the shard ID owning the given key under the current
// placement.
func (r *Router) Home(name string) cloud.SiteID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.placer.Home(name)
}

// snapshotShards returns every shard currently attached — active ones plus
// any still draining — for full-tier fan-outs (Entries, Names, Len).
func (r *Router) snapshotShards() map[cloud.SiteID]API {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[cloud.SiteID]API, len(r.shards))
	for id, api := range r.shards {
		out[id] = api
	}
	return out
}

// reachableShards is snapshotShards minus down-marked shards when the tier
// is replicated: a down shard's content also lives on its healthy replicas,
// so full-tier reads need not fail (or stall) on it. Without replication
// every shard is the only holder of its range and stays included.
func (r *Router) reachableShards() map[cloud.SiteID]API {
	out := r.snapshotShards()
	if r.rep > 1 && r.health.anyDown() {
		for _, id := range r.health.downShards() {
			delete(out, id)
		}
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

// sweepFallbackGet consults every shard not yet tried for a copy of the
// name, one concurrent Get per shard — the read-reliability fallback while
// entries may be off-home mid-sweep. It returns the best copy found
// (highest version, in case a sweep briefly left two) or the transport
// failures encountered: a miss is only authoritative when every shard
// actually answered.
func (r *Router) sweepFallbackGet(ctx context.Context, name string, tried []shardRef) (Entry, bool, []error) {
	var (
		mu    sync.Mutex
		found Entry
		ok    bool
		errs  []error
		wg    sync.WaitGroup
	)
	for id, other := range r.snapshotShards() {
		if hasRef(tried, id) {
			continue
		}
		wg.Add(1)
		go func(id cloud.SiteID, other API) {
			defer wg.Done()
			e, err := other.Get(ctx, name)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if !ok || e.Version > found.Version {
					found, ok = e, true
				}
			case !errors.Is(err, ErrNotFound):
				errs = append(errs, fmt.Errorf("shard %d: %w", id, err))
			}
		}(id, other)
	}
	wg.Wait()
	return found, ok, errs
}

// sweepActive reports whether a migration sweep is currently in flight.
func (r *Router) sweepActive() bool { return r.sweeping.Load() > 0 }

// sweepBegin marks one sweep as in flight. It runs before the membership
// change it covers touches the placer, so the hot-path mitigations (read
// fallback, deletion notes and purges) are active the moment keys can be
// off-home.
func (r *Router) sweepBegin() {
	r.delMu.Lock()
	r.sweeping.Add(1)
	r.sweepGen.Add(1)
	r.delMu.Unlock()
}

// notesNeeded reports whether deletions must currently be noted (and the
// note table must not be cleared): while a sweep is in flight (a stale
// source copy is in some sweep's hands), while a shard's breaker is open
// (the down shard holds stale copies of everything deleted during its
// outage), while a quorum write or its background repair is pending (the
// repair must be able to see that the entry it would re-merge was deleted),
// or while a force-noted deletion awaits a clean sweep (a replica missed it
// and holds a stale copy no counter tracks). Callers hold delMu.
func (r *Router) notesNeeded() bool {
	return r.sweeping.Load() > 0 || r.repairsPending.Load() > 0 ||
		r.staleNotes.Load() || r.health.anyDown()
}

// sweepEnd retires one sweep, clearing the deletion notes when nothing needs
// them anymore — in the same critical section that drops the counter, so a
// concurrent noteDeleted cannot slip a note into the dying generation.
func (r *Router) sweepEnd() {
	r.delMu.Lock()
	if r.sweeping.Add(-1) == 0 && !r.notesNeeded() {
		r.deletedDuringSweep = nil
		r.wroteDuringOutage = nil
	}
	r.delMu.Unlock()
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
			r.deletedDuringSweep[name] = true
		}
	}
	r.delMu.Unlock()
}

// repairWindow raises the repairsPending guard for one quorum-mode write:
// from before its fan-out until after its repairs (if any) are spawned,
// deletions note themselves so an eventual repair cannot resurrect them.
// The returned release must be called after any spawnRepair calls; each
// spawned repair holds its own count until it finishes. Under WriteAll no
// repairs are ever spawned, so the guard is a no-op.
func (r *Router) repairWindow() func() {
	if r.concern != WriteQuorum {
		return func() {}
	}
	r.repairsPending.Add(1)
	return r.endRepairWindow
}

// endRepairWindow drops one hold on the repair guard, clearing the deletion
// notes when it was the last and nothing else needs them.
func (r *Router) endRepairWindow() {
	r.delMu.Lock()
	if r.repairsPending.Add(-1) == 0 && !r.notesNeeded() {
		r.deletedDuringSweep = nil
		r.wroteDuringOutage = nil
	}
	r.delMu.Unlock()
}

// clearDeleted forgets the deletion note for a name a write is about to
// re-establish, so a sweep's post-merge check cannot undo a fresh
// Create/Put. It reports whether a note existed, so a failed write can
// restore exactly the protection it removed — and never invent a note for a
// name that was not deleted.
func (r *Router) clearDeleted(name string) bool {
	r.delMu.Lock()
	defer r.delMu.Unlock()
	if !r.deletedDuringSweep[name] {
		return false
	}
	delete(r.deletedDuringSweep, name)
	return true
}

// deletedSince reports which of the given names were deleted while a sweep
// was active.
func (r *Router) deletedSince(names []string) []string {
	r.delMu.Lock()
	defer r.delMu.Unlock()
	var out []string
	for _, n := range names {
		if r.deletedDuringSweep[n] {
			out = append(out, n)
		}
	}
	return out
}

// Entries implements API: every shard (including ones still draining) is
// queried concurrently and the results are merged, deduplicating by name —
// during a migration sweep an entry may briefly live on two shards, and the
// copy with the higher version wins. Under replication, shards whose breaker
// is open are skipped: their content is replicated on healthy shards, so the
// full listing survives a shard crash.
func (r *Router) Entries(ctx context.Context) ([]Entry, error) {
	shards := r.reachableShards()
	r.countBulk(len(shards))
	var (
		mu   sync.Mutex
		best = make(map[string]Entry)
		errs []error
		wg   sync.WaitGroup
	)
	for id, api := range shards {
		wg.Add(1)
		go func(id cloud.SiteID, api API) {
			defer wg.Done()
			batch, err := api.Entries(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", id, err))
				return
			}
			for _, e := range batch {
				if cur, ok := best[e.Name]; !ok || e.Version > cur.Version {
					best[e.Name] = e
				}
			}
		}(id, api)
	}
	wg.Wait()
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

// Names implements API: every shard is queried concurrently and the name
// sets are unioned. Best-effort like the other implementations — a shard
// that answers nothing contributes nothing.
func (r *Router) Names(ctx context.Context) []string {
	if ctx.Err() != nil {
		r.obs.suppressed.Inc()
		return nil
	}
	shards := r.reachableShards()
	r.countBulk(len(shards))
	var (
		mu   sync.Mutex
		seen = make(map[string]bool)
		wg   sync.WaitGroup
	)
	for _, api := range shards {
		wg.Add(1)
		go func(api API) {
			defer wg.Done()
			names := api.Names(ctx)
			mu.Lock()
			defer mu.Unlock()
			for _, n := range names {
				seen[n] = true
			}
		}(api)
	}
	wg.Wait()
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len implements API: the shard sizes are summed, querying every shard
// concurrently like the other full-tier fan-outs (best-effort; an entry
// mid-migration may briefly count twice). With replication every entry lives
// on r.rep shards, so the sum over-counts; the replicated tier counts
// distinct names instead.
func (r *Router) Len(ctx context.Context) int {
	if r.rep > 1 {
		return len(r.Names(ctx))
	}
	var (
		total atomic.Int64
		wg    sync.WaitGroup
	)
	for _, api := range r.snapshotShards() {
		wg.Add(1)
		go func(api API) {
			defer wg.Done()
			total.Add(int64(api.Len(ctx)))
		}(api)
	}
	wg.Wait()
	return int(total.Load())
}

// countBulk feeds the bulk-call and sub-batch counters; their ratio is the
// observed fan-out factor of the tier.
func (r *Router) countBulk(subBatches int) {
	r.obs.bulkOps.Inc()
	r.obs.subBatches.Add(int64(subBatches))
}

// AddShard attaches a new shard to the tier, returning its ID. The shard
// immediately participates in placement and a background migration sweep
// moves the entries the consistent-hash ring now assigns to it. Call Wait to
// block until the sweep completes, or Rebalance to run one synchronously.
func (r *Router) AddShard(api API) cloud.SiteID {
	// Raise the sweep flag before the placer changes: from the very first
	// moment a key's homes can differ from where its entry lives, reads fall
	// back and deletions purge/note (see getRouted, Delete).
	r.sweepBegin()
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.shards[id] = api
	r.placer.Add(id)
	r.mu.Unlock()
	r.health.track(id)
	r.startTap(id, api)
	r.obs.shardsG.Add(1)
	r.spawnSweep()
	return id
}

// RemoveShard withdraws a shard from placement. Its entries are drained to
// their new home shards by a background migration sweep, after which the
// shard is detached entirely; until then full-tier reads (Entries, Names)
// still see it. Removing the last shard or an unknown ID is an error.
func (r *Router) RemoveShard(id cloud.SiteID) error {
	r.sweepBegin() // before the placer changes; see AddShard
	r.mu.Lock()
	if _, ok := r.shards[id]; !ok {
		r.mu.Unlock()
		r.sweepEnd()
		return fmt.Errorf("registry: router for site %d: no shard %d", r.site, id)
	}
	active := r.placer.Sites()
	if !slices.Contains(active, id) {
		r.mu.Unlock()
		r.sweepEnd()
		return fmt.Errorf("registry: router for site %d: shard %d is already draining", r.site, id)
	}
	if len(active) <= 1 {
		r.mu.Unlock()
		r.sweepEnd()
		return fmt.Errorf("registry: router for site %d: cannot remove the last shard", r.site)
	}
	r.placer.Remove(id)
	r.mu.Unlock()
	r.obs.shardsG.Add(-1)
	r.spawnSweep()
	return nil
}

// sweepRetries bounds how often a failed background sweep is retried before
// it is abandoned (counted in router_sweep_failures_total; an explicit
// Rebalance or the next membership change picks the migration up again).
const sweepRetries = 5

// spawnSweep runs the migration sweep asynchronously — membership changes
// use it so AddShard/RemoveShard return immediately. The caller must have
// called sweepBegin already; the sweep retires it when done. Transient
// failures (an unreachable remote shard) are retried with backoff so keys
// are not left off-home with the mitigations disarmed; a sweep abandoned
// after the retry budget is observable via router_sweep_failures_total.
func (r *Router) spawnSweep() {
	r.sweeps.Add(1)
	go func() {
		defer r.sweeps.Done()
		defer r.sweepEnd()
		for attempt := 0; ; attempt++ {
			_, err := r.rebalance(context.Background())
			if err == nil {
				return
			}
			if attempt >= sweepRetries {
				r.obs.sweepFails.Inc()
				return
			}
			time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
		}
	}()
}

// Wait blocks until every background migration sweep started by AddShard or
// RemoveShard has completed.
func (r *Router) Wait() { r.sweeps.Wait() }

// Rebalance sweeps every shard and migrates entries whose home changed
// (because a shard joined or left) to their current owner, one bulk Merge
// per destination shard followed by one bulk DeleteMany on the source.
// Shards that have been withdrawn from placement are dropped from the tier
// once their drain completes. It returns how many entries moved.
//
// Rebalance is safe to call at any time — a no-op sweep moves nothing — and
// is idempotent: migration uses the same last-writer-wins merge as
// inter-site propagation, so re-running a partially failed sweep converges.
// Deletions issued through *this* router while the sweep runs are tracked
// and can never be resurrected by a stale source copy; concurrent routers
// over the same shards (e.g. a client-side metactl router) do not share
// that protection.
func (r *Router) Rebalance(ctx context.Context) (int, error) {
	r.sweepBegin()
	defer r.sweepEnd()
	return r.rebalance(ctx)
}

// rebalance is Rebalance without the sweep-flag management; spawnSweep calls
// it under a flag the membership change already raised.
func (r *Router) rebalance(ctx context.Context) (int, error) {
	moved := 0
	var errs []error
	for id, api := range r.snapshotShards() {
		n, err := r.sweepShard(ctx, id, api)
		moved += n
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", id, err))
			continue
		}
		// A drained shard that no longer participates in placement is
		// detached once it holds nothing. The placer read and the (possibly
		// remote, possibly slow) listing run outside the router lock so a
		// struggling drained shard never stalls the tier's hot path; only
		// the map delete itself takes the lock. The listing is Entries, not
		// Len: Len answers 0 for a shard that cannot be reached, and a shard
		// that became unreachable after its sweep may still hold entries —
		// it stays attached until a listing comes back empty.
		if slices.Contains(r.placer.Sites(), id) {
			continue
		}
		left, lerr := api.Entries(ctx)
		if lerr != nil {
			errs = append(errs, fmt.Errorf("shard %d: confirming its drain: %w", id, lerr))
			continue
		}
		if len(left) == 0 {
			r.mu.Lock()
			delete(r.shards, id)
			r.mu.Unlock()
			r.health.untrack(id)
			// The tap outlived the drain on purpose: the sweep's deletes at
			// the old home were published through it, so a watch saw the
			// key move rather than vanish. Now the shard is empty and
			// detached, the tap can go.
			r.stopTap(id)
		}
	}
	if moved > 0 {
		r.obs.migrated.Add(int64(moved))
	}
	err := r.shardErr("rebalance", errs)
	if err == nil {
		// Only clean sweeps count as completed; failed attempts surface via
		// router_sweep_failures_total once the retry budget is spent. A
		// clean sweep reconciled every shard against the deletion notes, so
		// force-noted deletions no longer pin the note table (a force-note
		// racing this store re-pins it and the next sweep serves it).
		r.staleNotes.Store(false)
		r.obs.sweepsC.Inc()
	}
	return moved, err
}

// sweepShard reconciles one shard against the current placement. For every
// entry it holds, the entry's home set (the first R healthy successors) is
// resolved once; copies a home is missing — because a shard joined, left,
// crashed or returned — are grouped into one bulk Merge per destination, and
// copies this shard no longer owns are removed with one bulk DeleteMany at
// the end, only after every replica of them was safely placed. Stale copies
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
// membership changes and recoveries.
func (r *Router) sweepShard(ctx context.Context, id cloud.SiteID, api API) (int, error) {
	entries, err := api.Entries(ctx)
	r.report(id, err)
	if err != nil {
		return 0, err
	}

	r.mu.RLock()
	byDest := make(map[cloud.SiteID][]Entry)
	okToDrop := make(map[string]bool)
	for _, e := range entries {
		onThis := false
		for _, home := range r.replicaIDsLocked(e.Name) {
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
	dests := make(map[cloud.SiteID]API, len(byDest))
	for dest := range byDest {
		if dapi, ok := r.shards[dest]; ok {
			dests[dest] = dapi
		}
	}
	r.mu.RUnlock()

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
		dapi, ok := dests[dest]
		if !ok {
			failDest(fmt.Errorf("destination shard %d detached mid-sweep: %w", dest, ErrUnavailable))
			continue
		}
		// Skip entries deleted since the sweep read them: merging the stale
		// source copy would resurrect the deletion at its new home.
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

	// One cleanup DeleteMany on this shard: fully-migrated entries plus —
	// on replicated tiers — stale copies of names deleted while this shard
	// was down or a sweep ran. Migrated entries are always safe to drop (a
	// racing re-create writes to the name's current homes, which exclude
	// this shard). Noted names homed *here* can race a write that just
	// re-established them: the note set is re-read immediately before the
	// delete, and re-checked after it — a note that vanished mid-delete
	// means a write slipped in, and this shard's copy is restored from the
	// name's other replicas (the racing write reached them too). With one
	// home per name the noted-name cleanup is skipped: the only copy a noted
	// name can have off its home is a migrating one, which the okToDrop pass
	// already removes, and there would be no replica to restore a raced
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
	refs, err := r.replicaSet(name)
	if err != nil {
		return
	}
	for _, ref := range refs {
		if ref.id == id {
			continue
		}
		if e, gerr := ref.api.Get(ctx, name); gerr == nil {
			api.Merge(ctx, []Entry{e}) //nolint:errcheck // best-effort restore; the next sweep converges
			return
		}
	}
}
