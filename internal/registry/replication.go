package registry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"geomds/internal/cloud"
)

// This file holds the Router's placement and its routed data operations.
// There is one path: every key lives on a replica set — the first R distinct
// shards of its consistent-hash successor list (dht.Placer.Homes), primary
// first — and the classic single-home tier is simply R = 1, a set of one.
//
// With R > 1 routing draws the set from *healthy* shards only — a shard whose
// breaker is open is skipped and the next successor substitutes, so
// availability survives a shard crash without waiting for an operator. The
// re-sync sweep that runs when a shard's breaker closes (see sweepShard)
// moves everything back to the placement the ring prescribes. A one-home
// tier has nowhere correct to re-route to, so it keeps routing to the key's
// only home and surfaces that shard's own error.
//
// Writes fan out to every replica and fold the acknowledgements under the
// configured WriteConcern. Reads try the primary and fail over down the
// replica list on transport errors; an answering replica's ErrNotFound is
// authoritative — except while a sweep is reshuffling entries, when the
// whole tier is consulted. Bulk operations keep the one-frame-per-shard
// contract: a shard that is primary for some keys of a batch and replica for
// others receives one combined sub-batch.

// shardRef pairs a shard ID with its API for one resolved replica set.
type shardRef struct {
	id  cloud.SiteID
	api API
}

// Unavailable returns a placeholder shard whose every operation fails with
// ErrUnavailable (best-effort operations degrade to their zero answers).
// Clients building a router over a partially-reachable replicated tier use
// it to keep an undialable shard's position in the placement — placement
// derives from the listing order, so the slot cannot simply be skipped —
// and mark it down so routing draws replica sets from the healthy shards.
func Unavailable(site cloud.SiteID) API { return unavailableShard{site: site} }

type unavailableShard struct{ site cloud.SiteID }

var errShardUnreachable = fmt.Errorf("registry: shard unreachable: %w", ErrUnavailable)

func (u unavailableShard) Site() cloud.SiteID { return u.site }
func (u unavailableShard) Create(context.Context, Entry) (Entry, error) {
	return Entry{}, errShardUnreachable
}
func (u unavailableShard) Put(context.Context, Entry) (Entry, error) {
	return Entry{}, errShardUnreachable
}
func (u unavailableShard) Get(context.Context, string) (Entry, error) {
	return Entry{}, errShardUnreachable
}
func (u unavailableShard) AddLocation(context.Context, string, Location) (Entry, error) {
	return Entry{}, errShardUnreachable
}
func (u unavailableShard) Delete(context.Context, string) error { return errShardUnreachable }
func (u unavailableShard) Names(context.Context) []string       { return nil }
func (u unavailableShard) Entries(context.Context) ([]Entry, error) {
	return nil, errShardUnreachable
}
func (u unavailableShard) GetMany(context.Context, []string) ([]Entry, error) {
	return nil, errShardUnreachable
}
func (u unavailableShard) PutMany(context.Context, []Entry) ([]Entry, error) {
	return nil, errShardUnreachable
}
func (u unavailableShard) DeleteMany(context.Context, []string) (int, error) {
	return 0, errShardUnreachable
}
func (u unavailableShard) Merge(context.Context, []Entry) (int, error) {
	return 0, errShardUnreachable
}
func (u unavailableShard) Len(context.Context) int { return 0 }

// replicaIDsLocked resolves the key's home shard IDs under the current
// placement, primary first. r.mu must be held (read). With replication the
// set is drawn from healthy shards; if every successor is down the raw
// prefix of the list is returned so callers fail with the shard's transport
// error instead of inventing emptiness.
func (r *Router) replicaIDsLocked(name string) []cloud.SiteID {
	if r.rep <= 1 {
		return []cloud.SiteID{r.placer.Home(name)}
	}
	if !r.health.anyDown() {
		return r.placer.Homes(name, r.rep)
	}
	homes := r.placer.Homes(name, r.rep)
	downIn := false
	for _, id := range homes {
		if r.health.isDown(id) {
			downIn = true
			break
		}
	}
	if !downIn {
		// Some shard is down, but not one of this key's homes: no need for
		// the (allocating) full-successor-list walk below.
		return homes
	}
	// len(r.shards) bounds the membership (it additionally counts draining
	// shards; Homes clamps at the membership itself).
	all := r.placer.Homes(name, len(r.shards))
	healthy := make([]cloud.SiteID, 0, r.rep)
	for _, id := range all {
		if !r.health.isDown(id) {
			healthy = append(healthy, id)
			if len(healthy) == r.rep {
				break
			}
		}
	}
	if len(healthy) > 0 {
		return healthy
	}
	if len(all) > r.rep {
		all = all[:r.rep]
	}
	return all
}

// replicaRefsLocked resolves the key's replica set — its (healthy) home
// shards, primary first — to shard handles. r.mu must be held (read).
func (r *Router) replicaRefsLocked(name string) ([]shardRef, error) {
	ids := r.replicaIDsLocked(name)
	refs := make([]shardRef, 0, len(ids))
	for _, id := range ids {
		if api, ok := r.shards[id]; ok && id != cloud.NoSite {
			refs = append(refs, shardRef{id: id, api: api})
		}
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("registry: router for site %d: no shard owns %q: %w", r.site, name, ErrUnavailable)
	}
	return refs, nil
}

// replicaSet resolves the key's replica set under the current placement.
func (r *Router) replicaSet(name string) ([]shardRef, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.replicaRefsLocked(name)
}

// hasRef reports whether the shard is a member of the replica list.
func hasRef(refs []shardRef, id cloud.SiteID) bool {
	for _, ref := range refs {
		if ref.id == id {
			return true
		}
	}
	return false
}

// others returns the replica list without position i. The common case — the
// primary answered — shares the backing array; only a fail-over copies.
func others(refs []shardRef, i int) []shardRef {
	if i == 0 {
		return refs[1:]
	}
	return slices.Delete(slices.Clone(refs), i, i+1)
}

// ackNeed returns how many replica acknowledgements a write over nTargets
// replicas needs under the configured concern.
func (r *Router) ackNeed(nTargets int) int {
	if r.concern == WriteQuorum {
		q := r.rep/2 + 1
		if q > nTargets {
			q = nTargets
		}
		return q
	}
	return nTargets
}

// ackOutcome folds replica acknowledgements into the caller-visible error:
// under WriteAll every target must have acknowledged; under WriteQuorum a
// majority of the replication factor suffices and the remaining failures are
// suppressed (router_replica_write_errors_total) — the caller then schedules
// a background repair for each failed replica (spawnRepair), with the
// breaker/re-sync path as the backstop when the shard is truly down.
// Replicas that were reached stay applied either way.
func (r *Router) ackOutcome(op string, acks, targets int, errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	if r.concern == WriteQuorum && acks >= r.ackNeed(targets) {
		r.obs.replicaErrs.Add(int64(len(errs)))
		return nil
	}
	return r.shardErr(op, errs)
}

// fanOut runs fn once per replica and returns when every call has finished.
// The calls run concurrently, except that a one-member set — every single-key
// write of an unreplicated tier — runs on the caller's goroutine.
func fanOut(refs []shardRef, fn func(i int, ref shardRef)) {
	if len(refs) == 1 {
		fn(0, refs[0])
		return
	}
	var wg sync.WaitGroup
	for i, ref := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, ref)
		}()
	}
	wg.Wait()
}

// fanOutPut upserts e at every given replica, reporting each outcome to the
// health tracker. It returns the first successful stored entry, the
// acknowledgement count, the per-shard failures, and the refs that failed
// (for background repair when the failures end up quorum-suppressed).
func (r *Router) fanOutPut(ctx context.Context, refs []shardRef, e Entry) (Entry, int, []error, []shardRef) {
	type result struct {
		e   Entry
		err error
	}
	results := make([]result, len(refs))
	fanOut(refs, func(i int, ref shardRef) {
		stored, err := ref.api.Put(ctx, e)
		r.report(ref.id, err)
		results[i] = result{stored, err}
	})
	var (
		stored Entry
		got    bool
		acks   int
		errs   []error
		failed []shardRef
	)
	for i, res := range results {
		if res.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", refs[i].id, res.err))
			failed = append(failed, refs[i])
			continue
		}
		acks++
		if !got {
			stored, got = res.e, true
		}
	}
	return stored, acks, errs, failed
}

// forceNoteDeleted records deletion notes unconditionally. The delete paths
// use it whenever a replica failed to apply a deletion that was (or may have
// been) acknowledged: the failed replica holds a stale copy now, whether or
// not its breaker ever opens, and every sweep consults the notes before
// merging — so the stale copy can be purged but never resurrected. A write
// re-establishing the name clears its note as usual.
//
// A one-home tier records nothing here: its only home failed, the caller was
// told so, and no acknowledged replica exists for the surviving copy to
// contradict. Pinning the table would also never drain — a one-home tier runs
// no recovery sweep to clear it — and the next membership sweep would purge
// entries whose delete had reported an error.
func (r *Router) forceNoteDeleted(names ...string) {
	if r.rep <= 1 {
		return
	}
	r.delMu.Lock()
	if r.deletedDuringSweep == nil {
		r.deletedDuringSweep = make(map[string]bool)
	}
	for _, name := range names {
		r.deletedDuringSweep[name] = true
	}
	// Pin the note table until a clean sweep reconciles every shard: the
	// stale copy these notes guard against exists regardless of breaker,
	// sweep, or repair state.
	r.staleNotes.Store(true)
	r.delMu.Unlock()
}

// hasDeletionNote reports whether the name's deletion note still stands
// (i.e. no write has re-established the name since).
func (r *Router) hasDeletionNote(name string) bool {
	r.delMu.Lock()
	defer r.delMu.Unlock()
	return r.deletedDuringSweep[name]
}

// Background replica-repair tuning: a failed replica write is retried this
// many times before the repair is abandoned to the breaker/re-sync path.
const (
	repairRetries = 3
	repairTimeout = 2 * time.Second
)

// spawnRepair retries one replica write that a quorum-acknowledged
// operation could not apply. Suppressing the failure made the caller whole;
// this makes the replica whole: without it, a transient single-call failure
// (too short to open the breaker, so no re-sync sweep ever runs) would
// leave the replica divergent forever — serving a stale entry, or a deleted
// one, from the primary position. If the shard keeps failing, the retries
// feed its breaker and the recovery re-sync finishes the job. Router.Wait
// covers in-flight repairs. The repair holds the repairsPending guard for
// its lifetime, so deletions issued meanwhile are noted and the repair's
// note check can see them.
func (r *Router) spawnRepair(id cloud.SiteID, do func(context.Context) error) {
	r.sweeps.Add(1)
	r.repairsPending.Add(1)
	go func() {
		defer r.sweeps.Done()
		defer r.endRepairWindow()
		for attempt := 0; attempt < repairRetries; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
			err := do(ctx)
			cancel()
			r.report(id, err)
			if err == nil || !errors.Is(err, ErrUnavailable) {
				return
			}
			time.Sleep(time.Duration(attempt+1) * 25 * time.Millisecond)
		}
		// Abandoned: the replica still diverges. Pin the note table (before
		// this goroutine's guard hold is released) so a deletion this repair
		// would have applied stays noted until a clean sweep reconciles the
		// shard.
		r.staleNotes.Store(true)
		r.obs.repairFails.Inc()
	}()
}

// repairEntry re-applies one stored entry at a replica that missed its
// write, via Merge (idempotent; locations are unioned, so a repair racing a
// newer write cannot clobber it).
func (r *Router) repairEntry(ref shardRef, stored Entry) {
	r.spawnRepair(ref.id, func(ctx context.Context) error {
		if r.hasDeletionNote(stored.Name) {
			return nil // deleted since; re-merging would resurrect it
		}
		_, err := ref.api.Merge(ctx, []Entry{stored})
		return err
	})
}

// repairDeletion re-applies one deletion at a replica that missed it,
// unless a write has re-established the name since.
func (r *Router) repairDeletion(ref shardRef, name string) {
	r.spawnRepair(ref.id, func(ctx context.Context) error {
		if !r.hasDeletionNote(name) {
			return nil // re-created since; the deletion no longer stands
		}
		_, err := ref.api.DeleteMany(ctx, []string{name})
		return err
	})
}

// repairBatch re-merges a failed shard's bulk sub-batch in the background,
// skipping names whose deletion note stands (deleted since the write).
func (r *Router) repairBatch(ref shardRef, sub []Entry) {
	r.spawnRepair(ref.id, func(ctx context.Context) error {
		kept := make([]Entry, 0, len(sub))
		for _, e := range sub {
			if !r.hasDeletionNote(e.Name) {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			return nil
		}
		_, err := ref.api.Merge(ctx, kept)
		return err
	})
}

// repairBatchDeletion re-applies the deletions of a failed bulk sub-batch,
// skipping names a write has re-established since.
func (r *Router) repairBatchDeletion(ref shardRef, names []string) {
	r.spawnRepair(ref.id, func(ctx context.Context) error {
		kept := make([]string, 0, len(names))
		for _, name := range names {
			if r.hasDeletionNote(name) {
				kept = append(kept, name)
			}
		}
		if len(kept) == 0 {
			return nil
		}
		_, err := ref.api.DeleteMany(ctx, kept)
		return err
	})
}

// reassertDeletion restores the protection a failed write removed: the name
// was deleted while a sweep was active or a shard was down, the write that
// cleared its note did not take effect, so the deletion must stand. The note
// is re-recorded and the name purged everywhere, best-effort — the in-flight
// sweep may have merged a stale copy during the window the note was gone.
func (r *Router) reassertDeletion(ctx context.Context, name string) {
	r.noteDeleted(name)
	for _, api := range r.snapshotShards() {
		api.DeleteMany(ctx, []string{name}) //nolint:errcheck // best-effort re-assertion of the standing deletion
	}
}

// reanchor handles an acknowledged write that raced the start of a
// membership change or recovery: the homes are re-resolved and any that were
// not in the original target set receive the stored entry, best-effort — the
// sweep migrating the original copies converges the same way, and clearing
// the deletion note keeps its post-merge check from undoing the write.
func (r *Router) reanchor(ctx context.Context, wrote []shardRef, stored Entry) {
	r.clearDeleted(stored.Name)
	refs, err := r.replicaSet(stored.Name)
	if err != nil {
		return
	}
	for _, ref := range refs {
		if !hasRef(wrote, ref.id) {
			ref.api.Put(ctx, stored) //nolint:errcheck // best-effort; the sweep converges the same way
		}
	}
}

// Create implements API: existence is decided at the primary (failing over
// down the replica list on transport errors), then the stored entry is
// replicated to the remaining homes as an upsert. A create forgets any
// deletion note for the name first — the write re-establishes the entry, and
// a sweep's post-merge check must not undo it — and re-asserts the deletion
// if the write fails. A membership change that begins while the write is in
// flight is caught by a re-check afterwards: the acknowledged entry is
// re-anchored at its current homes so the sweep's source cleanup cannot
// orphan it.
func (r *Router) Create(ctx context.Context, e Entry) (Entry, error) {
	refs, err := r.replicaSet(e.Name)
	if err != nil {
		return Entry{}, err
	}
	defer r.repairWindow()()
	r.noteWritten(e.Name)
	gen := r.sweepGen.Load()
	noted := r.clearDeleted(e.Name)

	var (
		stored    Entry
		createErr error
		creator   = -1
		errs      []error
	)
	for i, ref := range refs {
		stored, createErr = ref.api.Create(ctx, e)
		r.report(ref.id, createErr)
		if createErr == nil {
			creator = i
			break
		}
		if noted && errors.Is(createErr, ErrExists) {
			// The "existing" copy is a stale resurrection of a name deleted
			// while a sweep ran or a shard was down; the create wins over it.
			stored, createErr = ref.api.Put(ctx, e)
			r.report(ref.id, createErr)
			if createErr == nil {
				creator = i
				break
			}
		}
		if !errors.Is(createErr, ErrUnavailable) {
			break // an application answer (ErrExists, validation) is final
		}
		errs = append(errs, fmt.Errorf("shard %d: %w", ref.id, createErr))
	}
	if createErr != nil {
		if noted && !errors.Is(createErr, ErrExists) {
			r.reassertDeletion(ctx, e.Name)
		}
		if errors.Is(createErr, ErrUnavailable) {
			return Entry{}, r.shardErr("create", errs)
		}
		return Entry{}, createErr
	}

	_, acks, perrs, failed := r.fanOutPut(ctx, others(refs, creator), stored)
	if err := r.ackOutcome("create", acks+1, len(refs), perrs); err != nil {
		return Entry{}, err
	}
	for _, ref := range failed { // quorum-suppressed: make the replicas whole
		r.repairEntry(ref, stored)
	}
	if r.sweepActive() || r.sweepGen.Load() != gen {
		r.reanchor(ctx, refs, stored)
	}
	return stored, nil
}

// Put implements API: the upsert fans out to every replica and the
// acknowledgements fold under the write concern. Deletion notes and a racing
// membership change are handled as in Create.
func (r *Router) Put(ctx context.Context, e Entry) (Entry, error) {
	refs, err := r.replicaSet(e.Name)
	if err != nil {
		return Entry{}, err
	}
	defer r.repairWindow()()
	r.noteWritten(e.Name)
	gen := r.sweepGen.Load()
	noted := r.clearDeleted(e.Name)
	stored, acks, errs, failed := r.fanOutPut(ctx, refs, e)
	if err := r.ackOutcome("put", acks, len(refs), errs); err != nil {
		if noted {
			r.reassertDeletion(ctx, e.Name)
		}
		return Entry{}, err
	}
	for _, ref := range failed { // quorum-suppressed: make the replicas whole
		r.repairEntry(ref, stored)
	}
	if r.sweepActive() || r.sweepGen.Load() != gen {
		r.reanchor(ctx, refs, stored)
	}
	return stored, nil
}

// AddLocation implements API: the read-modify-write runs at one authority —
// the first replica that answers — and its result is replicated as an upsert.
func (r *Router) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	refs, err := r.replicaSet(name)
	if err != nil {
		return Entry{}, err
	}
	defer r.repairWindow()()
	r.noteWritten(name)
	var (
		stored Entry
		uerr   error
		at     = -1
		errs   []error
	)
	for i, ref := range refs {
		stored, uerr = ref.api.AddLocation(ctx, name, loc)
		r.report(ref.id, uerr)
		if uerr == nil {
			at = i
			break
		}
		if !errors.Is(uerr, ErrUnavailable) {
			return Entry{}, uerr // ErrNotFound and friends are final
		}
		errs = append(errs, fmt.Errorf("shard %d: %w", ref.id, uerr))
	}
	if uerr != nil {
		return Entry{}, r.shardErr("add-location", errs)
	}
	_, acks, perrs, failed := r.fanOutPut(ctx, others(refs, at), stored)
	if err := r.ackOutcome("add-location", acks+1, len(refs), perrs); err != nil {
		return Entry{}, err
	}
	for _, ref := range failed { // quorum-suppressed: make the replicas whole
		r.repairEntry(ref, stored)
	}
	return stored, nil
}

// Delete implements API. The deletion is noted before any shard is touched
// (the note is recorded only while a sweep runs or a shard is down — the
// windows in which a stale copy somewhere could resurrect it), then fans out
// to every replica; while a sweep is in flight the remaining shards are
// purged too, since un-migrated copies may live anywhere. A replica answering
// "not found" already agrees with the deletion and counts as an
// acknowledgement.
func (r *Router) Delete(ctx context.Context, name string) error {
	refs, err := r.replicaSet(name)
	if err != nil {
		return err
	}
	gen := r.sweepGen.Load()
	r.noteDeleted(name)

	results := make([]error, len(refs))
	fanOut(refs, func(i int, ref shardRef) {
		results[i] = ref.api.Delete(ctx, name)
		r.report(ref.id, results[i])
	})

	var (
		deleted  int // replicas that removed a present copy
		agreed   int // replicas now in the deleted state (removed or already absent)
		notFound error
		errs     []error
		failed   []shardRef
	)
	for i, derr := range results {
		switch {
		case derr == nil:
			deleted++
			agreed++
		case errors.Is(derr, ErrNotFound):
			agreed++
			if notFound == nil {
				notFound = derr
			}
		default:
			errs = append(errs, fmt.Errorf("shard %d: %w", refs[i].id, derr))
			failed = append(failed, refs[i])
		}
	}
	if len(errs) > 0 {
		// A replica holds an undeleted copy now, whether or not its breaker
		// ever opens: note the deletion unconditionally so no sweep can
		// resurrect the stale copy, even if the failure stays a one-off.
		r.forceNoteDeleted(name)
	}

	// While a sweep is in flight, un-migrated copies may live on shards
	// outside the replica set; purge them too. A sweep that began (and
	// possibly finished) while the replica fan-out was in flight found no
	// note to respect: the deletion is noted again, and the purge covers the
	// replicas as well — the sweep may have merged a not-yet-deleted
	// replica's copy back onto one that had already deleted it.
	var (
		purged       int
		purgeErrs    []error
		failedPurges []shardRef
	)
	if raced := r.sweepGen.Load() != gen; raced || r.sweepActive() {
		r.noteDeleted(name)
		skip := refs
		if raced {
			skip = nil
		}
		purged, purgeErrs, failedPurges = r.purgeExcept(ctx, name, skip)
	}

	if err := r.ackOutcome("delete", agreed, len(refs), errs); err != nil {
		return err
	}
	for _, ref := range failed { // quorum-suppressed: finish the deletion on the replica
		r.repairDeletion(ref, name)
	}
	if len(purgeErrs) > 0 {
		if r.concern != WriteQuorum {
			return r.shardErr("delete", purgeErrs)
		}
		r.obs.replicaErrs.Add(int64(len(purgeErrs)))
		for _, ref := range failedPurges {
			r.repairDeletion(ref, name)
		}
	}
	if deleted+purged == 0 {
		return notFound
	}
	return nil
}

// purgeExcept removes the name from every reachable shard not in skip, one
// concurrent DeleteMany per shard, returning how many copies went plus the
// failures. Purges are accounted apart from the replica fan-out: a successful
// purge is not a replica acknowledgement, and a failed purge must not cost
// the quorum a vote — the deletion note already guarantees no sweep can
// resurrect the copy the purge missed. Shards with open breakers are skipped
// for the same reason Entries skips them: purging a down shard can only fail,
// and its stale copy is handled by the note-aware re-sync sweep when it
// returns.
func (r *Router) purgeExcept(ctx context.Context, name string, skip []shardRef) (int, []error, []shardRef) {
	var (
		mu     sync.Mutex
		purged int
		errs   []error
		failed []shardRef
		wg     sync.WaitGroup
	)
	for id, other := range r.reachableShards() {
		if hasRef(skip, id) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, derr := other.DeleteMany(ctx, []string{name})
			mu.Lock()
			defer mu.Unlock()
			if derr != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", id, derr))
				failed = append(failed, shardRef{id: id, api: other})
				return
			}
			purged += n
		}()
	}
	wg.Wait()
	return purged, errs, failed
}

// Get implements API: the routed read, timed into router_read_latency_ns.
// Only answered reads (a hit or an authoritative miss) are recorded, so a
// dead shard's timeout does not pass for the tier's read latency.
func (r *Router) Get(ctx context.Context, name string) (Entry, error) {
	start := time.Now()
	e, err := r.getRouted(ctx, name)
	if err == nil || errors.Is(err, ErrNotFound) {
		r.obs.readLat.ObserveDuration(time.Since(start))
	}
	return e, err
}

// getRouted is the read path: the primary is tried first and transport
// errors fail over down the replica list (router_failover_reads_total). A
// replica that answers "not found" is authoritative — unless a sweep is
// reshuffling entries: an entry may not have reached its new homes yet, so
// the miss falls back to the other shards (one concurrent Get per shard) and
// is only answered when every one of them actually responded; an unreachable
// shard mid-sweep surfaces as ErrUnavailable rather than reading an existing
// entry as absent.
func (r *Router) getRouted(ctx context.Context, name string) (Entry, error) {
	refs, err := r.replicaSet(name)
	if err != nil {
		return Entry{}, err
	}
	var (
		notFound error
		errs     []error
		tried    int
	)
	for i, ref := range refs {
		e, gerr := ref.api.Get(ctx, name)
		r.report(ref.id, gerr)
		tried = i + 1
		if gerr == nil {
			if i > 0 {
				r.obs.failovers.Inc()
			}
			return e, nil
		}
		if errors.Is(gerr, ErrNotFound) {
			if !r.sweepActive() {
				return Entry{}, gerr
			}
			notFound = gerr
			break
		}
		errs = append(errs, fmt.Errorf("shard %d: %w", ref.id, gerr))
	}
	if r.sweepActive() {
		e, ok, ferrs := r.sweepFallbackGet(ctx, name, refs[:tried])
		if ok {
			return e, nil
		}
		errs = append(errs, ferrs...)
		if notFound != nil && len(ferrs) > 0 {
			// A miss is only authoritative when every fallback shard
			// answered; an unreachable one may hold the copy.
			notFound = nil
		}
	}
	if notFound != nil {
		return Entry{}, notFound
	}
	return Entry{}, r.shardErr("get", errs)
}

// repGroup is one shard's combined sub-batch of a bulk call: the input
// positions routed to it, whether as primary or replica. One group is one
// wire frame.
type repGroup struct {
	shardRef
	idx []int
}

// pick returns the elements of all at the group's input positions — the
// group's sub-batch.
func pick[T any](all []T, idx []int) []T {
	sub := make([]T, len(idx))
	for i, pos := range idx {
		sub[i] = all[pos]
	}
	return sub
}

// entryNames returns the entries' names, in order.
func entryNames(entries []Entry) []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// groupReplicas partitions input positions across replica sets: every
// position lands in the group of each of its homes, so each shard still
// receives exactly one sub-batch. homesOf records each position's resolved
// replica IDs (primary first) for acknowledgement accounting.
func (r *Router) groupReplicas(names []string) (map[cloud.SiteID]*repGroup, [][]cloud.SiteID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	groups := make(map[cloud.SiteID]*repGroup)
	homesOf := make([][]cloud.SiteID, len(names))
	for i, name := range names {
		ids := r.replicaIDsLocked(name)
		valid := ids[:0] // filtered in place: the resolved list is this call's own
		for _, id := range ids {
			api, ok := r.shards[id]
			if id == cloud.NoSite || !ok {
				continue
			}
			g := groups[id]
			if g == nil {
				g = &repGroup{shardRef: shardRef{id: id, api: api}}
				groups[id] = g
			}
			g.idx = append(g.idx, i)
			valid = append(valid, id)
		}
		if len(valid) == 0 {
			return nil, nil, fmt.Errorf("registry: router for site %d: no shard owns %q: %w", r.site, name, ErrUnavailable)
		}
		homesOf[i] = valid
	}
	return groups, homesOf, nil
}

// bulkCountDivisor returns the factor a bulk call's per-replica count sum
// divides by: the smallest resolved home-set size of the batch — normally the
// replication factor, smaller when the tier (or its healthy part) has fewer
// shards than replicas — so the derived per-name count cannot undercount a
// fully-applied batch.
func bulkCountDivisor(rep int, homesOf [][]cloud.SiteID) int {
	div := rep
	for _, homes := range homesOf {
		if len(homes) < div {
			div = len(homes)
		}
	}
	if div < 1 {
		div = 1
	}
	return div
}

// bulkWrite is the fan-out PutMany, DeleteMany and Merge share: one
// sub-batch per group, issued concurrently by call (which returns the
// shard's applied count), outcomes reported to the health tracker and folded
// per input position under the write concern. Sub-batches that reached their
// shard stay applied when another shard fails. Nothing failed: nil. Under
// WriteQuorum, when every position still met its quorum, the failures are
// suppressed and counted (router_replica_write_errors_total) and each failed
// group is handed to repair; otherwise the error wraps every failed shard's
// cause. The returned count divides the per-replica sum back out by the
// home-set size, rounding up so partially-replicated names still count once.
func (r *Router) bulkWrite(op string, groups map[cloud.SiteID]*repGroup, homesOf [][]cloud.SiteID, call func(*repGroup) (int, error), repair func(*repGroup)) (int, error) {
	r.countBulk(len(groups))
	var (
		mu     sync.Mutex
		total  int
		acks   = make([]int, len(homesOf))
		errs   []error
		failed []*repGroup
		wg     sync.WaitGroup
	)
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := call(g)
			r.report(g.id, err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", g.id, err))
				failed = append(failed, g)
				return
			}
			total += n
			for _, pos := range g.idx {
				acks[pos]++
			}
		}()
	}
	wg.Wait()

	div := bulkCountDivisor(r.rep, homesOf)
	count := (total + div - 1) / div
	if len(errs) == 0 {
		return count, nil
	}
	if r.concern == WriteQuorum {
		quorate := true
		for pos := range acks {
			if acks[pos] < r.ackNeed(len(homesOf[pos])) {
				quorate = false
				break
			}
		}
		if quorate {
			r.obs.replicaErrs.Add(int64(len(errs)))
			for _, g := range failed {
				repair(g)
			}
			return count, nil
		}
	}
	return count, r.shardErr(op, errs)
}

// PutMany implements API: one combined sub-batch per shard across all
// replica sets, stored entries returned in input order, partial failures
// folded per entry under the write concern.
func (r *Router) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	names := entryNames(entries)
	groups, homesOf, err := r.groupReplicas(names)
	if err != nil {
		return nil, err
	}
	defer r.repairWindow()()
	r.noteWritten(names...)

	var (
		mu   sync.Mutex
		out  = make([]Entry, len(entries))
		have = make([]bool, len(entries))
	)
	_, err = r.bulkWrite("put-many", groups, homesOf, func(g *repGroup) (int, error) {
		stored, serr := g.api.PutMany(ctx, pick(entries, g.idx))
		if serr != nil {
			return 0, serr
		}
		mu.Lock()
		defer mu.Unlock()
		for i, pos := range g.idx {
			if i < len(stored) && !have[pos] {
				out[pos], have[pos] = stored[i], true
			}
		}
		return len(stored), nil
	}, func(g *repGroup) {
		sub := pick(entries, g.idx)
		for i, pos := range g.idx {
			if have[pos] {
				sub[i] = out[pos]
			}
		}
		r.repairBatch(g.shardRef, sub)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteMany implements API: the deletions are noted like Delete's, then one
// sub-batch per shard removes every name at each of its replicas; the count
// of present-and-removed names is returned.
func (r *Router) DeleteMany(ctx context.Context, names []string) (int, error) {
	if len(names) == 0 {
		return 0, nil
	}
	groups, homesOf, err := r.groupReplicas(names)
	if err != nil {
		return 0, err
	}
	r.noteDeleted(names...)
	return r.bulkWrite("delete-many", groups, homesOf, func(g *repGroup) (int, error) {
		sub := pick(names, g.idx)
		n, serr := g.api.DeleteMany(ctx, sub)
		if serr != nil {
			// This replica holds undeleted copies now, whether or not its
			// breaker ever opens: note the deletions unconditionally so no
			// sweep can resurrect the stale copies.
			r.forceNoteDeleted(sub...)
		}
		return n, serr
	}, func(g *repGroup) {
		r.repairBatchDeletion(g.shardRef, pick(names, g.idx))
	})
}

// Merge implements API: one sub-batch per shard, the number of applied
// entries returned. Merge is idempotent, so on partial failure the caller
// re-sends the whole batch on the next round.
func (r *Router) Merge(ctx context.Context, entries []Entry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	names := entryNames(entries)
	groups, homesOf, err := r.groupReplicas(names)
	if err != nil {
		return 0, err
	}
	defer r.repairWindow()()
	r.noteWritten(names...)
	return r.bulkWrite("merge", groups, homesOf, func(g *repGroup) (int, error) {
		return g.api.Merge(ctx, pick(entries, g.idx))
	}, func(g *repGroup) {
		r.repairBatch(g.shardRef, pick(entries, g.idx))
	})
}

// GetMany implements API: the found entries are returned in input order
// (absent names are skipped, matching the single-shard semantics). Round one
// groups every name at its primary; a sub-batch that fails moves its names
// one step down their replica lists for the next round — at most one
// sub-batch per shard per round, at most R rounds — so a crashed shard
// degrades a bulk read into one retry round instead of an error. Names whose
// every replica failed surface as a joined error; an answering shard's
// misses are authoritative (with the usual full-tier fallback while a sweep
// runs).
func (r *Router) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	if len(names) == 0 {
		return nil, nil
	}
	uniq := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if !seen[name] {
			seen[name] = true
			uniq = append(uniq, name)
		}
	}
	remaining := make(map[string][]shardRef, len(uniq))
	r.mu.RLock()
	for _, name := range uniq {
		refs, err := r.replicaRefsLocked(name)
		if err != nil {
			r.mu.RUnlock()
			return nil, err
		}
		remaining[name] = refs
	}
	r.mu.RUnlock()

	var (
		mu    sync.Mutex
		found = make(map[string]Entry, len(uniq))
		errs  []error
	)
	r.obs.bulkOps.Inc()
	for round := 0; len(remaining) > 0 && round < r.rep; round++ {
		type subBatch struct {
			api   API
			names []string
		}
		batch := make(map[cloud.SiteID]*subBatch)
		for name, refs := range remaining {
			b := batch[refs[0].id]
			if b == nil {
				b = &subBatch{api: refs[0].api}
				batch[refs[0].id] = b
			}
			b.names = append(b.names, name)
		}
		r.obs.subBatches.Add(int64(len(batch)))

		failed := make(map[cloud.SiteID]error)
		var wg sync.WaitGroup
		for id, b := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				entries, gerr := b.api.GetMany(ctx, b.names)
				r.report(id, gerr)
				mu.Lock()
				defer mu.Unlock()
				if gerr != nil {
					failed[id] = gerr
					return
				}
				for _, e := range entries {
					found[e.Name] = e
				}
			}()
		}
		wg.Wait()

		answered := len(remaining)
		next := make(map[string][]shardRef)
		for id, gerr := range failed {
			answered -= len(batch[id].names)
			for _, name := range batch[id].names {
				rest := remaining[name][1:]
				if len(rest) == 0 {
					errs = append(errs, fmt.Errorf("shard %d: %q: %w", id, name, gerr))
					continue
				}
				next[name] = rest
			}
		}
		if round > 0 {
			r.obs.failovers.Add(int64(answered))
		}
		remaining = next
	}
	for name, refs := range remaining {
		// The round budget ran out with replicas left untried (cannot happen
		// with distinct homes, but stay defensive).
		errs = append(errs, fmt.Errorf("shard %d: %q: %w", refs[0].id, name, ErrUnavailable))
	}
	if len(errs) > 0 {
		return nil, r.shardErr("get-many", errs)
	}

	// During a migration or re-sync sweep an entry may not have reached its
	// current home set yet; misses fall back to the whole tier, one
	// concurrent sub-batch per shard, matching Get's fallback semantics.
	if r.sweepActive() {
		var missing []string
		for _, name := range uniq {
			if _, ok := found[name]; !ok {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			var fwg sync.WaitGroup
			for _, api := range r.snapshotShards() {
				fwg.Add(1)
				go func() {
					defer fwg.Done()
					entries, ferr := api.GetMany(ctx, missing)
					if ferr != nil {
						return // best-effort fallback; the home answer stands
					}
					mu.Lock()
					for _, e := range entries {
						if _, ok := found[e.Name]; !ok {
							found[e.Name] = e
						}
					}
					mu.Unlock()
				}()
			}
			fwg.Wait()
		}
	}

	out := make([]Entry, 0, len(found))
	emitted := make(map[string]bool, len(found))
	for _, name := range names {
		if e, ok := found[name]; ok && !emitted[name] {
			emitted[name] = true
			out = append(out, e)
		}
	}
	return out, nil
}
