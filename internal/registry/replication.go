package registry

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
// Writes fan out to every replica and succeed only when every replica
// acknowledges; replicas that were reached stay applied when another fails.
// Reads try the primary and fail over down the
// replica list on transport errors; an answering replica's ErrNotFound is
// authoritative — except while a re-sync sweep is moving entries back from
// substitutes, when the whole tier is consulted. Bulk operations keep the one-frame-per-shard
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

// replicaIDs resolves the key's home shard IDs, primary first. With
// replication the set is drawn from healthy shards; if every successor is
// down the raw prefix of the list is returned so callers fail with the
// shard's transport error instead of inventing emptiness.
func (r *Router) replicaIDs(name string) []cloud.SiteID {
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
	all := r.placer.Homes(name, len(r.shards)) // every shard, successors first
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

// replicaSet resolves the key's replica set — its (healthy) home shards,
// primary first — to shard handles.
func (r *Router) replicaSet(name string) []shardRef {
	ids := r.replicaIDs(name)
	refs := make([]shardRef, len(ids))
	for i, id := range ids {
		refs[i] = shardRef{id: id, api: r.shards[id]}
	}
	return refs
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

// fanOut runs fn once per member of the set — a replica, a shard, a shard's
// sub-batch — and returns when every call has finished. The calls run
// concurrently, except that a one-member set — every single-key write of an
// unreplicated tier — runs on the caller's goroutine.
func fanOut[T any](set []T, fn func(i int, member T)) {
	if len(set) == 1 {
		fn(0, set[0])
		return
	}
	var wg sync.WaitGroup
	for i, member := range set {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, member)
		}()
	}
	wg.Wait()
}

// fanOutPut upserts e at every given replica, reporting each outcome to the
// health tracker. It returns the first successful stored entry and the
// per-shard failures.
func (r *Router) fanOutPut(ctx context.Context, refs []shardRef, e Entry) (Entry, []error) {
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
		errs   []error
	)
	for i, res := range results {
		if res.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", refs[i].id, res.err))
			continue
		}
		if !got {
			stored, got = res.e, true
		}
	}
	return stored, errs
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
// no recovery sweep to clear it — so every later deletion's note would be
// kept for good.
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
	// stale copy these notes guard against exists regardless of breaker or
	// sweep state.
	r.staleNotes.Store(true)
	r.delMu.Unlock()
}

// reassertDeletion restores the protection a failed write removed: the names
// were deleted while a sweep was active or a shard was down, the write that
// cleared their notes did not take effect, so the deletions must stand. The
// notes are re-recorded and the names purged everywhere, best-effort — the
// in-flight sweep may have merged a stale copy during the window the notes
// were gone.
func (r *Router) reassertDeletion(ctx context.Context, names ...string) {
	r.noteDeleted(names...)
	for _, api := range r.shards {
		api.DeleteMany(ctx, names) //nolint:errcheck // best-effort re-assertion of the standing deletion
	}
}

// reanchor handles an acknowledged write that raced the start of a recovery:
// the homes are re-resolved — the recovered shard is back among them — and
// any that were not in the original target set receive the stored entry,
// best-effort. The sweep moving the original copies off their substitutes
// converges the same way, and clearing the deletion note keeps its
// post-merge check from undoing the write.
func (r *Router) reanchor(ctx context.Context, wrote []shardRef, stored Entry) {
	r.clearDeleted(stored.Name)
	for _, ref := range r.replicaSet(stored.Name) {
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
// if the write fails. A recovery sweep that begins while the write is in
// flight is caught by a re-check afterwards: the acknowledged entry is
// re-anchored at its current homes so the sweep's source cleanup cannot
// orphan it.
func (r *Router) Create(ctx context.Context, e Entry) (Entry, error) {
	refs := r.replicaSet(e.Name)
	gen := r.sweepGen.Load()
	noted := r.clearDeleted(e.Name) != nil

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

	if _, errs := r.fanOutPut(ctx, others(refs, creator), stored); errs != nil {
		return Entry{}, r.shardErr("create", errs)
	}
	if r.sweepActive() || r.sweepGen.Load() != gen {
		r.reanchor(ctx, refs, stored)
	}
	return stored, nil
}

// Put implements API: the upsert fans out to every replica, and every one
// must acknowledge. Deletion notes and a racing recovery are handled as in
// Create.
func (r *Router) Put(ctx context.Context, e Entry) (Entry, error) {
	refs := r.replicaSet(e.Name)
	gen := r.sweepGen.Load()
	noted := r.clearDeleted(e.Name)
	stored, errs := r.fanOutPut(ctx, refs, e)
	if errs != nil {
		if noted != nil {
			r.reassertDeletion(ctx, noted...)
		}
		return Entry{}, r.shardErr("put", errs)
	}
	if r.sweepActive() || r.sweepGen.Load() != gen {
		r.reanchor(ctx, refs, stored)
	}
	return stored, nil
}

// AddLocation implements API: the read-modify-write runs at one authority —
// the first replica that answers — and its result is replicated as an upsert.
func (r *Router) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	refs := r.replicaSet(name)
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
	if _, errs := r.fanOutPut(ctx, others(refs, at), stored); errs != nil {
		return Entry{}, r.shardErr("add-location", errs)
	}
	return stored, nil
}

// Delete implements API. The deletion is noted before any shard is touched
// (the note is recorded only while a sweep runs or a shard is down — the
// windows in which a stale copy somewhere could resurrect it), then fans out
// to every replica; while a sweep is in flight the remaining shards are
// purged too, since copies written to substitutes during an outage may not
// have been reconciled yet. A replica answering "not found" already agrees
// with the deletion and counts as an acknowledgement; any other replica or
// purge failure fails the delete.
func (r *Router) Delete(ctx context.Context, name string) error {
	refs := r.replicaSet(name)
	gen := r.sweepGen.Load()
	r.noteDeleted(name)

	results := make([]error, len(refs))
	fanOut(refs, func(i int, ref shardRef) {
		results[i] = ref.api.Delete(ctx, name)
		r.report(ref.id, results[i])
	})

	var (
		deleted  int // replicas that removed a present copy
		notFound error
		errs     []error
	)
	for i, derr := range results {
		switch {
		case derr == nil:
			deleted++
		case errors.Is(derr, ErrNotFound):
			if notFound == nil {
				notFound = derr
			}
		default:
			errs = append(errs, fmt.Errorf("shard %d: %w", refs[i].id, derr))
		}
	}
	if len(errs) > 0 {
		// A replica holds an undeleted copy now, whether or not its breaker
		// ever opens: note the deletion unconditionally so no sweep can
		// resurrect the stale copy, even if the failure stays a one-off.
		r.forceNoteDeleted(name)
	}

	// While a sweep is in flight, unreconciled copies may live on shards
	// outside the replica set; purge them too. A sweep that began (and
	// possibly finished) while the replica fan-out was in flight found no
	// note to respect: the deletion is noted again, and the purge covers the
	// replicas as well — the sweep may have merged a not-yet-deleted
	// replica's copy back onto one that had already deleted it.
	purged := 0
	if raced := r.sweepGen.Load() != gen; raced || r.sweepActive() {
		r.noteDeleted(name)
		skip := refs
		if raced {
			skip = nil
		}
		var purgeErrs []error
		purged, purgeErrs = r.purgeExcept(ctx, name, skip)
		errs = append(errs, purgeErrs...)
	}
	if errs != nil {
		return r.shardErr("delete", errs)
	}
	if deleted+purged == 0 {
		return notFound
	}
	return nil
}

// purgeExcept removes the name from every reachable shard not in skip, one
// concurrent DeleteMany per shard, returning how many copies went plus the
// failures. Shards with open breakers are skipped for the same reason Entries
// skips them: purging a down shard can only fail, and its stale copy is
// handled by the note-aware re-sync sweep when it returns.
func (r *Router) purgeExcept(ctx context.Context, name string, skip []shardRef) (int, []error) {
	var (
		mu     sync.Mutex
		purged int
		errs   []error
	)
	rest := slices.DeleteFunc(r.reachableShards(), func(ref shardRef) bool { return hasRef(skip, ref.id) })
	fanOut(rest, func(_ int, ref shardRef) {
		n, derr := ref.api.DeleteMany(ctx, []string{name})
		mu.Lock()
		defer mu.Unlock()
		if derr != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", ref.id, derr))
			return
		}
		purged += n
	})
	return purged, errs
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
// replica that answers "not found" is authoritative — unless a re-sync sweep
// is running: an entry written during an outage may not have reached the
// recovered shard yet, so the miss falls back to the other shards
// (sweepFallback) and is only answered when every one of them actually
// responded; an unreachable shard mid-sweep surfaces as ErrUnavailable rather
// than reading an existing entry as absent.
func (r *Router) getRouted(ctx context.Context, name string) (Entry, error) {
	refs := r.replicaSet(name)
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
		found, ferrs := r.sweepFallback(ctx, map[string][]shardRef{name: refs[:tried]})
		if e, ok := found[name]; ok {
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
func (r *Router) groupReplicas(names []string) (map[cloud.SiteID]*repGroup, [][]cloud.SiteID) {
	groups := make(map[cloud.SiteID]*repGroup)
	homesOf := make([][]cloud.SiteID, len(names))
	for i, name := range names {
		homesOf[i] = r.replicaIDs(name)
		for _, id := range homesOf[i] {
			g := groups[id]
			if g == nil {
				g = &repGroup{shardRef: shardRef{id: id, api: r.shards[id]}}
				groups[id] = g
			}
			g.idx = append(g.idx, i)
		}
	}
	return groups, homesOf
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
// shard's applied count), outcomes reported to the health tracker. Sub-batches
// that reached their shard stay applied when another shard fails, and the
// error wraps every failed shard's cause. The returned count divides the
// per-replica sum back out by the home-set size, rounding up so
// partially-replicated names still count once.
func (r *Router) bulkWrite(op string, groups map[cloud.SiteID]*repGroup, homesOf [][]cloud.SiteID, call func(*repGroup) (int, error)) (int, error) {
	r.countBulk(len(groups))
	var (
		mu    sync.Mutex
		total int
		errs  []error
	)
	fanOut(slices.Collect(maps.Values(groups)), func(_ int, g *repGroup) {
		n, err := call(g)
		r.report(g.id, err)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", g.id, err))
			return
		}
		total += n
	})

	div := bulkCountDivisor(r.rep, homesOf)
	return (total + div - 1) / div, r.shardErr(op, errs)
}

// PutMany implements API: one combined sub-batch per shard across all
// replica sets, stored entries returned in input order; a failure at any
// replica fails the call. Like Put, it clears the batch's deletion notes
// before the fan-out, so a sweep's cleanup cannot drop the acknowledged
// entries as deleted, and re-asserts the notes it cleared if the write fails.
func (r *Router) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	names := entryNames(entries)
	groups, homesOf := r.groupReplicas(names)

	var (
		mu   sync.Mutex
		out  = make([]Entry, len(entries))
		have = make([]bool, len(entries))
	)
	noted := r.clearDeleted(names...)
	_, err := r.bulkWrite("put-many", groups, homesOf, func(g *repGroup) (int, error) {
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
	})
	if err != nil {
		if noted != nil {
			r.reassertDeletion(ctx, noted...)
		}
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
	groups, homesOf := r.groupReplicas(names)
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
	})
}

// Merge implements API: one sub-batch per shard, the number of applied
// entries returned, deletion notes handled as in PutMany. Merge is
// idempotent, so on partial failure the caller re-sends the whole batch on
// the next round.
func (r *Router) Merge(ctx context.Context, entries []Entry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	names := entryNames(entries)
	groups, homesOf := r.groupReplicas(names)
	noted := r.clearDeleted(names...)
	n, err := r.bulkWrite("merge", groups, homesOf, func(g *repGroup) (int, error) {
		return g.api.Merge(ctx, pick(entries, g.idx))
	})
	if err != nil && noted != nil {
		r.reassertDeletion(ctx, noted...)
	}
	return n, err
}

// GetMany implements API: the found entries are returned in input order
// (absent names are skipped, matching the single-shard semantics). Round one
// groups every name at its primary; a sub-batch that fails moves its names
// one step down their replica lists for the next round — at most one
// sub-batch per shard per round, at most R rounds — so a crashed shard
// degrades a bulk read into one retry round instead of an error. Names whose
// every replica failed surface as a joined error; an answering shard's
// misses are authoritative, except while a sweep runs, when they take Get's
// fallback (sweepFallback).
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
	homes := make(map[string][]shardRef, len(uniq))
	for _, name := range uniq {
		homes[name] = r.replicaSet(name)
	}
	remaining := maps.Clone(homes)
	// missed maps each name an answering shard did not hold to the shards
	// asked for it: the sweep fallback's starting point.
	missed := make(map[string][]shardRef)

	var (
		mu    sync.Mutex
		found = make(map[string]Entry, len(uniq))
		errs  []error
	)
	r.obs.bulkOps.Inc()
	for round := 0; len(remaining) > 0 && round < r.rep; round++ {
		type subBatch struct {
			shardRef
			names []string
		}
		batch := make(map[cloud.SiteID]*subBatch)
		for name, refs := range remaining {
			b := batch[refs[0].id]
			if b == nil {
				b = &subBatch{shardRef: refs[0]}
				batch[refs[0].id] = b
			}
			b.names = append(b.names, name)
		}
		r.obs.subBatches.Add(int64(len(batch)))

		failed := make(map[cloud.SiteID]error)
		fanOut(slices.Collect(maps.Values(batch)), func(_ int, b *subBatch) {
			entries, gerr := b.api.GetMany(ctx, b.names)
			r.report(b.id, gerr)
			mu.Lock()
			defer mu.Unlock()
			if gerr != nil {
				failed[b.id] = gerr
				return
			}
			for _, e := range entries {
				found[e.Name] = e
			}
		})

		answered := len(remaining)
		for id, b := range batch {
			if failed[id] != nil {
				continue
			}
			for _, name := range b.names {
				if _, ok := found[name]; !ok {
					missed[name] = homes[name][:round+1] // each round moves a name one replica down
				}
			}
		}
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

	// During a re-sync sweep an entry may not have reached its current home
	// set yet: the misses take Get's fallback.
	if len(missed) > 0 && r.sweepActive() {
		more, ferrs := r.sweepFallback(ctx, missed)
		if len(ferrs) > 0 {
			return nil, r.shardErr("get-many", ferrs)
		}
		maps.Copy(found, more)
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
