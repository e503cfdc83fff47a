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
// Every write, single-key or bulk, takes one path (write): it fans out to
// every replica and succeeds only when every replica acknowledges, replicas
// that were reached staying applied when another fails, and it carries the
// one guard against a racing re-sync sweep. Reads try the primary and fail
// over down the replica list on transport errors; an answering replica's
// ErrNotFound is authoritative — except while a re-sync sweep is moving
// entries back from substitutes, when the whole tier is consulted. Bulk
// operations keep the one-frame-per-shard contract: a shard that is primary
// for some keys of a batch and replica for others receives one combined
// sub-batch.

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

// fanOut runs fn once per member of the set — a replica, a shard, a shard's
// sub-batch — and returns when every call has finished. The calls run
// concurrently, the first on the caller's goroutine: one goroutine fewer,
// and a stack that has already grown to a write's depth.
func fanOut[T any](set []T, fn func(i int, member T)) {
	if len(set) == 0 {
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < len(set); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, set[i]) // indexed here, so a large member is not moved to the heap
		}()
	}
	fn(0, set[0])
	wg.Wait()
}

// forceNoteDeleted records pinned deletion notes unconditionally. The write
// path uses it whenever a replica failed to apply a deletion that was (or may
// have been) acknowledged: the failed replica holds a stale copy now, whether
// or not its breaker ever opens, and every sweep consults the notes before
// merging — so the stale copy can be purged but never resurrected. The pin
// keeps these notes, and only these, until a clean sweep has reconciled
// every shard; it does not make later deletions noted. A write
// re-establishing the name clears its note as usual.
//
// A one-home tier records nothing here: its only home failed, the caller was
// told so, and no acknowledged replica exists for the surviving copy to
// contradict. A pin would also never be lifted — a one-home tier runs no
// recovery sweep — and the next sweep would purge the entry whose delete
// failed.
func (r *Router) forceNoteDeleted(names ...string) {
	if r.rep <= 1 || len(names) == 0 {
		return
	}
	r.delMu.Lock()
	if r.deletedDuringSweep == nil {
		r.deletedDuringSweep = make(map[string]bool)
	}
	for _, name := range names {
		r.deletedDuringSweep[name] = true
	}
	r.delMu.Unlock()
}

// repGroup is one shard's share of a routed write: the input positions
// routed to it, as primary or replica, and the shard's answer. One group is
// one shard call — for a bulk write, one wire frame.
type repGroup struct {
	shardRef
	idx    []int
	n      int   // names the shard applied: stored, merged or removed
	stored Entry // a one-name write's stored entry
	err    error
}

// oneName is the positions of a one-name write, shared by all its groups.
var oneName = []int{0}

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

// groupWrite partitions a write's names across their replica sets: every
// position lands in the group of each of its homes, so each shard receives
// one sub-batch. It also returns the fewest homes any name has — normally
// R, fewer when the tier (or its healthy part) is smaller — which turns the
// per-replica count sum back into names.
func (r *Router) groupWrite(names []string) ([]repGroup, int) {
	if len(names) == 1 { // the name's replica set, without the map
		ids := r.replicaIDs(names[0])
		groups := make([]repGroup, len(ids))
		for i, id := range ids {
			groups[i] = repGroup{shardRef: shardRef{id: id, api: r.shards[id]}, idx: oneName}
		}
		return groups, len(ids)
	}
	groups := make([]repGroup, 0, min(len(r.shards), len(names)*r.rep))
	at := make(map[cloud.SiteID]int, cap(groups))
	fewest := r.rep
	for i, name := range names {
		ids := r.replicaIDs(name)
		fewest = min(fewest, len(ids))
		for _, id := range ids {
			j, ok := at[id]
			if !ok {
				j = len(groups)
				at[id] = j
				groups = append(groups, repGroup{shardRef: shardRef{id: id, api: r.shards[id]}})
			}
			groups[j].idx = append(groups[j].idx, i)
		}
	}
	return groups, fewest
}

// reachableGroups returns one group per reachable shard (see
// reachableShards), each holding all n positions: a purge's groups.
func (r *Router) reachableGroups(n int) []repGroup {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var groups []repGroup
	for _, ref := range r.reachableShards() {
		groups = append(groups, repGroup{shardRef: ref, idx: all})
	}
	return groups
}

// unreached keeps, of each group, the positions that the same shard's group
// in reached did not hold, and drops the groups left empty.
func unreached(groups, reached []repGroup) []repGroup {
	out := groups[:0]
	for _, g := range groups {
		for _, s := range reached {
			if s.id == g.id {
				g.idx = slices.DeleteFunc(slices.Clone(g.idx), func(pos int) bool { return slices.Contains(s.idx, pos) })
			}
		}
		if len(g.idx) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// deleteMany is the send that removes the group's names with one DeleteMany:
// DeleteMany's own, and every purge's.
func deleteMany(ctx context.Context, names []string) func(*repGroup) {
	return func(g *repGroup) { g.n, g.err = g.api.DeleteMany(ctx, pick(names, g.idx)) }
}

// writeKind is what a write does to its names, which decides what the
// sweep guard does for it.
type writeKind int

const (
	upsert writeKind = iota // re-establishes its names: Create, Put, PutMany, Merge
	update                  // changes an existing entry, re-establishes nothing: AddLocation
	remove                  // Delete, DeleteMany
)

// write is one routed write. Its names are write's own parameter: a struct
// parameter escapes as a whole, so names kept here would cost every
// single-key write a heap copy.
type write struct {
	op   string // for errors
	kind writeKind
	bulk bool // counted in router_bulk_ops_total
	// send applies a group's sub-batch at its shard, setting the group's n
	// and err (and stored, for a one-name write).
	send func(g *repGroup)
	// lead, if set, replaces send: the one-name write runs at one authority,
	// the first replica that answers, and the others receive what it stored
	// as a Put. noted says the write cleared the name's deletion note.
	lead func(ref shardRef, noted bool) (Entry, error)
}

// write is the Router's one write path. Every write sends one sub-batch per
// shard, concurrently, reports each outcome to the health tracker, and
// succeeds only when every replica acknowledges; replicas that were reached
// stay applied when another fails. It holds the one guard against a racing
// re-sync sweep, so that no acknowledged write is lost and no deletion is
// resurrected:
//
//   - sweepGen is read before any replica set is resolved, so a sweep that
//     begins (and even ends) while the write is in flight is seen after it;
//   - an upsert clears its names' deletion notes before the first shard
//     call, so the sweep's checks cannot undo it. A failed one restores
//     them: the notes are recorded again and the names purged from every
//     reachable shard, since a sweep may have merged a stale copy meanwhile;
//   - a remove notes its names first, and force-notes those a failing
//     replica still holds (see forceNoteDeleted);
//   - if a sweep is active or began since, an acknowledged upsert or update
//     is re-sent, with its own shard call, to its names' current homes it
//     did not reach: a sweep that read their substitutes before the write
//     landed there will not carry it to the recovered shard. A remove
//     purges its names from every reachable shard outside its groups, or
//     from every one if a sweep began, since that sweep may have merged a
//     not-yet-deleted replica's copy onto one that had already deleted it.
//
// A replica answering a remove with ErrNotFound agrees with it. The count
// is the per-replica sum, purged copies included, divided by the fewest
// homes any name has and rounded up, so a partially replicated name still
// counts once; a remove that removed no copy anywhere returns a replica's
// ErrNotFound if one answered so. The entry is what a one-name write stored.
func (r *Router) write(ctx context.Context, names []string, w write) (Entry, int, error) {
	gen := r.sweepGen.Load()
	groups, fewest := r.groupWrite(names)
	if w.bulk {
		r.countBulk(len(groups))
	}
	var noted, pinned []string
	switch w.kind {
	case upsert:
		noted, pinned = r.clearDeleted(names...)
	case remove:
		r.noteDeleted(names...)
	}
	failed := func(n int, err error) (Entry, int, error) {
		if noted != nil {
			r.noteDeleted(noted...)
			r.forceNoteDeleted(pinned...)
			r.apply(r.reachableGroups(len(noted)), deleteMany(ctx, noted))
		}
		return Entry{}, n, err
	}

	todo, send := groups, w.send
	if w.lead != nil {
		at, err := r.lead(groups, w.op, w.lead, noted != nil)
		if err != nil {
			return failed(0, err)
		}
		groups[0], groups[at] = groups[at], groups[0]
		stored := groups[0].stored
		todo, send = groups[1:], func(g *repGroup) {
			g.stored, g.err = g.api.Put(ctx, stored)
			g.n = 1
		}
	}
	r.apply(todo, send)
	raced := r.sweepGen.Load() != gen
	repair := raced || r.sweepActive()
	if w.kind == remove && repair {
		r.noteDeleted(names...)
		reached := groups
		if raced {
			reached = nil
		}
		purge := unreached(r.reachableGroups(len(names)), reached)
		r.apply(purge, deleteMany(ctx, slices.Clone(names))) // a copy keeps names off the heap
		groups = append(groups, purge...)
	}

	var (
		sum      int
		notFound error
		errs     []error
	)
	for _, g := range groups {
		switch {
		case g.err == nil:
			sum += g.n
		case w.kind == remove && errors.Is(g.err, ErrNotFound):
			notFound = g.err
		default:
			errs = append(errs, fmt.Errorf("shard %d: %w", g.id, g.err))
			if w.kind == remove {
				r.forceNoteDeleted(pick(names, g.idx)...)
			}
		}
	}
	n := min((sum+fewest-1)/fewest, len(names))
	if errs != nil {
		return failed(n, r.shardErr(w.op, errs))
	}
	if w.kind != remove && repair {
		homes, _ := r.groupWrite(names)
		r.apply(unreached(homes, groups), send) // best-effort: the next recovery's sweep converges the same way
	}
	if n == 0 && notFound != nil {
		return Entry{}, 0, notFound
	}
	return groups[0].stored, n, nil
}

// lead runs a write's lead at the first replica that answers: a transport
// failure moves down the replica set, and any other answer (ErrExists,
// ErrNotFound, a validation error) is final. It returns the position of the
// group that answered.
func (r *Router) lead(groups []repGroup, op string, lead func(shardRef, bool) (Entry, error), noted bool) (int, error) {
	var errs []error
	for i := range groups {
		g := &groups[i]
		g.stored, g.err = lead(g.shardRef, noted)
		r.report(g.id, g.err)
		if g.err == nil {
			g.n = 1
			return i, nil
		}
		if !errors.Is(g.err, ErrUnavailable) {
			return -1, g.err
		}
		errs = append(errs, fmt.Errorf("shard %d: %w", g.id, g.err))
	}
	return -1, r.shardErr(op, errs)
}

// apply sends every group's sub-batch and reports each outcome to the
// health tracker: concurrently, except that a lone group — every single-key
// write of an unreplicated tier — stays on the caller's goroutine.
func (r *Router) apply(groups []repGroup, send func(*repGroup)) {
	switch len(groups) {
	case 0:
	case 1:
		send(&groups[0])
		r.report(groups[0].id, groups[0].err)
	default:
		fanOut(groups, func(i int, _ repGroup) {
			send(&groups[i])
			r.report(groups[i].id, groups[i].err)
		})
	}
}

// Create implements API: existence is decided at the first replica that
// answers (see write). If the name had a deletion note, an "existing" copy
// is a stale resurrection of a deletion made while a sweep ran or a shard
// was down, and the create wins over it with a Put.
func (r *Router) Create(ctx context.Context, e Entry) (Entry, error) {
	stored, _, err := r.write(ctx, []string{e.Name}, write{op: "create", kind: upsert,
		lead: func(ref shardRef, noted bool) (Entry, error) {
			stored, err := ref.api.Create(ctx, e)
			if noted && errors.Is(err, ErrExists) {
				stored, err = ref.api.Put(ctx, e)
			}
			return stored, err
		}})
	return stored, err
}

// Put implements API: the upsert goes to every replica (see write).
func (r *Router) Put(ctx context.Context, e Entry) (Entry, error) {
	stored, _, err := r.write(ctx, []string{e.Name}, write{op: "put", kind: upsert,
		send: func(g *repGroup) {
			g.stored, g.err = g.api.Put(ctx, e)
			g.n = 1
		}})
	return stored, err
}

// AddLocation implements API: the read-modify-write runs at the first
// replica that answers (see write).
func (r *Router) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	stored, _, err := r.write(ctx, []string{name}, write{op: "add-location", kind: update,
		lead: func(ref shardRef, _ bool) (Entry, error) { return ref.api.AddLocation(ctx, name, loc) }})
	return stored, err
}

// Delete implements API: the deletion goes to every replica (see write).
func (r *Router) Delete(ctx context.Context, name string) error {
	_, _, err := r.write(ctx, []string{name}, write{op: "delete", kind: remove,
		send: func(g *repGroup) {
			if g.err = g.api.Delete(ctx, name); g.err == nil {
				g.n = 1
			}
		}})
	return err
}

// PutMany implements API: one combined sub-batch per shard across all
// replica sets (see write), the stored entries returned in input order. A
// batch with an invalid entry is refused whole, before any shard sees it.
func (r *Router) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	if err := validBatch(entries); err != nil {
		return nil, err
	}
	var (
		mu  sync.Mutex
		out = make([]Entry, len(entries))
	)
	_, _, err := r.write(ctx, entryNames(entries), write{op: "put-many", kind: upsert, bulk: true,
		send: func(g *repGroup) {
			stored, err := g.api.PutMany(ctx, pick(entries, g.idx))
			g.n, g.err = len(stored), err
			mu.Lock()
			defer mu.Unlock()
			for i, pos := range g.idx {
				if i < len(stored) && out[pos].Name == "" {
					out[pos] = stored[i]
				}
			}
		}})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteMany implements API: one sub-batch per shard removes every name at
// each of its replicas (see write); the count of present-and-removed names
// is returned.
func (r *Router) DeleteMany(ctx context.Context, names []string) (int, error) {
	if len(names) == 0 {
		return 0, nil
	}
	_, n, err := r.write(ctx, names, write{op: "delete-many", kind: remove, bulk: true, send: deleteMany(ctx, names)})
	return n, err
}

// Merge implements API: one sub-batch per shard (see write), the number of
// applied entries returned. Merge is idempotent, so on partial failure the
// caller re-sends the whole batch on the next round; a batch with an invalid
// entry is refused whole, before any shard sees it, and stores nothing.
func (r *Router) Merge(ctx context.Context, entries []Entry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	if err := validBatch(entries); err != nil {
		return 0, err
	}
	_, n, err := r.write(ctx, entryNames(entries), write{op: "merge", kind: upsert, bulk: true,
		send: func(g *repGroup) { g.n, g.err = g.api.Merge(ctx, pick(entries, g.idx)) }})
	return n, err
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
