package registry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"geomds/internal/cloud"
)

// Delta repair: the recovery path for shards that persist their state.
//
// When every shard is memory-only, a returning shard comes back empty and
// the router must run the full re-sync sweep — every shard's every entry is
// re-merged to its home set, O(entries x rep) Merge traffic per recovery.
// A Recoverable shard changes the math: the router records the shard's
// durable sequence number the moment its breaker opens, and when the shard
// returns with a recovered sequence number at or above that mark, it
// provably holds everything it held before the outage. What it can be
// missing is exactly what the tier changed *while it was away* — and the
// router watched all of it happen: deletions were noted (deletedDuringSweep
// stays pinned while a breaker is open) and writes are noted here
// (wroteDuringOutage). The repair then replays only that delta:
//
//  1. the noted deletions are applied to the returning shard, so copies
//     deleted during the outage cannot be served (or re-merged) from its
//     recovered state;
//  2. each noted write homed on the shard is fetched from a healthy replica
//     and merged in — with the usual post-merge deletion re-check, so a
//     delete racing the repair is not resurrected;
//  3. copies those writes left on substitute shards (the healthy successors
//     that covered for the victim) are purged from shards outside the
//     name's home set.
//
// The repair runs under the sweep flag the recovery raised (preRecover), so
// reads keep their full fallback protection until the shard is whole. If
// the delta cannot be trusted — the shard lost log suffix, a force-noted
// deletion is outstanding, a membership sweep is concurrently reshuffling
// entries, or the shard does not report recovery at all — the router falls
// back to the full sweep, which remains the universal converger.

// recordDownSeq is the health tracker's onDown hook: it samples and stores
// the shard's durable sequence number at the moment its breaker opens.
// Memory-only and remote (rpc.Client) shards record nothing and later take
// the full-sweep path.
func (r *Router) recordDownSeq(id cloud.SiteID) {
	r.mu.RLock()
	api := r.shards[id]
	r.mu.RUnlock()
	rec, ok := api.(Recoverable)
	if !ok {
		return
	}
	seq, ok := rec.DurableSeq()
	if !ok {
		return
	}
	r.seqMu.Lock()
	if r.seqAtDown == nil {
		r.seqAtDown = make(map[cloud.SiteID]uint64)
	}
	r.seqAtDown[id] = seq
	r.seqMu.Unlock()
}

// takeDownSeq consumes the sequence number recorded when the shard's
// breaker opened.
func (r *Router) takeDownSeq(id cloud.SiteID) (uint64, bool) {
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	seq, ok := r.seqAtDown[id]
	if ok {
		delete(r.seqAtDown, id)
	}
	return seq, ok
}

// noteWritten records names written through the router while any breaker is
// open; the down shard misses these writes, and a delta repair replays
// exactly this set. A one-home tier never routes around a down shard, so no
// write misses it and nothing is noted. Over-noting is harmless — an
// unneeded name costs one idempotent Merge — so the write paths call this
// before their fan-out, whether or not the down shard is in the target set.
// The notes share delMu (and the clear points) with the deletion notes.
func (r *Router) noteWritten(names ...string) {
	if r.rep <= 1 || !r.health.anyDown() {
		return
	}
	r.delMu.Lock()
	if r.wroteDuringOutage == nil {
		r.wroteDuringOutage = make(map[string]bool)
	}
	for _, name := range names {
		r.wroteDuringOutage[name] = true
	}
	r.delMu.Unlock()
}

// deltaEligible decides whether the returning shard can be repaired by
// replaying the outage delta instead of the full re-sync sweep. Every
// condition is a soundness requirement, not a heuristic: the shard must
// have recorded a durable mark when it went down and report at least that
// mark now (anything lower means log suffix was lost); no force-noted
// deletion may be outstanding (a replica holds a stale copy the notes no
// longer bound to this outage); and no membership sweep may be reshuffling
// entries concurrently (sweeping == 1 is the recovery's own flag) — the
// delta says nothing about entries whose home set is changing under it.
func (r *Router) deltaEligible(id cloud.SiteID, seqDown uint64) bool {
	if r.staleNotes.Load() || r.sweeping.Load() != 1 {
		return false
	}
	r.mu.RLock()
	api := r.shards[id]
	r.mu.RUnlock()
	rec, ok := api.(Recoverable)
	if !ok {
		return false
	}
	seqUp, ok := rec.DurableSeq()
	return ok && seqUp >= seqDown
}

// spawnDeltaRepair runs the delta repair asynchronously under the sweep
// flag the recovery already raised, retrying transient failures like
// spawnSweep does; if the retry budget runs out the full sweep takes over —
// the shard must not re-enter service half-repaired.
func (r *Router) spawnDeltaRepair(victim cloud.SiteID) {
	r.sweeps.Add(1)
	go func() {
		defer r.sweeps.Done()
		defer r.sweepEnd()
		for attempt := 0; ; attempt++ {
			err := r.deltaRepair(context.Background(), victim)
			if err == nil {
				r.obs.deltas.Inc()
				return
			}
			if attempt >= sweepRetries {
				// The delta could not be applied; fall back to the full
				// reconciliation sweep (it raises its own flag, released by
				// spawnSweep; ours releases via the deferred sweepEnd).
				r.obs.sweepFails.Inc()
				r.sweepBegin()
				r.spawnSweep()
				return
			}
			time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
		}
	}()
}

// deltaRepair replays the outage delta onto the returning shard. It is
// idempotent — every step is a Merge or DeleteMany — so a retried or even
// doubly-run repair converges to the same state.
func (r *Router) deltaRepair(ctx context.Context, victim cloud.SiteID) error {
	r.mu.RLock()
	vapi, ok := r.shards[victim]
	r.mu.RUnlock()
	if !ok {
		return nil // detached while recovering; nothing to repair
	}

	r.delMu.Lock()
	written := make([]string, 0, len(r.wroteDuringOutage))
	for name := range r.wroteDuringOutage {
		written = append(written, name)
	}
	deleted := make([]string, 0, len(r.deletedDuringSweep))
	for name := range r.deletedDuringSweep {
		deleted = append(deleted, name)
	}
	r.delMu.Unlock()

	var errs []error

	// 1. Deletions the recovered state predates: apply them first, so the
	// shard cannot serve (and no later step can trip over) a copy deleted
	// during the outage.
	if len(deleted) > 0 {
		if _, err := vapi.DeleteMany(ctx, deleted); err != nil {
			r.report(victim, err)
			errs = append(errs, fmt.Errorf("deleting outage deletions on shard %d: %w", victim, err))
		}
	}

	// 2. Writes the shard missed: for every noted name homed on the victim
	// under the current placement, fetch the entry from a healthy replica
	// and merge it in — grouped into one GetMany per source shard and one
	// Merge per batch. Names without a standing copy elsewhere (deleted
	// since) are skipped by the note check.
	bySource := make(map[cloud.SiteID][]string)
	sources := make(map[cloud.SiteID]API)
	for _, name := range written {
		if r.hasDeletionNote(name) {
			continue
		}
		refs, err := r.replicaSet(name)
		if err != nil {
			continue // no healthy home: the full-sweep backstop handles it
		}
		homed := false
		var src *shardRef
		for i := range refs {
			if refs[i].id == victim {
				homed = true
			} else if src == nil {
				src = &refs[i]
			}
		}
		if !homed || src == nil {
			continue
		}
		bySource[src.id] = append(bySource[src.id], name)
		sources[src.id] = src.api
	}
	repaired := 0
	for sid, names := range bySource {
		entries, err := sources[sid].GetMany(ctx, names)
		r.report(sid, err)
		if err != nil {
			errs = append(errs, fmt.Errorf("reading outage writes from shard %d: %w", sid, err))
			continue
		}
		if len(entries) == 0 {
			continue
		}
		n, err := vapi.Merge(ctx, entries)
		r.report(victim, err)
		if err != nil {
			errs = append(errs, fmt.Errorf("merging outage writes into shard %d: %w", victim, err))
			continue
		}
		repaired += n
		// Post-merge re-check, exactly like sweepShard: a delete that raced
		// the merge noted itself before touching any shard, so it is visible
		// here and the resurrection is undone.
		if undo := r.deletedSince(entryNames(entries)); len(undo) > 0 {
			if _, err := vapi.DeleteMany(ctx, undo); err != nil {
				errs = append(errs, fmt.Errorf("undoing resurrected deletions on shard %d: %w", victim, err))
			}
		}
	}

	// 3. Substitute cleanup: while the victim was down, its keys' writes
	// landed on the next healthy successors; those copies are now off-home.
	// Purge every noted name from shards outside its current home set (a
	// DeleteMany of absent names is a cheap no-op, so the per-shard batches
	// are built from home-set membership alone).
	if len(written) > 0 && len(errs) == 0 {
		type purgeBatch struct {
			api   API
			names []string
		}
		offHome := make(map[cloud.SiteID]*purgeBatch)
		r.mu.RLock()
		for _, name := range written {
			homes := make(map[cloud.SiteID]bool, r.rep)
			for _, id := range r.replicaIDsLocked(name) {
				homes[id] = true
			}
			for id, api := range r.shards {
				if homes[id] {
					continue
				}
				g := offHome[id]
				if g == nil {
					g = &purgeBatch{api: api}
					offHome[id] = g
				}
				g.names = append(g.names, name)
			}
		}
		r.mu.RUnlock()
		for id, g := range offHome {
			if _, err := g.api.DeleteMany(ctx, g.names); err != nil {
				r.report(id, err) // best-effort hygiene; the next sweep converges
			}
		}
	}

	if repaired > 0 {
		r.obs.repaired.Add(int64(repaired))
	}
	return errors.Join(errs...)
}
