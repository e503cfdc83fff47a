package registry

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/metrics"
)

// This file wires the change-feed layer (internal/feed) into the registry.
//
// An Instance built with WithChangeFeed publishes every committed put and
// delete as a sequenced feed.Event, tapped where the cache applies it (the
// store's OnCommit): under the memcache shard's lock and, when durable, the
// store.Durable member's mutex, so a member's events follow its log and its
// covering syncs. Batch applies are marked Sync. The feed numbers events
// itself; a durable instance's starts at the member's last record (see
// feed.Log.StartAt).
//
// A Router whose shards all expose feeds relays them into one combined,
// re-sequenced feed: the relay is each shard log's observer (feed.Log.Observe)
// and republishes every event on the goroutine that commits it, so per-shard
// order is preserved and the relay never trails a shard. The relay holds the
// tier's one retained window: every shard log keeps numbering its events and
// calling its observer but retains none (feed.Log.RetainNone), since nothing
// reads a shard's window once the relay has one. Events are tagged
// with their origin shard, and commit timestamps and the Sync mark pass
// through so replication lag measured downstream spans the whole pipeline.
// Because re-sync sweeps repair shards with ordinary Merge/DeleteMany calls on
// the shard stores, a recovery surfaces in the combined feed as put events at
// the returning shard followed by delete events at the substitutes that
// covered for it. A near cache (readcache.Cache.AttachLog) and a served watch
// (feed.Log.Tail) observe the deployment's log the same way, one log holding
// any number of observers. Lock order: the WAL member's mutex, the memcache
// shard's, the shard's log, the relay's log, then either a readcache lock
// shard or a served watch's queue lock.

// ChangeFeeder is implemented by registry deployments that expose a change
// feed: *Instance (with WithChangeFeed) and *Router (when every shard
// feeds). The RPC server serves Watch frames from any API implementing it.
type ChangeFeeder interface {
	// ChangeFeed returns the live feed log, nil when feeds are disabled.
	ChangeFeed() *feed.Log
	// FeedSnapshot returns the current state as synthetic put events plus
	// the feed head sequence captured *before* reading the state, so
	// tailing from the returned head misses nothing. It backs the
	// cursor-too-old fallback of the watch protocol.
	FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error)
	// FeedBarrier returns a head sequence that every mutation committed
	// before the call is published at or below. A consumer whose cursor
	// reaches the returned head has seen everything committed before the
	// barrier. An instance and a router both publish as they commit, so for
	// them it is the feed's current head.
	FeedBarrier(ctx context.Context) (uint64, error)
}

// Feed assertions.
var (
	_ ChangeFeeder = (*Instance)(nil)
	_ ChangeFeeder = (*Router)(nil)
)

// WithChangeFeed gives the instance a change feed: every change its store
// applies is published as a sequenced event on ChangeFeed(), as the store
// applies it. A durable instance's feed starts at the member's last logged
// sequence number, so a cursor from before a restart that missed anything is
// reported as compacted.
func WithChangeFeed(opts ...feed.LogOption) InstanceOption {
	return func(i *Instance) {
		log := feed.NewLog(opts...)
		if i.durable != nil {
			log.StartAt(i.durable.Seq())
		}
		i.store.OnCommit(func(key string, value []byte, deleted, bulk bool) {
			op := feed.OpPut
			if deleted {
				op = feed.OpDelete
			}
			// Sync tells watchers a replication apply from a primary write.
			log.Publish(&feed.Event{Op: op, Name: key, Value: value, Sync: bulk})
		})
		i.feedLog, i.feedOpts = log, opts
	}
}

// ChangeFeed returns the instance's feed log, nil when WithChangeFeed was
// not used.
func (i *Instance) ChangeFeed() *feed.Log { return i.feedLog }

// FeedBarrier implements ChangeFeeder: an instance publishes synchronously
// with the commit, so the current head already covers everything committed.
func (i *Instance) FeedBarrier(ctx context.Context) (uint64, error) {
	if i.feedLog == nil {
		return 0, fmt.Errorf("registry: instance at site %d has no change feed", i.site)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return i.feedLog.Seq(), nil
}

// FeedSnapshot implements ChangeFeeder: the instance's current entries as
// put events, plus the feed head captured before the state was read. Events
// racing the snapshot may appear both in the state and in the tail — safe,
// because puts are idempotent upserts.
func (i *Instance) FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error) {
	if i.feedLog == nil {
		return nil, 0, fmt.Errorf("registry: instance at site %d has no change feed", i.site)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	head := i.feedLog.Seq()
	items := i.store.Snapshot()
	now := time.Now().UnixNano()
	events := make([]feed.Event, 0, len(items))
	for _, it := range items {
		events = append(events, feed.Event{Seq: head, Op: feed.OpPut, Name: it.Key, Value: it.Value, Commit: now})
	}
	return events, head, nil
}

// --- Router: the combined, re-sequenced relay feed over its shards. ---

// initRelay enables the router's combined feed when every shard exposes one:
// the relay observes each shard's log and republishes its events as they
// commit. The relay keeps the window an *Instance shard was given by
// WithChangeFeed, as the tier's only one: the shard logs then retain none.
// It reports the feed series to reg, the router's registry.
// Called from NewRouter before the router is shared.
func (r *Router) initRelay(reg *metrics.Registry) {
	for _, api := range r.shards {
		if f, ok := api.(ChangeFeeder); !ok || f.ChangeFeed() == nil {
			return
		}
	}
	var opts []feed.LogOption
	if inst, ok := r.shards[0].(*Instance); ok {
		opts = slices.Clip(inst.feedOpts)
	}
	r.relay = feed.NewLog(append(opts, feed.WithLogMetrics(reg))...)
	for i, api := range r.shards {
		log := api.(ChangeFeeder).ChangeFeed()
		if log.Floor() > 0 {
			// A shard recovered state whose events are gone: so are the
			// relay's, and a cursor of 0 takes the snapshot fallback, as it
			// does on a recovered instance.
			r.relay.StartAt(1)
		}
		origin := shardOrigin(cloud.SiteID(i))
		log.Observe(func(ev *feed.Event) {
			if ev != nil { // a shard log's close ends nothing downstream
				r.relay.Publish(&feed.Event{Op: ev.Op, Name: ev.Name, Value: ev.Value, Origin: origin, Commit: ev.Commit, Sync: ev.Sync})
			}
		})
		// The relay's window is the tier's: a shard's own would only be a
		// second copy of the same events that nothing reads.
		log.RetainNone()
	}
}

// shardOrigin is the Origin a tier's events carry for one of its shards.
func shardOrigin(id cloud.SiteID) string { return "shard-" + strconv.Itoa(int(id)) }

// ChangeFeed returns the router's combined relay feed: every shard's events
// re-sequenced into one log, tagged with their origin shard and preserving
// commit timestamps. Nil when any shard lacks a feed.
func (r *Router) ChangeFeed() *feed.Log { return r.relay }

// FeedSnapshot implements ChangeFeeder for the tier: the union of the
// reachable shards' states, plus the relay head captured first. With
// replication a name lives on R shards; the snapshot carries it once, from
// the first reachable shard by id that holds it, which the earlier shards'
// Contains decide, so no per-name set is built. The shards are read one at a
// time into one result slice; an *Instance shard's store is read directly.
// A name a shard gains or loses while the snapshot runs is published after
// the head, so snapshot plus tail still miss nothing.
func (r *Router) FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error) {
	if r.relay == nil {
		return nil, 0, fmt.Errorf("registry: router for site %d has no change feed", r.site)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	head := r.relay.Seq()
	shards := r.reachableShards()
	size := 0
	for _, ref := range shards {
		size += ref.api.Len(ctx)
	}
	events := make([]feed.Event, 0, size/max(1, min(r.rep, len(shards))))
	now := time.Now().UnixNano()
	for k, ref := range shards {
		earlier := shards[:k]
		first := func(name string) bool {
			return !slices.ContainsFunc(earlier, func(e shardRef) bool { return shardHolds(ctx, e.api, name) })
		}
		origin := shardOrigin(ref.id)
		if inst, ok := ref.api.(*Instance); ok {
			for _, it := range inst.store.Snapshot() {
				if first(it.Key) {
					events = append(events, feed.Event{Seq: head, Op: feed.OpPut, Name: it.Key, Value: it.Value, Origin: origin, Commit: now})
				}
			}
			continue
		}
		shardEvents, _, err := ref.api.(ChangeFeeder).FeedSnapshot(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("registry: snapshotting shard %d: %w", ref.id, err)
		}
		for _, ev := range shardEvents {
			if first(ev.Name) {
				ev.Seq, ev.Origin = head, origin
				events = append(events, ev)
			}
		}
	}
	return events, head, nil
}

// shardHolds reports whether a shard holds the name: its store's Contains
// for an *Instance, a successful Get for any other shard (one a test or a
// tracer wraps).
func shardHolds(ctx context.Context, api API, name string) bool {
	if inst, ok := api.(*Instance); ok {
		return inst.store.Contains(name)
	}
	_, err := api.Get(ctx, name)
	return err == nil
}

// FeedBarrier implements ChangeFeeder for the tier: shards publish into the
// relay as they commit, so the relay head already covers everything
// committed.
func (r *Router) FeedBarrier(ctx context.Context) (uint64, error) {
	if r.relay == nil {
		return 0, fmt.Errorf("registry: router for site %d has no change feed", r.site)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return r.relay.Seq(), nil
}
