package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/store"
)

// This file wires the change-feed layer (internal/feed) into the registry.
//
// An Instance built with WithChangeFeed publishes every committed put and
// delete as a sequenced feed.Event. Durable instances tap the WAL itself —
// store.Durable invokes the sink under its mutation mutex, so feed order is
// exactly log order and the WAL sequence numbers double as resume tokens
// that survive restarts (the feed starts at the recovered sequence, so
// pre-restart cursors fall below the floor and trigger the snapshot
// fallback). Memory-only instances route mutations through a serializing
// tap that assigns its own consecutive sequence.
//
// A Router whose shards all expose feeds relays them into one combined,
// re-sequenced feed: per-shard order is preserved, events are tagged with
// their origin shard, and commit timestamps pass through so replication lag
// measured downstream spans the whole pipeline. Because migration sweeps
// move entries with ordinary Merge/DeleteMany calls on the shard stores, a
// membership change surfaces in the combined feed as put events at a key's
// new home shard followed by delete events at its old home — a watch keeps
// seeing the key across AddShard/RemoveShard instead of silently losing it
// (see TestRouterFeedAcrossRebalance for the rule).

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
	// before the call is published at or below, waiting if the feed has
	// asynchronous relay stages (a router's shard pumps) that have not
	// absorbed those commits yet. A consumer whose cursor reaches the
	// returned head has seen everything committed before the barrier.
	FeedBarrier(ctx context.Context) (uint64, error)
}

// Feed assertions.
var (
	_ ChangeFeeder = (*Instance)(nil)
	_ ChangeFeeder = (*Router)(nil)
)

// FeedSource adapts an in-process feeder into a feed.Combiner source:
// Subscribe tails its change feed from a cursor and Snapshot captures its
// current state for the cursor-too-old fallback. The feeder must expose a
// feed (ChangeFeed() != nil).
func FeedSource(name string, f ChangeFeeder) feed.Source {
	return feed.Source{
		Name: name,
		Subscribe: func(_ context.Context, from uint64) (feed.Stream, error) {
			return f.ChangeFeed().Subscribe(from)
		},
		Snapshot: f.FeedSnapshot,
	}
}

// WithChangeFeed gives the instance a change feed: every committed put and
// delete is published as a sequenced event on ChangeFeed(). Durable
// instances publish under the WAL's own sequence numbers; memory-only ones
// assign an in-memory sequence.
func WithChangeFeed(opts ...feed.LogOption) InstanceOption {
	return func(i *Instance) {
		i.wantFeed = true
		i.feedOpts = opts
	}
}

// finishFeed materializes the feed after every option has been applied (so
// it composes with WithStorage in either order). Called by the
// constructors, never concurrently.
func (i *Instance) finishFeed() {
	if !i.wantFeed || i.feedLog != nil {
		return
	}
	log := feed.NewLog(i.feedOpts...)
	if i.durable != nil {
		// The WAL assigns the sequence numbers; the feed starts at the
		// recovered high-water mark so cursors from before the restart are
		// correctly reported as compacted.
		log.StartAt(i.durable.Seq())
		i.durable.SetEventSink(func(seq uint64, op byte, key string, value []byte, sync bool) {
			ev := feed.Event{Seq: seq, Op: feed.OpPut, Name: key, Value: value, Sync: sync}
			if op == store.OpDelete {
				ev.Op = feed.OpDelete
				ev.Value = nil
			}
			log.Publish(ev)
		})
	} else {
		i.store = &tapStore{Store: i.store, log: log}
	}
	i.feedLog = log
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

// tapStore wraps a memory-only Store so that mutations are serialized and
// published to the feed with self-assigned sequence numbers — the in-memory
// equivalent of the WAL's mutation mutex. Reads pass through the embedded
// store and bypass the tap entirely.
type tapStore struct {
	Store
	mu  sync.Mutex
	log *feed.Log
}

func (t *tapStore) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	it, err := t.Store.Put(key, value, ttl)
	if err == nil {
		t.log.Append(feed.OpPut, key, value)
	}
	return it, err
}

func (t *tapStore) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	it, err := t.Store.CAS(key, value, ttl, expectedVersion)
	if err == nil {
		// A version conflict published nothing: only committed writes feed.
		t.log.Append(feed.OpPut, key, value)
	}
	return it, err
}

func (t *tapStore) Delete(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.Store.Delete(key)
	if err == nil {
		t.log.Append(feed.OpDelete, key, nil)
	}
	return err
}

func (t *tapStore) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	items, err := t.Store.PutBatch(kvs)
	if err == nil {
		for _, kv := range kvs {
			// The batch path is the bulk-apply side (Merge): mark the events
			// Sync so feed-driven replication agents recognize their own
			// applies coming back and do not re-broadcast them.
			t.log.Publish(feed.Event{Op: feed.OpPut, Name: kv.Key, Value: kv.Value, Sync: true})
		}
	}
	return items, err
}

func (t *tapStore) DeleteBatch(keys []string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Like the WAL sink, only deletes that change state publish events —
	// replication consumers re-applying a delete everywhere must quiesce,
	// not echo forever.
	existed := make([]bool, len(keys))
	for idx, k := range keys {
		existed[idx] = t.Store.Contains(k)
	}
	n, err := t.Store.DeleteBatch(keys)
	if err == nil {
		for idx, k := range keys {
			if existed[idx] {
				t.log.Publish(feed.Event{Op: feed.OpDelete, Name: k, Sync: true})
			}
		}
	}
	return n, err
}

// --- Router: the combined, re-sequenced relay feed over its shards. ---

// relayTap pumps one shard's feed into the router's relay log.
type relayTap struct {
	cancel context.CancelFunc
	comb   *feed.Combiner
	done   chan struct{}
	feeder ChangeFeeder
	// relayed is the last shard sequence published into the relay; the
	// router's FeedBarrier waits on it to know the asynchronous pump has
	// absorbed everything committed on the shard.
	relayed atomic.Uint64
}

// initRelay enables the router's combined feed when every initial shard
// exposes one. Called from NewRouter before the router is shared.
func (r *Router) initRelay(shards map[cloud.SiteID]API) {
	for _, api := range shards {
		f, ok := api.(ChangeFeeder)
		if !ok || f.ChangeFeed() == nil {
			return
		}
	}
	r.relay = feed.NewLog()
	r.taps = make(map[cloud.SiteID]*relayTap, len(shards))
	for id, api := range shards {
		r.startTap(id, api)
	}
}

// ChangeFeed returns the router's combined relay feed: every shard's events
// re-sequenced into one log, tagged with their origin shard and preserving
// commit timestamps. Nil when any shard lacks a feed.
func (r *Router) ChangeFeed() *feed.Log { return r.relay }

// FeedSnapshot implements ChangeFeeder for the tier: the union of the
// reachable shards' states (one event per name — with replication a key
// lives on R shards, the relay snapshot carries it once), plus the relay
// head captured first.
func (r *Router) FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error) {
	if r.relay == nil {
		return nil, 0, fmt.Errorf("registry: router for site %d has no change feed", r.site)
	}
	head := r.relay.Seq()
	seen := make(map[string]bool)
	var events []feed.Event
	for id, api := range r.reachableShards() {
		f, ok := api.(ChangeFeeder)
		if !ok {
			continue
		}
		shardEvents, _, err := f.FeedSnapshot(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("registry: snapshotting shard %d: %w", id, err)
		}
		for _, ev := range shardEvents {
			if seen[ev.Name] {
				continue
			}
			seen[ev.Name] = true
			ev.Seq = head
			ev.Origin = fmt.Sprintf("shard-%d", id)
			events = append(events, ev)
		}
	}
	return events, head, nil
}

// FeedBarrier implements ChangeFeeder for the tier. The shard→relay pumps
// are asynchronous, so the relay head alone can trail committed shard
// mutations; the barrier first waits for every pump to absorb its shard's
// current head, then returns the relay head.
func (r *Router) FeedBarrier(ctx context.Context) (uint64, error) {
	if r.relay == nil {
		return 0, fmt.Errorf("registry: router for site %d has no change feed", r.site)
	}
	r.tapMu.Lock()
	taps := make([]*relayTap, 0, len(r.taps))
	for _, tap := range r.taps {
		taps = append(taps, tap)
	}
	r.tapMu.Unlock()
	for _, tap := range taps {
		target := tap.feeder.ChangeFeed().Seq()
		for tap.relayed.Load() < target {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-tap.done:
				// Pump torn down (shard removed mid-barrier): whatever it
				// relayed is all the relay will ever carry from it.
				target = 0
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	return r.relay.Seq(), nil
}

// startTap launches the relay pump for one shard. The pump rides a
// single-source Combiner, so a shard that restarts (durable recovery) or
// drops the subscription is resubscribed automatically, falling back to a
// state snapshot when its cursor compacted away.
func (r *Router) startTap(id cloud.SiteID, api API) {
	feeder, ok := api.(ChangeFeeder)
	if !ok || r.relay == nil {
		return
	}
	label := fmt.Sprintf("shard-%d", id)
	comb := feed.NewCombiner([]feed.Source{FeedSource(label, feeder)})
	ctx, cancel := context.WithCancel(context.Background())
	comb.Start(ctx)
	tap := &relayTap{cancel: cancel, comb: comb, done: make(chan struct{}), feeder: feeder}
	go func() {
		defer close(tap.done)
		for ev := range comb.Events() {
			r.relay.Publish(feed.Event{
				Op:     ev.Op,
				Name:   ev.Name,
				Value:  ev.Value,
				Origin: label,
				Commit: ev.Commit,
				Sync:   ev.Sync,
			})
			tap.relayed.Store(ev.Seq)
		}
	}()
	r.tapMu.Lock()
	r.taps[id] = tap
	r.tapMu.Unlock()
}

// stopTap tears one shard's relay pump down, draining its pending events
// into the relay first. Idempotent.
func (r *Router) stopTap(id cloud.SiteID) {
	r.tapMu.Lock()
	tap := r.taps[id]
	delete(r.taps, id)
	r.tapMu.Unlock()
	if tap == nil {
		return
	}
	tap.cancel()
	tap.comb.Close()
	<-tap.done
}

// closeRelay stops every tap and closes the combined feed. Idempotent.
func (r *Router) closeRelay() {
	if r.relay == nil {
		return
	}
	r.tapMu.Lock()
	ids := make([]cloud.SiteID, 0, len(r.taps))
	for id := range r.taps {
		ids = append(ids, id)
	}
	r.tapMu.Unlock()
	for _, id := range ids {
		r.stopTap(id)
	}
	r.relay.Close()
}
