// Package readcache implements the feed-coherent near cache of the read
// path: a bounded, sharded LRU that wraps any registry.API — an in-process
// *registry.Instance, a *registry.Router over shards, or an *rpc.Client
// proxy — and answers repeated Gets locally instead of paying the wire (or
// the modelled cache-tier service time) again.
//
// # Coherence
//
// The cache stays coherent by consuming the change-feed layer (internal/feed)
// through a feed.Combiner: every put/delete event invalidates the key's
// entry (an event carries the entry as submitted, before the store assigned
// its version, so its payload is never served). Negative entries cache
// repeated not-founds and are purged by the same events.
//
// The hard race — a fill racing an invalidation — is resolved with sequence
// fencing. The cache keeps a global fence counter, bumped on every feed
// event, write-through invalidation and flush. A fill records the fence
// before it calls the origin and installs its result only if no newer fence
// has touched the key (and none could have been forgotten: evictions and
// flushes raise a per-shard floor that rejects any fill older than the
// evicted fence). A fill that started before an invalidation therefore can
// never overwrite it, no matter how the goroutines interleave.
//
// # Staleness contract
//
// With a feed attached, a cached entry can be stale only within the feed
// delivery window: the time between a commit at the origin and the event's
// arrival at the combiner. The moment that window is not intact — a stream
// ends with feed.ErrLagged, a cursor falls out of the retained window
// (feed.ErrCompacted), a shard restarts, the transport drops — the combiner's
// stream-state callback fires, the cache flushes, and every read serves
// through to the origin until the source resubscribes. Without a feed the
// cache falls back to a max-staleness TTL (Options.MaxStaleness, default
// DefaultMaxStaleness), so no entry can outlive the configured bound either
// way.
package readcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// DefaultCapacity bounds the cache when Options.Capacity is zero.
const DefaultCapacity = 4096

// DefaultShards is the lock-shard count when Options.Shards is zero.
const DefaultShards = 16

// DefaultMaxStaleness is the TTL applied when no feed is attached and
// Options.MaxStaleness is zero: without push invalidation the TTL is the
// only staleness bound, so "unbounded" is not a permissible default.
const DefaultMaxStaleness = time.Second

// Options parameterizes a Cache.
type Options struct {
	// Capacity bounds the number of cached entries (positive, negative and
	// invalidation tombstones together); 0 means DefaultCapacity.
	Capacity int
	// Shards is the number of lock shards; 0 means DefaultShards.
	Shards int
	// MaxStaleness bounds how long an entry may be served without
	// confirmation. With a feed attached 0 disables the TTL (the feed is the
	// bound); without one 0 selects DefaultMaxStaleness. Negative disables
	// the TTL unconditionally (tests only).
	MaxStaleness time.Duration
	// Metrics receives readcache_{hits,misses,invalidations,evictions,
	// flushes}_total and the readcache_entries occupancy gauge; nil keeps
	// the series on a private registry (Stats still works).
	Metrics *metrics.Registry
	// Now is the clock used for the staleness TTL; nil means time.Now.
	Now func() time.Time
}

// entryKind discriminates what a cached slot holds.
type entryKind uint8

const (
	// kindPositive holds a live registry entry.
	kindPositive entryKind = iota
	// kindNegative remembers a confirmed not-found.
	kindNegative
	// kindTombstone remembers an invalidation whose fence must keep
	// rejecting older fills; it never answers a Get.
	kindTombstone
)

// centry is one cached slot.
type centry struct {
	name   string
	kind   entryKind
	entry  registry.Entry
	fence  uint64
	stored time.Time
	elem   *list.Element
}

// cshard is one lock shard of the LRU.
type cshard struct {
	mu sync.Mutex
	// entries maps name -> slot; ll orders slots most-recently-used first.
	entries map[string]*centry
	ll      *list.List
	// floor rejects fills older than any fence this shard may have
	// forgotten: it rises to the evicted slot's fence on eviction and to the
	// flush fence on flush, so discarding a tombstone never reopens the race
	// it was fencing.
	floor uint64
}

// Cache is a feed-coherent near cache over a registry.API. It implements
// registry.API itself, so it can be dropped in front of any deployment
// without the caller noticing. All methods are safe for concurrent use.
type Cache struct {
	origin registry.API
	opts   Options
	now    func() time.Time

	// fence is the global coherence counter (see the package comment).
	fence  atomic.Uint64
	shards []*cshard
	// perShard is each shard's slice of the capacity.
	perShard int

	// disconnected counts feed sources whose stream is currently down; while
	// it is non-zero every read serves through and no fill installs.
	disconnected atomic.Int64
	// feedAttached reports whether AttachFeed has run (it decides the TTL
	// default and the initial disconnected count).
	feedAttached atomic.Bool

	combiner *feed.Combiner
	cancel   context.CancelFunc

	closeOnce sync.Once

	obs cacheObs
}

// cacheObs is the instrument set backing both the exported series and
// Stats().
type cacheObs struct {
	hits          *metrics.Counter // readcache_hits_total
	misses        *metrics.Counter // readcache_misses_total
	invalidations *metrics.Counter // readcache_invalidations_total
	evictions     *metrics.Counter // readcache_evictions_total
	flushes       *metrics.Counter // readcache_flushes_total
	entries       *metrics.Gauge   // readcache_entries
}

// New wraps origin in a near cache. Until AttachFeed is called the cache is
// TTL-bounded only (see Options.MaxStaleness).
func New(origin registry.API, opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.Shards > opts.Capacity {
		opts.Shards = opts.Capacity
	}
	c := &Cache{origin: origin, opts: opts, now: opts.Now}
	if c.now == nil {
		c.now = time.Now
	}
	c.shards = make([]*cshard, opts.Shards)
	for i := range c.shards {
		c.shards[i] = &cshard{entries: make(map[string]*centry), ll: list.New()}
	}
	c.perShard = (opts.Capacity + opts.Shards - 1) / opts.Shards
	if opts.Metrics == nil {
		// Stats() reads the instrument set back, so the cache always keeps
		// one — a private registry when the caller wired none.
		opts.Metrics = metrics.NewRegistry()
	}
	c.obs = cacheObs{
		hits:          opts.Metrics.Counter("readcache_hits_total"),
		misses:        opts.Metrics.Counter("readcache_misses_total"),
		invalidations: opts.Metrics.Counter("readcache_invalidations_total"),
		evictions:     opts.Metrics.Counter("readcache_evictions_total"),
		flushes:       opts.Metrics.Counter("readcache_flushes_total"),
		entries:       opts.Metrics.Gauge("readcache_entries"),
	}
	return c
}

// Cache implements registry.API.
var _ registry.API = (*Cache)(nil)

// AttachFeed subscribes the cache to the origin's change feed: one
// feed.Combiner over the given sources keeps it coherent until ctx is
// cancelled or Close is called. The cache starts in the serving-through
// state (every source counts as disconnected) and begins filling once each
// source's first subscribe succeeds, so nothing is cached ahead of
// coherence. Extra combiner options (backoff, metrics) pass through;
// AttachFeed installs its own stream-state callback and must be called at
// most once.
func (c *Cache) AttachFeed(ctx context.Context, sources []feed.Source, copts ...feed.CombinerOption) {
	if len(sources) == 0 {
		return
	}
	c.feedAttached.Store(true)
	c.disconnected.Store(int64(len(sources)))
	copts = append(copts, feed.WithStreamStateFunc(func(_ string, connected bool) {
		if connected {
			c.disconnected.Add(-1)
			return
		}
		c.disconnected.Add(1)
		// Events published while the stream is down are never delivered;
		// everything cached so far is of unknown coherence.
		c.Flush()
	}))
	c.combiner = feed.NewCombiner(sources, copts...)
	ctx, c.cancel = context.WithCancel(ctx)
	c.combiner.Start(ctx)
	go c.consume()
}

// consume folds combiner events into the cache until the feed closes: a put
// or a delete alike invalidates the key (positive or negative entry).
func (c *Cache) consume() {
	for ev := range c.combiner.Events() {
		c.invalidate(ev.Event.Name)
	}
	// The feed ended for good (Close, or the attach context's
	// cancellation): back to TTL-only coherence, nothing cached may
	// survive it.
	c.disconnected.Add(1)
	c.Flush()
}

// invalidate fences the key against any in-flight fill and forgets its
// entry. The tombstone left behind holds the fence; if the LRU later evicts
// it, the shard floor inherits it.
func (c *Cache) invalidate(name string) {
	c.install(name, kindTombstone, registry.Entry{}, c.fence.Add(1))
	c.obs.invalidations.Inc()
}

// Flush empties the cache and fences every in-flight fill: fills that
// started before the flush cannot install afterwards.
func (c *Cache) Flush() {
	f := c.fence.Add(1)
	for _, sh := range c.shards {
		sh.mu.Lock()
		if n := len(sh.entries); n > 0 {
			c.obs.entries.Add(-int64(n))
		}
		sh.entries = make(map[string]*centry)
		sh.ll.Init()
		if sh.floor < f {
			sh.floor = f
		}
		sh.mu.Unlock()
	}
	c.obs.flushes.Inc()
}

// Close detaches the feed subscription (if any). The cache keeps serving —
// through to the origin, with TTL-bounded caching — after Close; the origin
// itself is not closed.
func (c *Cache) Close() error {
	c.closeOnce.Do(func() {
		if c.cancel != nil {
			c.cancel()
		}
		if c.combiner != nil {
			c.combiner.Close()
		}
	})
	return nil
}

// serveThrough reports whether reads must bypass the cache right now: a feed
// stream is down (or has ended), so served entries could not be invalidated.
func (c *Cache) serveThrough() bool {
	return c.feedAttached.Load() && c.disconnected.Load() > 0
}

// maxStaleness resolves the effective TTL for the current mode.
func (c *Cache) maxStaleness() time.Duration {
	switch {
	case c.opts.MaxStaleness > 0:
		return c.opts.MaxStaleness
	case c.opts.MaxStaleness < 0:
		return 0
	case c.feedAttached.Load():
		return 0 // the feed is the staleness bound
	default:
		return DefaultMaxStaleness
	}
}

// shardFor returns the lock shard owning the key.
func (c *Cache) shardFor(name string) *cshard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return c.shards[int(h)%len(c.shards)]
}

// lookup returns the cached slot for the key, treating tombstones and
// TTL-expired slots as misses. ok distinguishes "answer available" from
// "must fill".
func (c *Cache) lookup(name string) (registry.Entry, bool, bool) {
	sh := c.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ce, found := sh.entries[name]
	if !found || ce.kind == kindTombstone {
		return registry.Entry{}, false, false
	}
	if ttl := c.maxStaleness(); ttl > 0 && c.now().Sub(ce.stored) > ttl {
		sh.remove(ce)
		c.obs.entries.Add(-1)
		c.obs.evictions.Inc()
		return registry.Entry{}, false, false
	}
	sh.ll.MoveToFront(ce.elem)
	return ce.entry, ce.kind == kindNegative, true
}

// install stores (or refreshes) a slot under the fencing protocol: the write
// is dropped when the shard floor or the key's existing fence is newer than
// the caller's. Invalidations pass a fresh fence (always newest); fills pass
// the fence they recorded before calling the origin.
func (c *Cache) install(name string, kind entryKind, e registry.Entry, fence uint64) {
	sh := c.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fence < sh.floor {
		return
	}
	if ce, found := sh.entries[name]; found {
		if fence < ce.fence {
			return
		}
		ce.kind, ce.entry, ce.fence, ce.stored = kind, e, fence, c.now()
		sh.ll.MoveToFront(ce.elem)
		return
	}
	ce := &centry{name: name, kind: kind, entry: e, fence: fence, stored: c.now()}
	ce.elem = sh.ll.PushFront(ce)
	sh.entries[name] = ce
	c.obs.entries.Add(1)
	for len(sh.entries) > c.perShard {
		oldest := sh.ll.Back()
		if oldest == nil {
			break
		}
		victim := oldest.Value.(*centry)
		// The evicted fence moves into the floor so a discarded tombstone
		// keeps rejecting fills older than it.
		if victim.fence > sh.floor {
			sh.floor = victim.fence
		}
		sh.remove(victim)
		c.obs.entries.Add(-1)
		c.obs.evictions.Inc()
	}
}

// remove unlinks a slot; the caller holds the shard lock.
func (sh *cshard) remove(ce *centry) {
	sh.ll.Remove(ce.elem)
	delete(sh.entries, ce.name)
}

// CachedLen reports the number of cached slots (tombstones included); it is
// the occupancy the readcache_entries gauge tracks.
func (c *Cache) CachedLen() int {
	total := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}

// Stats is a point-in-time summary of the cache's effectiveness.
type Stats struct {
	Hits, Misses, Invalidations, Evictions, Flushes int64
	Entries                                         int
}

// Stats reads the instrument set back.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.obs.hits.Value(),
		Misses:        c.obs.misses.Value(),
		Invalidations: c.obs.invalidations.Value(),
		Evictions:     c.obs.evictions.Value(),
		Flushes:       c.obs.flushes.Value(),
		Entries:       c.CachedLen(),
	}
}

// --- registry.API: reads ---

// Site implements registry.API.
func (c *Cache) Site() cloud.SiteID { return c.origin.Site() }

// Get implements registry.API: a cached positive entry (or remembered
// not-found) answers locally; anything else fills from the origin under the
// fencing protocol.
func (c *Cache) Get(ctx context.Context, name string) (registry.Entry, error) {
	if !c.serveThrough() {
		if e, neg, ok := c.lookup(name); ok {
			c.obs.hits.Inc()
			if neg {
				return registry.Entry{}, &notFoundError{name: name}
			}
			return e, nil
		}
	}
	c.obs.misses.Inc()
	start := c.fence.Load()
	e, err := c.origin.Get(ctx, name)
	switch {
	case err == nil:
		c.fill(name, kindPositive, e, start)
		return e, nil
	case errors.Is(err, registry.ErrNotFound):
		c.fill(name, kindNegative, registry.Entry{}, start)
		return registry.Entry{}, err
	default:
		// Transport/deadline failures say nothing about the key.
		return registry.Entry{}, err
	}
}

// fill installs a fetch result unless the cache is serving through (the
// answer was coherent when fetched, but no event can invalidate it later).
func (c *Cache) fill(name string, kind entryKind, e registry.Entry, fence uint64) {
	if c.serveThrough() {
		return
	}
	c.install(name, kind, e, fence)
}

// notFoundError is the cache's locally served not-found: it matches
// registry.ErrNotFound under errors.Is like an origin answer would.
type notFoundError struct{ name string }

func (e *notFoundError) Error() string { return "readcache: " + e.name + ": entry not found" }
func (e *notFoundError) Unwrap() error { return registry.ErrNotFound }

// GetMany implements registry.API: cached names answer locally, the rest
// fetch from the origin in one bulk call, filling positives and negatives
// under the fencing protocol. Results keep the input order of the names
// that resolved.
func (c *Cache) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	if c.serveThrough() {
		return c.origin.GetMany(ctx, names)
	}
	out := make([]registry.Entry, 0, len(names))
	// missIdx[i] is the position in out reserved for the i-th missing name;
	// -1 marks a cached negative (skipped like an origin "absent").
	var missing []string
	var missIdx []int
	for _, name := range names {
		if e, neg, ok := c.lookup(name); ok {
			c.obs.hits.Inc()
			if !neg {
				out = append(out, e)
			}
			continue
		}
		c.obs.misses.Inc()
		missing = append(missing, name)
		missIdx = append(missIdx, len(out))
		out = append(out, registry.Entry{}) // placeholder
	}
	if len(missing) == 0 {
		return out, nil
	}
	start := c.fence.Load()
	fetched, err := c.origin.GetMany(ctx, missing)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]registry.Entry, len(fetched))
	for _, e := range fetched {
		byName[e.Name] = e
	}
	// Walk the placeholders back-to-front so removals keep earlier indexes
	// stable.
	for i := len(missing) - 1; i >= 0; i-- {
		name := missing[i]
		if e, ok := byName[name]; ok {
			out[missIdx[i]] = e
			c.fill(name, kindPositive, e, start)
			continue
		}
		c.fill(name, kindNegative, registry.Entry{}, start)
		out = append(out[:missIdx[i]], out[missIdx[i]+1:]...)
	}
	return out, nil
}

// Names implements registry.API (pass-through: the full listing is not worth
// caching and has no per-key coherence).
func (c *Cache) Names(ctx context.Context) []string { return c.origin.Names(ctx) }

// Entries implements registry.API (pass-through).
func (c *Cache) Entries(ctx context.Context) ([]registry.Entry, error) {
	return c.origin.Entries(ctx)
}

// Len implements registry.API (pass-through).
func (c *Cache) Len(ctx context.Context) int { return c.origin.Len(ctx) }

// --- registry.API: writes (write-through with invalidation) ---
//
// Every mutation passes through to the origin and then invalidates the keys
// it touched, whether it succeeded or not: a failed call (deadline, transport
// loss) may still have committed server-side, so the only safe cache state
// afterwards is "unknown". Invalidating after the origin returns — never
// before — pairs with fill fencing: a concurrent fill that read the
// pre-write value recorded a fence older than the invalidation and cannot
// install over it, which is what makes read-your-writes hold on a single
// client.

// Create implements registry.API.
func (c *Cache) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	out, err := c.origin.Create(ctx, e)
	c.invalidate(e.Name)
	return out, err
}

// Put implements registry.API.
func (c *Cache) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	out, err := c.origin.Put(ctx, e)
	c.invalidate(e.Name)
	return out, err
}

// AddLocation implements registry.API.
func (c *Cache) AddLocation(ctx context.Context, name string, loc registry.Location) (registry.Entry, error) {
	out, err := c.origin.AddLocation(ctx, name, loc)
	c.invalidate(name)
	return out, err
}

// Delete implements registry.API.
func (c *Cache) Delete(ctx context.Context, name string) error {
	err := c.origin.Delete(ctx, name)
	c.invalidate(name)
	return err
}

// PutMany implements registry.API.
func (c *Cache) PutMany(ctx context.Context, entries []registry.Entry) ([]registry.Entry, error) {
	out, err := c.origin.PutMany(ctx, entries)
	for _, e := range entries {
		c.invalidate(e.Name)
	}
	return out, err
}

// DeleteMany implements registry.API.
func (c *Cache) DeleteMany(ctx context.Context, names []string) (int, error) {
	n, err := c.origin.DeleteMany(ctx, names)
	for _, name := range names {
		c.invalidate(name)
	}
	return n, err
}

// Merge implements registry.API.
func (c *Cache) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	n, err := c.origin.Merge(ctx, entries)
	for _, e := range entries {
		c.invalidate(e.Name)
	}
	return n, err
}

// --- change-feed forwarding ---
//
// The cache forwards the origin's feed surface, so wrapping a deployment in
// a near cache does not hide its change feed from other consumers (the sync
// agents, watch servers and workflow wake-ups keep working unchanged).

// Cache forwards registry.ChangeFeeder when the origin implements it.
var _ registry.ChangeFeeder = (*Cache)(nil)

// ChangeFeed returns the origin's feed log, nil when the origin exposes
// none.
func (c *Cache) ChangeFeed() *feed.Log {
	if feeder, ok := c.origin.(registry.ChangeFeeder); ok {
		return feeder.ChangeFeed()
	}
	return nil
}

// FeedSnapshot forwards to the origin's snapshot fallback.
func (c *Cache) FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error) {
	if feeder, ok := c.origin.(registry.ChangeFeeder); ok {
		return feeder.FeedSnapshot(ctx)
	}
	return nil, 0, errors.New("readcache: origin exposes no change feed")
}

// FeedBarrier forwards to the origin's barrier.
func (c *Cache) FeedBarrier(ctx context.Context) (uint64, error) {
	if feeder, ok := c.origin.(registry.ChangeFeeder); ok {
		return feeder.FeedBarrier(ctx)
	}
	return 0, errors.New("readcache: origin exposes no change feed")
}
