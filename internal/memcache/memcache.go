// Package memcache implements the per-site in-memory cache service that the
// metadata registry is built on.
//
// The paper deploys one instance of Azure Managed Cache per datacenter and
// stores every registry entry in it, relying on two of its properties:
//
//   - all data is kept in memory (no disk I/O on the metadata path),
//   - optimistic concurrency: writers do not lock entries, they publish a new
//     version and conflicting writers retry (workflow data is written once, so
//     conflicts are rare).
//
// The managed cache's third property, a primary/replica pair for high
// availability, is not modelled here: the registry tier above replicates
// (registry.Router R-way placement) and persists (internal/store) instead.
//
// This package reproduces those properties with a sharded, versioned,
// in-memory key-value store. It also models the *capacity* of a managed cache
// instance — a bounded number of concurrent server-side operations, each with
// a small service time — because that bound is what makes a single
// centralized registry saturate under concurrency and produces the scaling
// behaviour of Figs. 5, 7 and 8.
package memcache

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/metrics"
)

// Common errors returned by cache operations.
var (
	// ErrNotFound is returned by Get/CAS/Delete when the key does not exist.
	ErrNotFound = errors.New("memcache: key not found")
	// ErrVersionConflict is returned by CAS when the stored version differs
	// from the expected one (optimistic-concurrency failure).
	ErrVersionConflict = errors.New("memcache: version conflict")
	// ErrStopped is returned once the cache has been stopped.
	ErrStopped = errors.New("memcache: cache stopped")
	// ErrCapacity is returned when the item would exceed the configured
	// maximum number of entries.
	ErrCapacity = errors.New("memcache: capacity exceeded")
)

// Item is one versioned value stored in the cache.
type Item struct {
	// Key is the unique identifier of the item.
	Key string
	// Value is the opaque payload (typically an encoded registry entry,
	// registry.AppendEntry).
	Value []byte
	// Version is a monotonically increasing per-key version number starting
	// at 1 for the first Put; CAS uses it for optimistic concurrency.
	Version uint64
	// Expires is the absolute expiration time; the zero time means no TTL.
	Expires time.Time
}

// Expired reports whether the item has passed its TTL at time now.
func (it Item) Expired(now time.Time) bool {
	return !it.Expires.IsZero() && now.After(it.Expires)
}

// Config parameterizes a cache instance.
type Config struct {
	// Shards is the number of lock shards; 0 selects a sensible default.
	Shards int
	// MaxItems bounds the number of live entries across all shards;
	// 0 means unlimited.
	MaxItems int
	// ServiceTime is the simulated per-operation server-side processing time
	// (Azure Managed Cache Basic instances serve a few thousand ops/s).
	// 0 disables service-time modelling.
	ServiceTime time.Duration
	// Concurrency bounds the number of operations the instance serves at the
	// same time (the worker pool of the managed service). 0 means unbounded.
	Concurrency int
	// DefaultTTL is applied to items stored without an explicit TTL;
	// 0 means entries never expire.
	DefaultTTL time.Duration
	// BatchFactor is the amortization factor of bulk operations: a batch of n
	// items costs one slot acquisition plus ServiceTime * (1 + n/BatchFactor)
	// of processing, modelling the server-side efficiency of bulk get/put
	// (0 selects the default of 16).
	BatchFactor int
	// Sleep is the function used to model the service time; tests replace it.
	// nil means time.Sleep.
	Sleep func(time.Duration)
	// Now is the clock used for TTL handling; nil means time.Now.
	Now func() time.Time
	// Metrics, when non-nil, receives live instrumentation: hit/miss/get
	// counters, the occupancy gauge and the worker-slot wait histogram.
	// Instances sharing one registry aggregate into shared series.
	Metrics *metrics.Registry
}

const defaultShards = 16

// defaultBatchFactor is the bulk-operation amortization used when
// Config.BatchFactor is zero.
const defaultBatchFactor = 16

// Stats aggregates operation counters of one cache instance.
type Stats struct {
	Gets, Hits, Misses   uint64
	Puts, CASes, Deletes uint64
	Conflicts            uint64
	Evictions            uint64
	Items                int
	Bytes                int64
}

// Cache is a sharded in-memory key-value store with versioned items and a
// bounded service capacity. It is safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []*shard
	// slots implements the bounded server-side concurrency.
	slots chan struct{}

	stopped atomic.Bool

	gets, hits, misses   atomic.Uint64
	puts, cases, deletes atomic.Uint64
	conflicts, evictions atomic.Uint64
	bytes                atomic.Int64
	items                atomic.Int64

	obs cacheObs
}

// cacheObs mirrors the cache's counters into a metrics.Registry so they can
// be scraped live. All fields tolerate being nil (instrumentation disabled);
// occupancy is maintained as deltas so caches sharing a registry aggregate.
type cacheObs struct {
	gets     *metrics.Counter   // memcache_gets_total
	hits     *metrics.Counter   // memcache_hits_total
	misses   *metrics.Counter   // memcache_misses_total
	items    *metrics.Gauge     // memcache_items: live entries (occupancy)
	slotWait *metrics.Histogram // memcache_slot_wait_ns: time spent queueing for a worker slot
}

func newCacheObs(reg *metrics.Registry) cacheObs {
	return cacheObs{
		gets:     reg.Counter("memcache_gets_total"),
		hits:     reg.Counter("memcache_hits_total"),
		misses:   reg.Counter("memcache_misses_total"),
		items:    reg.Gauge("memcache_items"),
		slotWait: reg.Histogram("memcache_slot_wait_ns"),
	}
}

type shard struct {
	mu    sync.RWMutex
	items map[string]slot
}

// slot is what a shard keeps per key. The map already holds the key and the
// expiry needs no zone, so a resident entry costs 56 bytes of map slot
// where a whole Item would cost 88.
type slot struct {
	value   []byte
	version uint64
	// expires is the absolute expiry in Unix nanoseconds; 0 means no TTL.
	expires int64
}

// item rebuilds the Item callers see from key's slot.
func (s slot) item(key string) Item {
	it := Item{Key: key, Value: s.value, Version: s.version}
	if s.expires != 0 {
		it.Expires = time.Unix(0, s.expires)
	}
	return it
}

// expired reports whether the slot has passed its TTL at time now (Item.Expired
// on the stored form).
func (s slot) expired(now time.Time) bool {
	return s.expires != 0 && now.UnixNano() > s.expires
}

// New returns an empty cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.BatchFactor <= 0 {
		cfg.BatchFactor = defaultBatchFactor
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Cache{cfg: cfg, obs: newCacheObs(cfg.Metrics)}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{items: make(map[string]slot)}
	}
	if cfg.Concurrency > 0 {
		c.slots = make(chan struct{}, cfg.Concurrency)
	}
	return c
}

// Stop marks the cache as stopped; subsequent operations fail with
// ErrStopped. Stopping an already stopped cache is a no-op.
func (c *Cache) Stop() { c.stopped.Store(true) }

// Stopped reports whether Stop has been called.
func (c *Cache) Stopped() bool { return c.stopped.Load() }

// enter models the service capacity: it acquires a worker slot (possibly
// waiting behind other requests) and charges the per-operation service time.
func (c *Cache) enter() error {
	if c.stopped.Load() {
		return ErrStopped
	}
	if c.slots != nil {
		if c.obs.slotWait != nil {
			start := time.Now()
			c.slots <- struct{}{}
			c.obs.slotWait.ObserveDuration(time.Since(start))
		} else {
			c.slots <- struct{}{}
		}
	}
	return nil
}

// addItems tracks the live-entry count, mirroring it into the occupancy
// gauge when instrumentation is on.
func (c *Cache) addItems(delta int64) {
	c.items.Add(delta)
	c.obs.items.Add(delta)
}

// countGet / countHit / countMiss keep the cache's own statistics and the
// exported live series in lockstep.
func (c *Cache) countGet()  { c.gets.Add(1); c.obs.gets.Inc() }
func (c *Cache) countHit()  { c.hits.Add(1); c.obs.hits.Inc() }
func (c *Cache) countMiss() { c.misses.Add(1); c.obs.misses.Inc() }

func (c *Cache) leave() {
	if c.cfg.ServiceTime > 0 {
		c.cfg.Sleep(c.cfg.ServiceTime)
	}
	if c.slots != nil {
		<-c.slots
	}
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// Get returns the item stored under key. It returns ErrNotFound when the key
// is absent or its TTL has expired.
func (c *Cache) Get(key string) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	defer c.leave()
	c.countGet()

	sh := c.shardFor(key)
	sh.mu.RLock()
	s, ok := sh.items[key]
	sh.mu.RUnlock()
	if !ok || s.expired(c.cfg.Now()) {
		if ok {
			c.removeExpired(key, s.version)
		}
		c.countMiss()
		return Item{}, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	c.countHit()
	return s.item(key), nil
}

// Contains reports whether key is present (and unexpired) without counting as
// a Get in the statistics. Like Keys and Snapshot it bypasses the modelled
// service capacity (no worker slot, no service time) and works on a stopped
// cache — it is a control-plane probe, not a data-plane read.
func (c *Cache) Contains(key string) bool {
	sh := c.shardFor(key)
	sh.mu.RLock()
	s, ok := sh.items[key]
	sh.mu.RUnlock()
	return ok && !s.expired(c.cfg.Now())
}

// Put stores value under key unconditionally, assigning the next version
// number. It returns the stored item.
func (c *Cache) Put(key string, value []byte, ttl time.Duration) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	defer c.leave()
	c.puts.Add(1)
	return c.store(key, value, ttl, nil)
}

// CAS stores value under key only if the currently stored version equals
// expectedVersion. Use expectedVersion == 0 to require that the key does not
// exist yet ("add" semantics). On mismatch it returns ErrVersionConflict and
// the conflicting stored item.
func (c *Cache) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	defer c.leave()
	c.cases.Add(1)
	return c.store(key, value, ttl, &expectedVersion)
}

func (c *Cache) store(key string, value []byte, ttl time.Duration, expected *uint64) (Item, error) {
	if ttl == 0 {
		ttl = c.cfg.DefaultTTL
	}
	now := c.cfg.Now()
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cur, exists := sh.items[key]
	if exists && cur.expired(now) {
		delete(sh.items, key)
		c.addItems(-1)
		c.bytes.Add(-int64(len(cur.value)))
		c.evictions.Add(1)
		exists = false
		cur = slot{}
	}
	if expected != nil && cur.version != *expected {
		c.conflicts.Add(1)
		var held Item
		if exists {
			held = cur.item(key)
		}
		return held, fmt.Errorf("cas %q: have version %d, want %d: %w", key, cur.version, *expected, ErrVersionConflict)
	}
	reserved := false
	if !exists && c.cfg.MaxItems > 0 {
		// Reserve the slot with the same atomic add that commits it: a
		// load-then-add would let two inserts on different shards (each under
		// its own shard lock) both pass the bound and overshoot MaxItems.
		if int(c.items.Add(1)) > c.cfg.MaxItems {
			c.items.Add(-1)
			return Item{}, fmt.Errorf("put %q: %w", key, ErrCapacity)
		}
		c.obs.items.Add(1)
		reserved = true
	}

	next := slot{value: append([]byte(nil), value...), version: cur.version + 1}
	if ttl > 0 {
		next.expires = now.Add(ttl).UnixNano()
	}
	if exists {
		c.bytes.Add(int64(len(value)) - int64(len(cur.value)))
	} else {
		if !reserved {
			c.addItems(1)
		}
		c.bytes.Add(int64(len(value)))
	}
	// The map keeps the key for as long as the entry lives, and the caller's
	// string may be a slice of something much larger (a decoded entry's Name
	// shares one buffer with its other strings), so the cache stores a copy
	// of its own — on an overwrite too, because assigning to an existing
	// string key makes the map adopt the new string.
	key = strings.Clone(key)
	sh.items[key] = next
	return next.item(key), nil
}

// Delete removes key from the cache. It returns ErrNotFound when absent.
func (c *Cache) Delete(key string) error {
	if err := c.enter(); err != nil {
		return err
	}
	defer c.leave()
	c.deletes.Add(1)

	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.items[key]
	if !ok {
		return fmt.Errorf("delete %q: %w", key, ErrNotFound)
	}
	delete(sh.items, key)
	c.addItems(-1)
	c.bytes.Add(-int64(len(s.value)))
	return nil
}

// removeExpired removes key if it is still at the given version; used by Get
// to lazily evict expired items.
func (c *Cache) removeExpired(key string, version uint64) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.items[key]; ok && s.version == version {
		delete(sh.items, key)
		c.addItems(-1)
		c.bytes.Add(-int64(len(s.value)))
		c.evictions.Add(1)
	}
}

// Keys returns all live (unexpired) keys in unspecified order. It bypasses
// the modelled service capacity and works on a stopped cache: it serves
// control-plane sweeps (re-sync, migration), not the measured data path.
func (c *Cache) Keys() []string {
	now := c.cfg.Now()
	var keys []string
	for _, sh := range c.shards {
		sh.mu.RLock()
		for k, s := range sh.items {
			if !s.expired(now) {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	return keys
}

// Snapshot returns a copy of every live item; the synchronization agent uses
// it to pull the full content of a registry instance. Like Keys it bypasses
// the modelled service capacity and works on a stopped cache.
func (c *Cache) Snapshot() []Item {
	now := c.cfg.Now()
	var items []Item
	for _, sh := range c.shards {
		sh.mu.RLock()
		for k, s := range sh.items {
			if !s.expired(now) {
				items = append(items, s.item(k))
			}
		}
		sh.mu.RUnlock()
	}
	return items
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return int(c.items.Load()) }

// Stats returns a snapshot of the operation counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Gets:      c.gets.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		CASes:     c.cases.Load(),
		Deletes:   c.deletes.Load(),
		Conflicts: c.conflicts.Load(),
		Evictions: c.evictions.Load(),
		Items:     int(c.items.Load()),
		Bytes:     c.bytes.Load(),
	}
}
