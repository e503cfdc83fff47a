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
// in-memory key-value store, and nothing else: the managed cache's *capacity*,
// which the paper's experiments depend on, is modelled above it by
// core.CapacityStore.
//
// The paper keeps an entry small so that a site's registry holds a whole
// workflow's metadata in memory, and the store is built so that an entry
// costs about its bytes. Each shard is log-structured (shard.go): a record —
// lengths, version, key, value — is appended to a pointer-free page of up to
// 16 KiB, and found through an open-addressing index of 8-byte references,
// probed with one seeded hash per operation that also chooses the shard. Overwritten and deleted records stay
// dead in their page until it is more than half dead and no longer the head;
// its live records are then re-appended and the page dropped. Nothing is
// allocated per entry, and the collector has no pointers to follow.
//
// The aliasing rule: an Item's Value is a slice of its page with no spare
// capacity. Pages are never written again where they have been written, and
// never reused, so a value stays as it was read for as long as the caller
// keeps it, which also keeps its page (at most 16 KiB, or the one large
// value) from being collected. Callers must not write to it.
//
// One observer (OnCommit) sees every change as it is applied, under the lock
// of the shard that applies it: each stored value and each removal of a
// present key, in the key's apply order. The change feed is tapped there.
package memcache

import (
	"errors"
	"fmt"
	"hash/maphash"
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
}

// Config parameterizes a cache instance.
type Config struct {
	// Shards is the number of lock shards; 0 selects a sensible default.
	Shards int
	// Metrics, when non-nil, receives live instrumentation: hit/miss/get
	// counters and the occupancy and memory gauges. Instances sharing one
	// registry aggregate into shared series.
	Metrics *metrics.Registry
}

const defaultShards = 16

// Stats aggregates operation counters of one cache instance.
type Stats struct {
	Gets, Hits, Misses   uint64
	Puts, CASes, Deletes uint64
	Conflicts            uint64
	Items                int
	// Bytes is the sum of the live values' lengths.
	Bytes int64
	// Resident is what the store holds on to: the capacity of every page
	// plus the index.
	Resident int64
	// Dead is the part of the pages taken by overwritten and deleted
	// records that evacuation has not yet reclaimed.
	Dead int64
}

// Cache is a sharded in-memory key-value store with versioned items. It is
// safe for concurrent use.
type Cache struct {
	shards []*shard
	// seed keys the one hash every operation computes. It is random per
	// cache: keys are client-chosen, and a linear-probe index under a public
	// hash could be flooded.
	seed maphash.Seed

	stopped atomic.Bool

	gets, hits, misses   atomic.Uint64
	puts, cases, deletes atomic.Uint64
	conflicts            atomic.Uint64
	bytes                atomic.Int64
	items                atomic.Int64
	resident, dead       atomic.Int64

	obs cacheObs

	// commit is the OnCommit observer, nil when none is installed. It is
	// written under every shard's lock and read under one.
	commit func(key string, value []byte, deleted, bulk bool)
}

// cacheObs mirrors the cache's counters into a metrics.Registry so they can
// be scraped live. All fields tolerate being nil (instrumentation disabled);
// occupancy is maintained as deltas so caches sharing a registry aggregate.
type cacheObs struct {
	gets     *metrics.Counter // memcache_gets_total
	hits     *metrics.Counter // memcache_hits_total
	misses   *metrics.Counter // memcache_misses_total
	items    *metrics.Gauge   // memcache_items: live entries (occupancy)
	resident *metrics.Gauge   // memcache_resident_bytes: page capacity + index
	dead     *metrics.Gauge   // memcache_dead_bytes: dead records not yet evacuated
	evacuate *metrics.Counter // memcache_evacuated_bytes_total: live records copied by evacuation
}

func newCacheObs(reg *metrics.Registry) cacheObs {
	return cacheObs{
		gets:     reg.Counter("memcache_gets_total"),
		hits:     reg.Counter("memcache_hits_total"),
		misses:   reg.Counter("memcache_misses_total"),
		items:    reg.Gauge("memcache_items"),
		resident: reg.Gauge("memcache_resident_bytes"),
		dead:     reg.Gauge("memcache_dead_bytes"),
		evacuate: reg.Counter("memcache_evacuated_bytes_total"),
	}
}

// New returns an empty cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	c := &Cache{seed: maphash.MakeSeed(), obs: newCacheObs(cfg.Metrics)}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{seed: c.seed}
	}
	return c
}

// Stop marks the cache as stopped; subsequent operations fail with
// ErrStopped. Stopping an already stopped cache is a no-op.
func (c *Cache) Stop() { c.stopped.Store(true) }

// OnCommit installs fn as the commit observer (nil removes it). fn is called
// under the lock of the shard that applies a change: once per stored value,
// with the caller's slice, and once per removal of a present key, deleted
// set and value nil. bulk marks the changes of PutBatch and DeleteBatch. A
// conflict, an absent key's delete and a stopped cache report nothing. fn
// must be fast and must not call back into the cache.
func (c *Cache) OnCommit(fn func(key string, value []byte, deleted, bulk bool)) {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	c.commit = fn
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
}

// enter admits a data-plane operation: it fails once the cache is stopped.
func (c *Cache) enter() error {
	if c.stopped.Load() {
		return ErrStopped
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

// shardFor hashes key once; the shard's index probes with the same hash.
func (c *Cache) shardFor(key string) (*shard, uint64) {
	h := maphash.String(c.seed, key)
	return c.shards[h>>hashShardShift%uint64(len(c.shards))], h
}

// settle unlocks sh after a mutation and publishes what the mutation did to
// the shard's memory account, as deltas so that caches sharing a registry
// aggregate.
func (c *Cache) settle(sh *shard, before usage) {
	after := sh.usage
	sh.mu.Unlock()
	if d := after.resident - before.resident; d != 0 {
		c.resident.Add(d)
		c.obs.resident.Add(d)
	}
	if d := after.dead - before.dead; d != 0 {
		c.dead.Add(d)
		c.obs.dead.Add(d)
	}
	c.obs.evacuate.Add(after.evacuated - before.evacuated)
}

// Get returns the item stored under key, or ErrNotFound. The item's Value is
// a slice of the store's own memory: the store never writes to it again,
// whatever happens to the key, and the caller must not either.
func (c *Cache) Get(key string) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	c.countGet()

	rec, ok := c.lookup(key)
	if !ok {
		c.countMiss()
		return Item{}, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	c.countHit()
	return rec.item(key), nil
}

// lookup returns key's record if it is present.
func (c *Cache) lookup(key string) (record, bool) {
	sh, h := c.shardFor(key)
	sh.mu.RLock()
	_, rec, ok := sh.find(h, key)
	sh.mu.RUnlock()
	return rec, ok
}

// Contains reports whether key is present without counting as a Get in the
// statistics. Like Keys and Snapshot it works on a stopped cache: it is a
// control-plane probe, not a data-plane read.
func (c *Cache) Contains(key string) bool {
	_, ok := c.lookup(key)
	return ok
}

// Put stores value under key unconditionally, assigning the next version
// number. It returns the stored item. The cache keeps nothing of the
// caller's: key and value are copied into a page. Items do not expire: the
// duration, which registry.Store's signature still carries, is ignored.
func (c *Cache) Put(key string, value []byte, _ time.Duration) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	c.puts.Add(1)
	return c.store(key, value, nil, false)
}

// CAS stores value under key only if the currently stored version equals
// expectedVersion. Use expectedVersion == 0 to require that the key does not
// exist yet ("add" semantics). On mismatch it returns ErrVersionConflict and
// the conflicting stored item. The duration is ignored, as Put's is.
func (c *Cache) CAS(key string, value []byte, _ time.Duration, expectedVersion uint64) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	c.cases.Add(1)
	return c.store(key, value, &expectedVersion, false)
}

// store applies one write under its key's shard lock and reports it to the
// observer, bulk marking a batch's. storeLocked returns first, to keep the
// observer's stack shallow: it publishes at the bottom of a write's call
// chain, often on a new goroutine whose stack would have to grow.
func (c *Cache) store(key string, value []byte, expected *uint64, bulk bool) (Item, error) {
	sh, h := c.shardFor(key)
	sh.mu.Lock()
	defer c.settle(sh, sh.usage)
	it, err := c.storeLocked(sh, h, key, value, expected)
	if err == nil && c.commit != nil {
		c.commit(key, value, false, bulk)
	}
	return it, err
}

func (c *Cache) storeLocked(sh *shard, h uint64, key string, value []byte, expected *uint64) (Item, error) {
	sh.reserve()
	slot, cur, exists := sh.find(h, key)
	if expected != nil && cur.version != *expected {
		c.conflicts.Add(1)
		var held Item
		if exists {
			held = cur.item(key)
		}
		return held, fmt.Errorf("cas %q: have version %d, want %d: %w", key, cur.version, *expected, ErrVersionConflict)
	}
	if !exists {
		c.addItems(1)
	}
	c.bytes.Add(int64(len(value)) - int64(len(cur.value)))

	next := record{version: cur.version + 1}
	next.value = sh.put(h, slot, cur.size, key, value, next.version)
	return next.item(key), nil
}

// Delete removes key from the cache, or returns ErrNotFound.
func (c *Cache) Delete(key string) error {
	if err := c.enter(); err != nil {
		return err
	}
	c.deletes.Add(1)
	if !c.take(key, false) {
		return fmt.Errorf("delete %q: %w", key, ErrNotFound)
	}
	return nil
}

// take removes key and reports whether it was present; bulk is as store's.
func (c *Cache) take(key string, bulk bool) bool {
	sh, h := c.shardFor(key)
	sh.mu.Lock()
	defer c.settle(sh, sh.usage)
	slot, rec, ok := sh.find(h, key)
	if !ok {
		return false
	}
	sh.remove(slot, rec.size)
	c.addItems(-1)
	c.bytes.Add(-int64(len(rec.value)))
	if c.commit != nil {
		c.commit(key, nil, true, bulk)
	}
	return true
}

// Snapshot returns every live item; the synchronization agent uses it to pull
// the full content of a registry instance. It works on a stopped cache: it
// serves control-plane reads, not the data path. The values are slices of the
// store's memory, as Get's are.
func (c *Cache) Snapshot() []Item {
	items := make([]Item, 0, c.Len())
	for _, sh := range c.shards {
		sh.mu.RLock()
		sh.each(func(rec record) { items = append(items, rec.item(string(rec.key))) })
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
		Items:     int(c.items.Load()),
		Bytes:     c.bytes.Load(),
		Resident:  c.resident.Load(),
		Dead:      c.dead.Load(),
	}
}
