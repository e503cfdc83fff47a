package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/store"
)

// Store is the cache-tier API the registry relies on (store.Backing):
// *memcache.Cache, the *store.Durable that wraps one in a write-ahead log,
// and the tests' fakes satisfy it.
type Store = store.Backing

// Instance is one Metadata Registry instance: the registry deployed in a
// single datacenter. The multi-site strategies (internal/core) compose one or
// more instances; the Cache Manager role of the paper — translating registry
// operations into cache operations — lives here.
//
// An Instance is safe for concurrent use.
type Instance struct {
	site  cloud.SiteID
	store Store
	// maxCASRetries bounds optimistic-concurrency retries on updates.
	maxCASRetries int
	// updateMu queues the read-modify-writes that go through this instance,
	// striped by entry name: see Update.
	updateMu [updateStripes]sync.Mutex
	// durable is the persistence layer when WithStorage wrapped the store;
	// nil for memory-only instances. storageErr records a failed storage
	// open so constructors can surface it.
	durable    *store.Durable
	storageErr error
	// Change-feed state (see feed.go): wantFeed/feedOpts record a
	// WithChangeFeed option until the constructor materializes feedLog.
	wantFeed bool
	feedOpts []feed.LogOption
	feedLog  *feed.Log
}

// InstanceOption configures an Instance.
type InstanceOption func(*Instance)

// WithCASRetries sets the maximum number of optimistic-concurrency retries
// performed by Update (default 8).
func WithCASRetries(n int) InstanceOption {
	return func(i *Instance) {
		if n > 0 {
			i.maxCASRetries = n
		}
	}
}

// NewInstance returns a registry instance for the given site backed by the
// given store. It panics if a WithStorage option failed to open its
// directory — construction cannot half-succeed; use OpenInstance to handle
// the error instead.
func NewInstance(site cloud.SiteID, store Store, opts ...InstanceOption) *Instance {
	inst := &Instance{site: site, store: store, maxCASRetries: 8}
	for _, o := range opts {
		o(inst)
	}
	if inst.storageErr != nil {
		panic(inst.storageErr)
	}
	inst.finishFeed()
	return inst
}

// Site returns the datacenter this instance serves.
func (i *Instance) Site() cloud.SiteID { return i.site }

// Store exposes the underlying cache store (used by the synchronization
// agent and by tests).
func (i *Instance) Store() Store { return i.store }

// Len returns the number of entries held by this instance.
func (i *Instance) Len(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return i.store.Len()
}

// Create publishes a new entry. The paper defines a write as a look-up (to
// verify the entry does not already exist) followed by the actual write; the
// cache tier's optimistic concurrency lets the instance collapse both into a
// single conditional store — a CAS with "must not exist" semantics — so a
// create costs one cache operation and fails with ErrExists if the name is
// taken.
func (i *Instance) Create(ctx context.Context, e Entry) (Entry, error) {
	if err := ctx.Err(); err != nil {
		return Entry{}, fmt.Errorf("create %q: %w", e.Name, err)
	}
	if err := e.Validate(); err != nil {
		return Entry{}, err
	}
	it, err := i.store.CAS(e.Name, encodeEntry(e), 0, 0)
	if err != nil {
		if errors.Is(err, memcache.ErrVersionConflict) {
			return Entry{}, fmt.Errorf("create %q: %w", e.Name, ErrExists)
		}
		return Entry{}, fmt.Errorf("create %q: %w", e.Name, err)
	}
	e.Version = it.Version
	return e, nil
}

// Put stores the entry unconditionally (upsert). The synchronization agent
// and the lazy-propagation path use it to apply remote updates.
func (i *Instance) Put(ctx context.Context, e Entry) (Entry, error) {
	if err := ctx.Err(); err != nil {
		return Entry{}, fmt.Errorf("put %q: %w", e.Name, err)
	}
	if err := e.Validate(); err != nil {
		return Entry{}, err
	}
	it, err := i.store.Put(e.Name, encodeEntry(e), 0)
	if err != nil {
		return Entry{}, fmt.Errorf("put %q: %w", e.Name, err)
	}
	e.Version = it.Version
	return e, nil
}

// Get returns the entry stored under name.
func (i *Instance) Get(ctx context.Context, name string) (Entry, error) {
	if err := ctx.Err(); err != nil {
		return Entry{}, fmt.Errorf("get %q: %w", name, err)
	}
	it, err := i.store.Get(name)
	if err != nil {
		if errors.Is(err, memcache.ErrNotFound) {
			return Entry{}, fmt.Errorf("get %q: %w", name, ErrNotFound)
		}
		return Entry{}, fmt.Errorf("get %q: %w", name, err)
	}
	e, err := DecodeEntry(it.Value)
	if err != nil {
		return Entry{}, fmt.Errorf("get %q: %w", name, err)
	}
	e.Version = it.Version
	return e, nil
}

// updateStripes is how many locks the names updated through one instance
// share.
const updateStripes = 64

// updateStripe picks name's lock (FNV-1a, inlined to stay allocation-free).
func updateStripe(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h % updateStripes
}

// Update applies mutate to the current value of the entry and stores the
// result using optimistic concurrency, retrying on conflicts up to the
// configured limit. The entry must exist.
//
// Updates of one name through one instance take turns: the compare-and-swap
// guards against writers the instance cannot see (another instance over the
// same store, a Put racing the update), but the workers of one server losing
// it to each other would burn their retries, and two store operations of
// capacity per lost round, on a race the instance can simply not have —
// sixteen writers on one hot key exhausted eight retries each.
func (i *Instance) Update(ctx context.Context, name string, mutate func(Entry) Entry) (Entry, error) {
	mu := &i.updateMu[updateStripe(name)]
	mu.Lock()
	defer mu.Unlock()
	for attempt := 0; attempt < i.maxCASRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return Entry{}, fmt.Errorf("update %q: %w", name, err)
		}
		it, err := i.store.Get(name)
		if err != nil {
			if errors.Is(err, memcache.ErrNotFound) {
				return Entry{}, fmt.Errorf("update %q: %w", name, ErrNotFound)
			}
			return Entry{}, fmt.Errorf("update %q: %w", name, err)
		}
		cur, err := DecodeEntry(it.Value)
		if err != nil {
			return Entry{}, fmt.Errorf("update %q: %w", name, err)
		}
		cur.Version = it.Version
		next := mutate(cur)
		next.Name = name // the key is immutable
		if err := next.Validate(); err != nil {
			return Entry{}, err
		}
		stored, err := i.store.CAS(name, encodeEntry(next), 0, it.Version)
		if err == nil {
			next.Version = stored.Version
			return next, nil
		}
		if !errors.Is(err, memcache.ErrVersionConflict) {
			return Entry{}, fmt.Errorf("update %q: %w", name, err)
		}
		// Lost the race: reload and retry.
	}
	return Entry{}, fmt.Errorf("update %q: too many retries: %w", name, ErrConflict)
}

// AddLocation records an additional copy of the file named name.
func (i *Instance) AddLocation(ctx context.Context, name string, loc Location) (Entry, error) {
	return i.Update(ctx, name, func(e Entry) Entry { return e.AddLocation(loc) })
}

// Delete removes the entry stored under name.
func (i *Instance) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("delete %q: %w", name, err)
	}
	if err := i.store.Delete(name); err != nil {
		if errors.Is(err, memcache.ErrNotFound) {
			return fmt.Errorf("delete %q: %w", name, ErrNotFound)
		}
		return fmt.Errorf("delete %q: %w", name, err)
	}
	return nil
}

// Names returns the names of all entries held by this instance.
func (i *Instance) Names(ctx context.Context) []string {
	if ctx.Err() != nil {
		return nil
	}
	return i.store.Keys()
}

// Entries decodes and returns every entry held by this instance. The
// synchronization agent uses it to pull an instance's content.
func (i *Instance) Entries(ctx context.Context) ([]Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("entries: %w", err)
	}
	items := i.store.Snapshot()
	out := make([]Entry, 0, len(items))
	for _, it := range items {
		e, err := DecodeEntry(it.Value)
		if err != nil {
			return nil, fmt.Errorf("entries: decoding %q: %w", it.Key, err)
		}
		e.Version = it.Version
		out = append(out, e)
	}
	return out, nil
}

// GetMany returns the entries stored under the given names, silently
// skipping absent ones. It uses the store's bulk path, so it is the
// preferred way for the synchronization agent to pull a round's updates.
func (i *Instance) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("get-many: %w", err)
	}
	items, _, err := i.store.GetBatch(names)
	if err != nil {
		return nil, fmt.Errorf("get-many: %w", err)
	}
	out := make([]Entry, 0, len(items))
	for _, it := range items {
		e, err := DecodeEntry(it.Value)
		if err != nil {
			return nil, fmt.Errorf("get-many: decoding %q: %w", it.Key, err)
		}
		e.Version = it.Version
		out = append(out, e)
	}
	return out, nil
}

// PutMany upserts the whole batch through the store's bulk path (one write
// batch), returning the stored entries with their new versions in input
// order. It is the write half of the batch API the synchronization agents
// and the RPC transport forward as single frames.
func (i *Instance) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("put-many: %w", err)
	}
	if len(entries) == 0 {
		return nil, nil
	}
	kvs := make([]memcache.KV, 0, len(entries))
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		kvs = append(kvs, memcache.KV{Key: e.Name, Value: encodeEntry(e)})
	}
	items, err := i.store.PutBatch(kvs)
	if err != nil {
		return nil, fmt.Errorf("put-many: %w", err)
	}
	out := append([]Entry(nil), entries...)
	for idx := range out {
		if idx < len(items) {
			out[idx].Version = items[idx].Version
		}
	}
	return out, nil
}

// DeleteMany removes the named entries through the store's bulk path,
// returning how many of them were present. Names that are absent are
// silently skipped: bulk deletes propagate deletions that already succeeded
// at their origin site, so "already gone" is success.
func (i *Instance) DeleteMany(ctx context.Context, names []string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("delete-many: %w", err)
	}
	if len(names) == 0 {
		return 0, nil
	}
	n, err := i.store.DeleteBatch(names)
	if err != nil {
		return 0, fmt.Errorf("delete-many: %w", err)
	}
	return n, nil
}

// Merge upserts every entry of the batch whose content differs from what the
// instance already holds, returning the number of entries applied. It is the
// apply side of the synchronization agent and of lazy propagation: last
// writer wins, location lists are unioned. Merge uses the store's bulk path
// (one read batch, one write batch).
func (i *Instance) Merge(ctx context.Context, entries []Entry) (applied int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("merge: %w", err)
	}
	if len(entries) == 0 {
		return 0, nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			return 0, err
		}
		names = append(names, e.Name)
	}
	items, _, err := i.store.GetBatch(names)
	if err != nil {
		return 0, fmt.Errorf("merge: %w", err)
	}
	current := make(map[string]Entry, len(items))
	for _, it := range items {
		cur, err := DecodeEntry(it.Value)
		if err != nil {
			return 0, fmt.Errorf("merge: decoding %q: %w", it.Key, err)
		}
		current[it.Key] = cur
	}

	var batch []memcache.KV
	for _, e := range entries {
		cur, exists := current[e.Name]
		var next Entry
		switch {
		case !exists:
			next = e
		default:
			next = cur
			for _, loc := range e.Locations {
				next = next.AddLocation(loc)
			}
			if next.Size != e.Size && e.Size > 0 {
				next.Size = e.Size
			}
			if next.Equal(cur) {
				continue // nothing new
			}
		}
		batch = append(batch, memcache.KV{Key: e.Name, Value: encodeEntry(next)})
		current[e.Name] = next // later duplicates in the batch merge onto this
		applied++
	}
	if len(batch) == 0 {
		return 0, nil
	}
	if _, err := i.store.PutBatch(batch); err != nil {
		return 0, fmt.Errorf("merge: %w", err)
	}
	return applied, nil
}
