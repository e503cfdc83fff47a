package registry

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
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
	// updateMu serializes the mutations that go through this instance,
	// striped by entry name: see lockName.
	updateMu [updateStripes]sync.Mutex
	// durable is the persistence layer when the store is a *store.Durable;
	// nil for memory-only instances.
	durable *store.Durable
	// feedLog is the change feed WithChangeFeed gave the instance, and
	// feedOpts the options it was built with (see feed.go).
	feedLog  *feed.Log
	feedOpts []feed.LogOption
}

// InstanceOption configures an Instance.
type InstanceOption func(*Instance)

// NewInstance returns a registry instance for the given site backed by the
// given store. A *store.Durable — a member of a site's shared log, or the
// log OpenInstance opens — is the instance's storage.
func NewInstance(site cloud.SiteID, s Store, opts ...InstanceOption) *Instance {
	inst := &Instance{site: site, store: s}
	inst.durable, _ = s.(*store.Durable)
	for _, o := range opts {
		o(inst)
	}
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
	defer i.lockName(e.Name).Unlock()
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
	defer i.lockName(e.Name).Unlock()
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

// updateStripes is how many locks the names written through one instance
// share; lockStripes keeps a set of them in a uint64.
const updateStripes = 64

// updateStripe picks name's lock (FNV-1a, inlined to stay allocation-free).
func updateStripe(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h % updateStripes
}

// lockName takes name's stripe and returns it locked. Every mutation
// through the instance holds its names' stripes, so writers of one name
// through one instance take turns: a Merge's read and write cannot straddle
// another writer's, and Update's compare-and-swap cannot lose to the
// instance's own writers.
func (i *Instance) lockName(name string) *sync.Mutex {
	mu := &i.updateMu[updateStripe(name)]
	mu.Lock()
	return mu
}

// lockStripes takes the stripes of a bulk mutation's names in ascending
// order, so that two bulk mutations cannot deadlock, and returns their
// unlock.
func (i *Instance) lockStripes(names []string) (unlock func()) {
	var set uint64
	for _, name := range names {
		set |= 1 << updateStripe(name)
	}
	for s := set; s != 0; s &= s - 1 {
		i.updateMu[bits.TrailingZeros64(s)].Lock()
	}
	return func() {
		for s := set; s != 0; s &= s - 1 {
			i.updateMu[bits.TrailingZeros64(s)].Unlock()
		}
	}
}

// Update applies mutate to the current value of the entry and stores the
// result with a compare-and-swap. The entry must exist. Holding the name's
// stripe (see lockName), it fails with ErrConflict only if a writer the
// instance cannot see, another instance over the same store, came between
// the read and the swap.
func (i *Instance) Update(ctx context.Context, name string, mutate func(Entry) Entry) (Entry, error) {
	defer i.lockName(name).Unlock()
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
	if errors.Is(err, memcache.ErrVersionConflict) {
		return Entry{}, fmt.Errorf("update %q: %w", name, ErrConflict)
	}
	if err != nil {
		return Entry{}, fmt.Errorf("update %q: %w", name, err)
	}
	next.Version = stored.Version
	return next, nil
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
	defer i.lockName(name).Unlock()
	if err := i.store.Delete(name); err != nil {
		if errors.Is(err, memcache.ErrNotFound) {
			return fmt.Errorf("delete %q: %w", name, ErrNotFound)
		}
		return fmt.Errorf("delete %q: %w", name, err)
	}
	return nil
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
	if err := validBatch(entries); err != nil {
		return nil, err
	}
	defer i.lockStripes(entryNames(entries))()
	items, err := i.store.PutBatch(encodeBatch(entries))
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
	defer i.lockStripes(names)()
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
// (one read batch, one write batch), both under the batch's stripes, so no
// other write through the instance lands between them and is overwritten.
func (i *Instance) Merge(ctx context.Context, entries []Entry) (applied int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("merge: %w", err)
	}
	if len(entries) == 0 {
		return 0, nil
	}
	if err := validBatch(entries); err != nil {
		return 0, err
	}
	names := entryNames(entries)
	defer i.lockStripes(names)()
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

	var batch []Entry
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
		batch = append(batch, next)
		current[e.Name] = next // later duplicates in the batch merge onto this
	}
	if len(batch) == 0 {
		return 0, nil
	}
	if _, err := i.store.PutBatch(encodeBatch(batch)); err != nil {
		return 0, fmt.Errorf("merge: %w", err)
	}
	return len(batch), nil
}
