package registry

import (
	"fmt"

	"geomds/internal/cloud"
	"geomds/internal/store"
)

// This file wires the internal/store durability layer into the registry:
// WithStorage/OpenInstance give an Instance an on-disk WAL plus snapshots,
// and the Recoverable interface lets the router's recovery path ask a
// returning shard how much state it brought back — the basis for the delta
// repair that replaces the full re-sync sweep (see delta.go).

// Recoverable is implemented by shards that persist their state locally and
// can report the sequence number of the last durable mutation. The router
// uses it on both edges of an outage: when a shard's breaker opens, the
// last durable sequence number is recorded; when the shard returns, a
// recovered sequence number at or above that mark proves the shard brought
// its pre-outage state back, so only what was written *during* the outage
// needs repair.
type Recoverable interface {
	// DurableSeq returns the sequence number of the last locally durable
	// mutation, and whether the shard persists at all — (0, false) means
	// memory-only, for which every recovery needs the full re-sync sweep.
	DurableSeq() (uint64, bool)
}

// An Instance is Recoverable (memory-only instances answer false).
var _ Recoverable = (*Instance)(nil)

// WithStorage wraps the instance's store in the durable WAL+snapshot layer
// rooted at dir: prior state is recovered into the backing store before the
// instance serves, and every mutation is journaled before it is
// acknowledged. NewInstance panics if the storage cannot be opened (a
// construction-time invariant, like an unroutable placement); use
// OpenInstance where the error should surface instead.
func WithStorage(dir string, opts ...store.Option) InstanceOption {
	return func(i *Instance) {
		d, err := store.Open(dir, i.store, opts...)
		if err != nil {
			i.storageErr = fmt.Errorf("registry: opening storage in %s: %w", dir, err)
			return
		}
		i.store = d
		i.durable = d
	}
}

// OpenInstance is NewInstance plus WithStorage with the error returned
// rather than panicking: the instance recovers its state from dir (created
// if needed) and journals every mutation there. storeOpts tune the WAL
// (fsync policy, compaction interval); opts are the usual instance options.
func OpenInstance(site cloud.SiteID, backing Store, dir string, storeOpts []store.Option, opts ...InstanceOption) (*Instance, error) {
	inst := &Instance{site: site, store: backing, maxCASRetries: 8}
	for _, o := range opts {
		o(inst)
	}
	WithStorage(dir, storeOpts...)(inst)
	if inst.storageErr != nil {
		return nil, inst.storageErr
	}
	inst.finishFeed()
	return inst, nil
}

// Close flushes and fsyncs the instance's log — regardless of the fsync
// policy — so a Close followed by OpenInstance over the same directory is
// lossless. Memory-only instances close to a no-op. Idempotent; mutations
// after Close fail with store.ErrClosed.
func (i *Instance) Close() error {
	if i.feedLog != nil {
		i.feedLog.Close()
	}
	if i.durable == nil {
		return nil
	}
	return i.durable.Close()
}

// DurableSeq implements Recoverable: the sequence number of the last
// durable mutation, or (0, false) for a memory-only instance.
func (i *Instance) DurableSeq() (uint64, bool) {
	if i.durable == nil {
		return 0, false
	}
	return i.durable.Seq(), true
}

// Storage returns the instance's durability layer, nil when the instance is
// memory-only. Tests and operational tooling read its recovery and log
// counters (store.LogStats).
func (i *Instance) Storage() *store.Durable { return i.durable }
