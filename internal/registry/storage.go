package registry

import (
	"fmt"

	"geomds/internal/cloud"
	"geomds/internal/store"
)

// This file wires the internal/store durability layer into the registry:
// OpenInstance gives an Instance an on-disk WAL plus snapshots.
// A returning shard is repaired by the router's re-sync sweep whether or not
// it persists, so nothing in the registry asks how much state it brought
// back.

// Recoverable is implemented by shards that persist their state locally and
// can report the sequence number of the last durable mutation. The router
// does not use it; it stays only while the benchmark's traced shard wrapper
// forwards it, and goes with that forward (ROADMAP item 2b).
type Recoverable interface {
	// DurableSeq returns the sequence number of the last locally durable
	// mutation, and whether the shard persists at all — (0, false) means
	// memory-only.
	DurableSeq() (uint64, bool)
}

// An Instance is Recoverable (memory-only instances answer false).
var _ Recoverable = (*Instance)(nil)

// OpenInstance opens the durable WAL+snapshot layer rooted at dir (created
// if needed) over backing and returns an instance on it: prior state is
// recovered into the backing store before the instance serves, and every
// mutation is journaled before it is acknowledged. storeOpts tune the WAL
// (fsync policy, compaction interval); opts are the usual instance options.
func OpenInstance(site cloud.SiteID, backing Store, dir string, storeOpts []store.Option, opts ...InstanceOption) (*Instance, error) {
	d, err := store.Open(dir, backing, storeOpts...)
	if err != nil {
		return nil, fmt.Errorf("registry: opening storage in %s: %w", dir, err)
	}
	return NewInstance(site, d, opts...), nil
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
