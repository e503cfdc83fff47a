// Package store gives a site's registry shards a durable local state: one
// write-ahead log of put/delete records per data directory, shared by every
// shard opened over it, plus periodic compacted snapshots of each shard,
// replayed on open so a restarted shard serves its key range from disk
// instead of leaning on the router's R-way re-sync sweep.
//
// A Durable is one member of the log: it wraps any Backing (in practice a
// *memcache.Cache) and journals every mutation before applying it. It applies
// under its member's mutex and after the covering sync, so the backing
// store's commit observer (OnCommit, where the change feed is tapped) sees a
// member's changes in log order and only once they are durable.
// OpenShared opens a log with one member per backing store; Open is the
// one-member case. The on-disk layout of a store directory is
//
//	wal-<firstseq>.log     segments of length-prefixed, CRC-checked frames,
//	                       each record tagged with its member's index,
//	                       written in place into preallocated zeros (see
//	                       wal.go for the record format and group commit)
//	snap-<i>-<seq>.db      compacted snapshots: member i's full key/value
//	                       state as of sequence number <seq> (see
//	                       snapshot.go)
//
// Recovery loads each member's newest valid snapshot, reads the log once and
// hands every record past its member's snapshot to that member, and
// truncates a torn tail write (a frame at the end of the last segment's log
// that a crash mid-append left incomplete). Corruption anywhere else is
// refused: a checksum failure in the middle of the log means records after
// it would be silently lost, so Open fails rather than resurrect a hole. A
// directory of the previous storage generation is refused before anything
// is replayed (ErrGeneration).
//
// Two fsync policies are offered. FsyncAlways (the default) acknowledges a
// mutation only after an fsync covers it; the members share those fsyncs
// (group commit), so two replicas written at once cost one. FsyncNever
// issues the write() but leaves syncing to snapshots and Close — an
// acknowledged write then survives a process crash but not a machine
// crash. Close always flushes and syncs regardless of policy, so a clean
// Close followed by Open is lossless under either.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"geomds/internal/memcache"
)

// Backing is the cache-tier API the registry is built on, and the mutable
// key/value store a Durable wraps and logs. registry.Store is this interface
// under the registry's name; it lives here so that a *Durable can be handed
// back to the registry without an import cycle. *memcache.Cache, a *Durable
// and the tests' fakes satisfy it.
//
// Nothing expires: every store ignores the ttl of Put and CAS, and a Durable
// journals none. The parameter stays only while geobench's tracedStore, which
// implements this interface, forwards it, and goes with that forward (ROADMAP
// item 2b).
type Backing interface {
	Get(key string) (memcache.Item, error)
	Put(key string, value []byte, ttl time.Duration) (memcache.Item, error)
	CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error)
	Delete(key string) error
	Contains(key string) bool
	Snapshot() []memcache.Item
	Len() int
	GetBatch(keys []string) (found []memcache.Item, missing []string, err error)
	PutBatch(kvs []memcache.KV) ([]memcache.Item, error)
	DeleteBatch(keys []string) (int, error)
	// OnCommit installs the observer of every change the store applies, the
	// change feed's tap (memcache.Cache.OnCommit has the contract); wrappers
	// pass it down to the cache.
	OnCommit(fn func(key string, value []byte, deleted, bulk bool))
}

var _ Backing = (*memcache.Cache)(nil)

// FsyncPolicy selects when the WAL is synced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the log after every append batch. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves syncing to snapshots and Close: appends reach the
	// OS page cache (one write() per batch) but are not forced to disk.
	FsyncNever
)

// String returns the policy name as accepted by Set.
func (p FsyncPolicy) String() string {
	if p == FsyncNever {
		return "never"
	}
	return "always"
}

// Set parses "always" or "never", making *FsyncPolicy a flag.Value (the
// -fsync flag of metaserver and metasim).
func (p *FsyncPolicy) Set(s string) error {
	switch s {
	case "always", "":
		*p = FsyncAlways
	case "never":
		*p = FsyncNever
	default:
		return fmt.Errorf("store: unknown fsync policy %q (want always or never)", s)
	}
	return nil
}

var (
	// ErrClosed is returned by mutations on a closed Durable.
	ErrClosed = errors.New("store: closed")
	// ErrCorrupt wraps recovery failures that are not a tolerable torn
	// tail: a mid-log checksum mismatch, a malformed record, or a sequence
	// gap between the snapshot and the surviving log.
	ErrCorrupt = errors.New("store: corrupt log")
	// ErrGeneration is returned by Open for a data directory that storage
	// generation 1 wrote (a log per shard, magic GMDSWAL1/GMDSSNP1). Nothing
	// in it is replayed.
	ErrGeneration = errors.New("store: data directory is of storage generation 1 (GMDSWAL1), this release reads generation 2 only: " +
		"if its shards have replicas in other processes (replication of 2 or more), move it aside and let the router's resync re-populate them from a peer; " +
		"otherwise read it with the previous release")
)

// DefaultCompactEvery is the number of logged records per member between
// automatic snapshot compactions.
const DefaultCompactEvery = 8192

// Options tunes a Durable. The zero value means FsyncAlways and
// DefaultCompactEvery.
type Options struct {
	fsync        FsyncPolicy
	compactEvery int
}

// Option configures Open.
type Option func(*Options)

// WithFsync selects the fsync policy (default FsyncAlways).
func WithFsync(p FsyncPolicy) Option {
	return func(o *Options) { o.fsync = p }
}

// WithCompactEvery sets how many logged records per member trigger an
// automatic snapshot compaction (default DefaultCompactEvery). Values <= 0 keep the
// default; pick a large value to effectively disable compaction in tests.
func WithCompactEvery(n int) Option {
	return func(o *Options) {
		if n > 0 {
			o.compactEvery = n
		}
	}
}

// LogStats is a point-in-time snapshot of a Durable's log counters. Seq and
// Recovered are the member's; the counters are the shared log's.
type LogStats struct {
	Seq              uint64 // sequence number of the member's last logged record
	Recovered        uint64 // Seq as recovered by Open (0 for a fresh dir)
	Appends          int64  // records appended since Open
	Syncs            int64  // fsync calls issued (appends, snapshots, Close)
	Snapshots        int64  // compactions completed since Open
	SnapshotsSkipped int64  // invalid snapshots ignored during recovery
	TornTails        int64  // torn tail writes truncated during recovery
	CompactionErrors int64  // best-effort compactions that failed
}

// Durable is one member of a write-ahead log: a Backing whose mutations are
// journaled to the log before they are applied, with periodic snapshot
// compaction. It satisfies Backing itself (and therefore registry.Store), so
// it drops into an Instance in place of the bare cache.
//
// A member's mutations serialize on its own mutex, so its records' log
// order is exactly its apply order — replay then reconstructs the same
// final state even for racing writes to one key. Members of one log append
// concurrently and share its fsyncs. A mutation is journaled and synced,
// then applied, so neither a reader, a snapshot nor the commit observer sees
// a write the log does not hold. Reads go straight to the backing store and
// never touch the log or a lock.
type Durable struct {
	log     *wal
	shard   byte // the member's index, as records carry it
	backing Backing

	mu        sync.Mutex
	seq       uint64 // sequence number of the member's last record
	recovered uint64 // seq as of Open
	closed    bool
	failed    error // the backing store refused a logged record: fail stop
}

// Open opens (creating if needed) the store directory as a one-member log,
// recovers the backing store from its newest valid snapshot plus the
// surviving log, and returns a Durable ready for writes. The backing store
// must be empty: recovery replays into it.
func Open(dir string, backing Backing, opts ...Option) (*Durable, error) {
	ds, err := OpenShared(dir, []Backing{backing}, opts...)
	if err != nil {
		return nil, err
	}
	return ds[0], nil
}

// OpenShared opens (creating if needed) the store directory as one log with
// a member per backing store, in order: a site's shards journal to one log
// and share its fsyncs. Recovery reads the log once and hands each record to
// its member. The backing stores must be empty, and a directory must be
// opened with the same number of members every time. The log's file closes
// with its last member.
func OpenShared(dir string, backings []Backing, opts ...Option) ([]*Durable, error) {
	if len(backings) == 0 || len(backings) > maxMembers {
		return nil, fmt.Errorf("store: a log has 1 to %d members, not %d", maxMembers, len(backings))
	}
	o := Options{fsync: FsyncAlways, compactEvery: DefaultCompactEvery}
	for _, opt := range opts {
		opt(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	l := &wal{dir: dir, opts: o, open: len(backings)}
	l.cond.L = &l.mu
	l.members = make([]*Durable, len(backings))
	for i, b := range backings {
		l.members[i] = &Durable{log: l, shard: byte(i), backing: b}
	}
	if err := l.recover(); err != nil {
		if l.f != nil {
			l.f.Close()
		}
		return nil, err
	}
	return append([]*Durable(nil), l.members...), nil
}

// Seq returns the sequence number of the member's last logged record, in
// the log's global numbering.
func (d *Durable) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Recovered returns the sequence number recovered by Open — the durable
// high-water mark this member restarted from (0 for a fresh directory).
func (d *Durable) Recovered() uint64 { return d.recovered }

// LogStats returns a snapshot of the log counters.
func (d *Durable) LogStats() LogStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.log
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		Seq:              d.seq,
		Recovered:        d.recovered,
		Appends:          l.appends,
		Syncs:            l.syncs,
		Snapshots:        l.snapshots,
		SnapshotsSkipped: l.snapSkipped,
		TornTails:        l.tornTails,
		CompactionErrors: l.compactErrs,
	}
}

// Close flushes and fsyncs the log, and closes the segment file once every
// member of the log is closed. It always syncs what is unsynced, regardless
// of the fsync policy, so Close followed by Open is lossless even under
// FsyncNever. Close is idempotent; mutations after Close return ErrClosed.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.release()
}

// OnCommit installs the backing store's commit observer under the member's
// mutex. A member applies under that mutex after the covering sync, so the
// observer sees its changes in log order and only once they are durable.
// Install it before the store serves mutations.
func (d *Durable) OnCommit(fn func(key string, value []byte, deleted, bulk bool)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.backing.OnCommit(fn)
}

// rec is one mutation to journal.
type rec struct {
	op    byte
	key   string
	value []byte
}

// journalLocked appends the records to the log and returns once a sync
// covers them (at once under FsyncNever). On failure nothing is applied; a
// failed write or sync has made the whole log fail-stop. On
// success the caller applies the records and then calls appliedLocked.
func (d *Durable) journalLocked(recs ...rec) error {
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return d.failed
	}
	last, err := d.log.append(d.shard, recs)
	if err != nil {
		return err
	}
	d.seq = last
	return nil
}

// appliedLocked finishes records that were journaled and then applied, with
// the backing store's error. A refusal leaves a record in the log that the
// member does not serve and replay would apply, so the member goes
// fail-stop.
func (d *Durable) appliedLocked(applyErr error) error {
	if applyErr != nil {
		d.failed = fmt.Errorf("store: wal holds seq %d that the backing store refused: %w", d.seq, applyErr)
		return d.failed
	}
	return nil
}

// unlock releases mu and then lets the log take a checkpoint if one is due:
// a checkpoint takes each member's mu in turn, so it must not start while
// this one is held.
func (d *Durable) unlock() {
	d.mu.Unlock()
	d.log.checkpointIfDue()
}

// --- Backing implementation: mutations journal, then apply; reads delegate. ---

// Put journals the write and applies it to the backing store.
func (d *Durable) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	d.mu.Lock()
	defer d.unlock()
	r := rec{op: opPut, key: key, value: value}
	if err := d.journalLocked(r); err != nil {
		return memcache.Item{}, err
	}
	it, err := d.backing.Put(key, value, ttl)
	return it, d.appliedLocked(err)
}

// CAS journals and applies the conditional write only when its version
// check holds; a conflict leaves no trace in the log.
func (d *Durable) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error) {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return memcache.Item{}, ErrClosed
	}
	if !d.versionIs(key, expectedVersion) {
		// The backing store reports the conflict, and the item it holds.
		return d.backing.CAS(key, value, ttl, expectedVersion)
	}
	r := rec{op: opPut, key: key, value: value}
	if err := d.journalLocked(r); err != nil {
		return memcache.Item{}, err
	}
	it, err := d.backing.CAS(key, value, ttl, expectedVersion)
	return it, d.appliedLocked(err)
}

// versionIs reports whether key is stored at version, 0 meaning absent: the
// check a CAS makes, read under mu before anything is journaled.
func (d *Durable) versionIs(key string, version uint64) bool {
	if version == 0 {
		return !d.backing.Contains(key)
	}
	it, err := d.backing.Get(key)
	return err == nil && it.Version == version
}

// Delete journals the deletion and removes the key; a miss is not logged.
func (d *Durable) Delete(key string) error {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return ErrClosed
	}
	if !d.backing.Contains(key) {
		return d.backing.Delete(key) // the backing store reports the miss
	}
	r := rec{op: opDelete, key: key}
	if err := d.journalLocked(r); err != nil {
		return err
	}
	return d.appliedLocked(d.backing.Delete(key))
}

// PutBatch journals the batch as one append (one covering fsync) and applies
// it.
func (d *Durable) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if len(kvs) == 0 {
		return d.backing.PutBatch(kvs)
	}
	recs := make([]rec, len(kvs))
	for i, kv := range kvs {
		recs[i] = rec{op: opPut, key: kv.Key, value: kv.Value}
	}
	if err := d.journalLocked(recs...); err != nil {
		return nil, err
	}
	items, err := d.backing.PutBatch(kvs)
	return items, d.appliedLocked(err)
}

// DeleteBatch journals every requested deletion as one append and removes
// the keys. Absent keys are journaled too: replaying a delete of a missing
// key is a no-op, and logging the full request keeps the append one frame
// batch instead of a read-check per key.
func (d *Durable) DeleteBatch(keys []string) (int, error) {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if len(keys) == 0 {
		return d.backing.DeleteBatch(keys)
	}
	recs := make([]rec, len(keys))
	for i, k := range keys {
		recs[i] = rec{op: opDelete, key: k}
	}
	if err := d.journalLocked(recs...); err != nil {
		return 0, err
	}
	n, err := d.backing.DeleteBatch(keys)
	return n, d.appliedLocked(err)
}

// Get delegates to the backing store.
func (d *Durable) Get(key string) (memcache.Item, error) { return d.backing.Get(key) }

// Contains delegates to the backing store.
func (d *Durable) Contains(key string) bool { return d.backing.Contains(key) }

// Snapshot delegates to the backing store.
func (d *Durable) Snapshot() []memcache.Item { return d.backing.Snapshot() }

// Len delegates to the backing store.
func (d *Durable) Len() int { return d.backing.Len() }

// GetBatch delegates to the backing store.
func (d *Durable) GetBatch(keys []string) ([]memcache.Item, []string, error) {
	return d.backing.GetBatch(keys)
}

// Compact checkpoints the log now, snapshotting every member (mainly for
// tests and an operator escape hatch).
func (d *Durable) Compact() error {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ErrClosed
	}
	d.log.cpMu.Lock()
	defer d.log.cpMu.Unlock()
	return d.log.checkpoint()
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// rmGlob best-effort removes every match.
func rmGlob(dir, pattern string) {
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return
	}
	for _, m := range matches {
		os.Remove(m)
	}
}
