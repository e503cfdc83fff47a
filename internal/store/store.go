// Package store gives a registry shard a durable local state: a write-ahead
// log of put/delete records plus periodic compacted snapshots, replayed on
// open so a restarted shard serves its key range from disk instead of
// leaning on the router's R-way re-sync sweep.
//
// A Durable wraps any Backing (in practice a *memcache.Cache) and journals
// every mutation before applying it. The on-disk layout of a store
// directory is
//
//	wal-<firstseq>.log   segments of length-prefixed, CRC-checked frames,
//	                     written in place into preallocated zeros (see
//	                     wal.go for the record format)
//	snap-<seq>.db        compacted snapshots: the full key/value state as of
//	                     sequence number <seq> (see snapshot.go)
//
// Recovery loads the newest valid snapshot, replays every log record with a
// higher sequence number, and truncates a torn tail write (a frame at the
// end of the last segment's log that a crash mid-append left incomplete).
// Corruption anywhere else is refused: a checksum failure in the middle of
// the log means records after it would be silently lost, so Open fails
// rather than resurrect a hole.
//
// Two fsync policies are offered. FsyncAlways (the default) syncs the log
// after every append batch, so an acknowledged write survives an OS crash.
// FsyncNever issues the write() but leaves syncing to snapshots and Close —
// an acknowledged write then survives a process crash but not a machine
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
type Backing interface {
	Get(key string) (memcache.Item, error)
	Put(key string, value []byte, ttl time.Duration) (memcache.Item, error)
	CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error)
	Delete(key string) error
	Contains(key string) bool
	Keys() []string
	Snapshot() []memcache.Item
	Len() int
	GetBatch(keys []string) (found []memcache.Item, missing []string, err error)
	PutBatch(kvs []memcache.KV) ([]memcache.Item, error)
	DeleteBatch(keys []string) (int, error)
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
)

// DefaultCompactEvery is the number of logged records between automatic
// snapshot compactions.
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

// WithCompactEvery sets how many logged records trigger an automatic
// snapshot compaction (default DefaultCompactEvery). Values <= 0 keep the
// default; pick a large value to effectively disable compaction in tests.
func WithCompactEvery(n int) Option {
	return func(o *Options) {
		if n > 0 {
			o.compactEvery = n
		}
	}
}

// LogStats is a point-in-time snapshot of a Durable's log counters.
type LogStats struct {
	Seq              uint64 // sequence number of the last logged record
	Recovered        uint64 // sequence number recovered by Open (0 for a fresh dir)
	Appends          int64  // records appended since Open
	Syncs            int64  // fsync calls issued (appends, snapshots, Close)
	Snapshots        int64  // compactions completed since Open
	SnapshotsSkipped int64  // invalid snapshots ignored during recovery
	TornTails        int64  // torn tail writes truncated during recovery
	CompactionErrors int64  // best-effort compactions that failed
}

// Durable is a Backing whose mutations are journaled to an on-disk WAL
// before they are applied, with periodic snapshot compaction. It satisfies
// Backing itself (and therefore registry.Store), so it drops into an
// Instance in place of the bare cache.
//
// All mutations serialize on one mutex so the log order is exactly the
// apply order — replay then reconstructs the same final state even for
// racing writes to one key. A mutation is journaled, then applied, then
// emitted to the EventSink, and only then may compaction run, so neither a
// reader nor a snapshot sees a write the log does not hold. Reads go
// straight to the backing store and never touch the log or its lock.
type Durable struct {
	backing Backing
	dir     string
	opts    Options

	mu        sync.Mutex
	f         *os.File // active segment
	size      int64    // where the log in the active segment ends
	alloc     int64    // bytes the active segment holds: zeros past size
	seq       uint64   // last logged sequence number
	recovered uint64   // seq as of Open
	sinceSnap int      // records logged since the last snapshot
	closed    bool
	failed    error // sticky I/O failure: the log state is unknown, fail stop
	buf       []byte

	// sink observes journaled mutations under mu (the change-feed tap).
	sink EventSink

	appends, syncs, snapshots, snapSkipped, tornTails, compactErrs int64
}

// Open opens (creating if needed) the store directory, recovers the backing
// store from the newest valid snapshot plus the surviving log, and returns
// a Durable ready for writes. The backing store must be empty: recovery
// replays into it.
func Open(dir string, backing Backing, opts ...Option) (*Durable, error) {
	o := Options{fsync: FsyncAlways, compactEvery: DefaultCompactEvery}
	for _, opt := range opts {
		opt(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	d := &Durable{backing: backing, dir: dir, opts: o}
	if err := d.recover(); err != nil {
		if d.f != nil {
			d.f.Close()
		}
		return nil, err
	}
	return d, nil
}

// Seq returns the sequence number of the last logged record.
func (d *Durable) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Recovered returns the sequence number recovered by Open — the durable
// high-water mark this store restarted from (0 for a fresh directory).
func (d *Durable) Recovered() uint64 { return d.recovered }

// LogStats returns a snapshot of the log counters.
func (d *Durable) LogStats() LogStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return LogStats{
		Seq:              d.seq,
		Recovered:        d.recovered,
		Appends:          d.appends,
		Syncs:            d.syncs,
		Snapshots:        d.snapshots,
		SnapshotsSkipped: d.snapSkipped,
		TornTails:        d.tornTails,
		CompactionErrors: d.compactErrs,
	}
}

// Close flushes and fsyncs the log, then closes the segment file. It always
// syncs, regardless of the fsync policy, so Close followed by Open is
// lossless even under FsyncNever. Close is idempotent; mutations after
// Close return ErrClosed.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.f == nil {
		return nil
	}
	var firstErr error
	if err := d.f.Sync(); err != nil {
		firstErr = fmt.Errorf("store: syncing log on close: %w", err)
	} else {
		d.syncs++
	}
	if err := d.f.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("store: closing log: %w", err)
	}
	d.f = nil
	return firstErr
}

// Exported record kinds, for EventSink consumers.
const (
	// OpPut marks an upsert record.
	OpPut = opPut
	// OpDelete marks a removal record.
	OpDelete = opDelete
)

// EventSink receives every state-changing journaled mutation with its WAL
// sequence number, once the mutation is applied, so a read the event
// prompts sees it. It is invoked under the store's mutation mutex, so the
// emission order is exactly the log order; sinks must be fast and must not
// call back into the store. Deletes of absent keys — journaled for frame
// batching but changing no state — are suppressed, so sequence numbers seen
// by a sink may have holes. sync reports that the mutation arrived through
// the bulk-apply path (PutBatch/DeleteBatch, i.e. a replication batch or
// migration sweep) rather than a primary single-key write.
type EventSink func(seq uint64, op byte, key string, value []byte, sync bool)

// SetEventSink installs the sink that observes journaled mutations (the
// change feed's tap). Install it before the store serves mutations —
// typically right after Open — so no committed write goes unobserved.
func (d *Durable) SetEventSink(fn EventSink) {
	d.mu.Lock()
	d.sink = fn
	d.mu.Unlock()
}

// rec is one mutation to journal.
type rec struct {
	op    byte
	key   string
	value []byte
	// noEvent suppresses the EventSink for records that change no state
	// (deletes of absent keys).
	noEvent bool
	// sync marks records journaled by the bulk-apply path (see EventSink).
	sync bool
}

// appendLocked journals the records, assigning consecutive sequence
// numbers, as one write (and one fsync under FsyncAlways). On failure it
// rolls the segment and the sequence counter back so the log never holds a
// half-written batch; if even the rollback fails the store goes fail-stop.
// On success the caller applies the records and then calls appliedLocked.
func (d *Durable) appendLocked(recs ...rec) error {
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return d.failed
	}
	prevSeq, prevSize := d.seq, d.size
	d.buf = d.buf[:0]
	for _, rc := range recs {
		d.seq++
		d.buf = appendRecordFrame(d.buf, d.seq, rc.op, rc.key, rc.value)
	}
	err := d.writeLocked(d.buf)
	if err == nil && d.opts.fsync == FsyncAlways {
		if err = d.f.Sync(); err == nil {
			d.syncs++
		} else {
			err = fmt.Errorf("store: syncing wal: %w", err)
		}
	}
	if err != nil {
		// Cut the segment back to the last good frame boundary; the next
		// append zero-fills from there. If that works the store stays
		// usable; if not, its tail is unknown and every further append
		// could land after garbage.
		if terr := d.f.Truncate(prevSize); terr != nil {
			d.failed = fmt.Errorf("store: wal unusable after failed append (truncate: %v): %w", terr, err)
			return d.failed
		}
		d.seq, d.size, d.alloc = prevSeq, prevSize, prevSize
		return err
	}
	d.appends += int64(len(recs))
	d.sinceSnap += len(recs)
	return nil
}

// writeLocked writes frames at the log end, first growing the segment by
// whole zero chunks until a zero frame header still fits after them, so
// the write itself never changes the file's size.
func (d *Durable) writeLocked(frames []byte) error {
	end := d.size + int64(len(frames))
	for end+frameHeaderLen > d.alloc {
		if _, err := d.f.WriteAt(zeroChunk[:], d.alloc); err != nil {
			return fmt.Errorf("store: growing wal segment: %w", err)
		}
		d.alloc += segmentChunk
	}
	if _, err := d.f.WriteAt(frames, d.size); err != nil {
		return fmt.Errorf("store: appending to wal: %w", err)
	}
	d.size = end
	return nil
}

// appliedLocked finishes records that were journaled and then applied, with
// the backing store's error. A refusal leaves a record in the log that the
// store does not serve and replay would apply, so the store goes fail-stop.
// Otherwise the records are emitted to the sink — after the apply, so a
// read the event prompts sees them — and compaction runs if due, never
// between a record's journaling and its apply.
func (d *Durable) appliedLocked(applyErr error, recs ...rec) error {
	if applyErr != nil {
		d.failed = fmt.Errorf("store: wal holds seq %d that the backing store refused: %w", d.seq, applyErr)
		return d.failed
	}
	if d.sink != nil {
		// Emit under mu, after the batch is on disk and applied, so feed
		// order is exactly log order and no acknowledged write goes
		// unpublished.
		seq := d.seq - uint64(len(recs))
		for _, rc := range recs {
			seq++
			if !rc.noEvent {
				d.sink(seq, rc.op, rc.key, rc.value, rc.sync)
			}
		}
	}
	if d.sinceSnap >= d.opts.compactEvery {
		// Compaction is best effort: a failed snapshot leaves the log
		// longer, not the data wrong.
		if cerr := d.compactLocked(); cerr != nil {
			d.compactErrs++
		}
	}
	return nil
}

// --- Backing implementation: mutations journal, then apply; reads delegate. ---

// Put journals the write and applies it to the backing store.
func (d *Durable) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := rec{op: opPut, key: key, value: value}
	if err := d.appendLocked(r); err != nil {
		return memcache.Item{}, err
	}
	it, err := d.backing.Put(key, value, ttl)
	return it, d.appliedLocked(err, r)
}

// CAS journals and applies the conditional write only when its version
// check holds; a conflict leaves no trace in the log.
func (d *Durable) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return memcache.Item{}, ErrClosed
	}
	if !d.versionIs(key, expectedVersion) {
		// The backing store reports the conflict, and the item it holds.
		return d.backing.CAS(key, value, ttl, expectedVersion)
	}
	r := rec{op: opPut, key: key, value: value}
	if err := d.appendLocked(r); err != nil {
		return memcache.Item{}, err
	}
	it, err := d.backing.CAS(key, value, ttl, expectedVersion)
	return it, d.appliedLocked(err, r)
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
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if !d.backing.Contains(key) {
		return d.backing.Delete(key) // the backing store reports the miss
	}
	r := rec{op: opDelete, key: key}
	if err := d.appendLocked(r); err != nil {
		return err
	}
	return d.appliedLocked(d.backing.Delete(key), r)
}

// PutBatch journals the batch as one append (one fsync) and applies it.
func (d *Durable) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if len(kvs) == 0 {
		return d.backing.PutBatch(kvs)
	}
	recs := make([]rec, len(kvs))
	for i, kv := range kvs {
		recs[i] = rec{op: opPut, key: kv.Key, value: kv.Value, sync: true}
	}
	if err := d.appendLocked(recs...); err != nil {
		return nil, err
	}
	items, err := d.backing.PutBatch(kvs)
	return items, d.appliedLocked(err, recs...)
}

// DeleteBatch journals every requested deletion as one append and removes
// the keys. Absent keys are journaled too: replaying a delete of a missing
// key is a no-op, and logging the full request keeps the append one frame
// batch instead of a read-check per key.
func (d *Durable) DeleteBatch(keys []string) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if len(keys) == 0 {
		return d.backing.DeleteBatch(keys)
	}
	// The sink only reports state changes, so record which keys actually
	// exist before the batch removes them. Checked under mu, so no mutation
	// can race the check.
	var existed []bool
	if d.sink != nil {
		existed = make([]bool, len(keys))
		for i, k := range keys {
			existed[i] = d.backing.Contains(k)
		}
	}
	recs := make([]rec, len(keys))
	for i, k := range keys {
		recs[i] = rec{op: opDelete, key: k, noEvent: existed != nil && !existed[i], sync: true}
	}
	if err := d.appendLocked(recs...); err != nil {
		return 0, err
	}
	n, err := d.backing.DeleteBatch(keys)
	return n, d.appliedLocked(err, recs...)
}

// Get delegates to the backing store.
func (d *Durable) Get(key string) (memcache.Item, error) { return d.backing.Get(key) }

// Contains delegates to the backing store.
func (d *Durable) Contains(key string) bool { return d.backing.Contains(key) }

// Keys delegates to the backing store.
func (d *Durable) Keys() []string { return d.backing.Keys() }

// Snapshot delegates to the backing store.
func (d *Durable) Snapshot() []memcache.Item { return d.backing.Snapshot() }

// Len delegates to the backing store.
func (d *Durable) Len() int { return d.backing.Len() }

// GetBatch delegates to the backing store.
func (d *Durable) GetBatch(keys []string) ([]memcache.Item, []string, error) {
	return d.backing.GetBatch(keys)
}

// Compact forces a snapshot compaction now (mainly for tests and an
// operator escape hatch).
func (d *Durable) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.compactLocked()
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

// rmGlob best-effort removes every match except keep.
func rmGlob(dir, pattern, keep string) {
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return
	}
	for _, m := range matches {
		if filepath.Base(m) == keep {
			continue
		}
		os.Remove(m)
	}
}
