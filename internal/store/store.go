// Package store gives a registry shard a durable local state: an append-only
// write-ahead log of put/delete records plus periodic compacted snapshots,
// replayed on open so a restarted shard serves its key range from disk
// instead of leaning on the router's R-way re-sync sweep.
//
// A Durable wraps any Backing (in practice a *memcache.Cache) and logs every
// successful mutation before reporting it applied. The on-disk layout of a
// store directory is
//
//	wal-<firstseq>.log   append-only segments of length-prefixed, CRC-checked
//	                     frames (see wal.go for the record format)
//	snap-<seq>.db        compacted snapshots: the full key/value state as of
//	                     sequence number <seq> (see snapshot.go)
//
// Recovery loads the newest valid snapshot, replays every log record with a
// higher sequence number, and truncates a torn tail write (a partial frame
// at the end of the last segment — the signature of a crash mid-append).
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
// before being reported applied, with periodic snapshot compaction. It
// satisfies Backing itself (and therefore registry.Store), so it drops into
// an Instance in place of the bare cache.
//
// All mutations serialize on one mutex so the log order is exactly the
// apply order — replay then reconstructs the same final state even for
// racing writes to one key. Reads go straight to the backing store and
// never touch the log or its lock.
type Durable struct {
	backing Backing
	dir     string
	opts    Options

	mu        sync.Mutex
	f         *os.File // active segment, opened for append
	size      int64    // bytes in the active segment (tracked, not Seek'd)
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
// sequence number. It is invoked under the store's mutation mutex, so the
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
	n, err := d.f.Write(d.buf)
	if err == nil {
		d.size += int64(n)
		if d.opts.fsync == FsyncAlways {
			if err = d.f.Sync(); err == nil {
				d.syncs++
			} else {
				err = fmt.Errorf("store: syncing wal: %w", err)
			}
		}
	} else {
		err = fmt.Errorf("store: appending to wal: %w", err)
	}
	if err != nil {
		// Cut the segment back to the last good frame boundary. If that
		// works the store stays usable; if not, its tail is unknown and
		// every further append could land after garbage.
		if terr := d.f.Truncate(prevSize); terr != nil {
			d.failed = fmt.Errorf("store: wal unusable after failed append (truncate: %v): %w", terr, err)
			return d.failed
		}
		d.seq, d.size = prevSeq, prevSize
		return err
	}
	d.appends += int64(len(recs))
	d.sinceSnap += len(recs)
	if d.sink != nil {
		// Emit under mu, after the batch is durably on disk, so feed order
		// is exactly log order and no acknowledged write goes unpublished.
		seq := prevSeq
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

// --- Backing implementation: mutations journal, reads delegate. ---

// Put applies the write to the backing store and journals it.
func (d *Durable) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return memcache.Item{}, ErrClosed
	}
	it, err := d.backing.Put(key, value, ttl)
	if err != nil {
		return it, err
	}
	if err := d.appendLocked(rec{op: opPut, key: key, value: value}); err != nil {
		return it, err
	}
	return it, nil
}

// CAS applies the conditional write and journals it only when it succeeded;
// a version conflict leaves no trace in the log.
func (d *Durable) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return memcache.Item{}, ErrClosed
	}
	it, err := d.backing.CAS(key, value, ttl, expectedVersion)
	if err != nil {
		return it, err
	}
	if err := d.appendLocked(rec{op: opPut, key: key, value: value}); err != nil {
		return it, err
	}
	return it, nil
}

// Delete removes the key and journals the deletion; a miss is not logged.
func (d *Durable) Delete(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.backing.Delete(key); err != nil {
		return err
	}
	return d.appendLocked(rec{op: opDelete, key: key})
}

// PutBatch applies the batch and journals it as one append (one fsync).
func (d *Durable) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	items, err := d.backing.PutBatch(kvs)
	if err != nil {
		return items, err
	}
	if len(kvs) == 0 {
		return items, nil
	}
	recs := make([]rec, len(kvs))
	for i, kv := range kvs {
		recs[i] = rec{op: opPut, key: kv.Key, value: kv.Value, sync: true}
	}
	if err := d.appendLocked(recs...); err != nil {
		return items, err
	}
	return items, nil
}

// DeleteBatch removes the keys and journals every requested deletion as one
// append. Absent keys are journaled too: replaying a delete of a missing
// key is a no-op, and logging the full request keeps the append one frame
// batch instead of a read-check per key.
func (d *Durable) DeleteBatch(keys []string) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
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
	n, err := d.backing.DeleteBatch(keys)
	if err != nil {
		return n, err
	}
	if len(keys) == 0 {
		return n, nil
	}
	recs := make([]rec, len(keys))
	for i, k := range keys {
		recs[i] = rec{op: opDelete, key: k, noEvent: existed != nil && !existed[i], sync: true}
	}
	if err := d.appendLocked(recs...); err != nil {
		return n, err
	}
	return n, nil
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
