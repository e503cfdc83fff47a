package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"

	"geomds/internal/memcache"
)

// WAL record format (storage generation 2). A data directory holds one log,
// shared by every member opened over it. A segment file is the 8-byte magic
// followed by frames:
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// and each payload is one mutation record:
//
//	u64 sequence number | u8 shard (the member's index) |
//	u8 op (1 = put, 2 = delete) |
//	u32 key length | key bytes | u32 value length | value bytes
//
// All integers are big-endian. Sequence numbers come from one counter for
// the whole log, assigned consecutively from 1 across its lifetime, so each
// member's numbers are monotonic with holes. Segment file names carry the
// first sequence number they may contain (wal-<first, hex>.log), so recovery
// replays segments in name order; a record naming a shard the log has no
// member for is ErrCorrupt.
//
// Frames are written in place, into zeros the segment already holds: a
// segment is created as the magic plus zeros up to segmentChunk, and grows
// by whole zero chunks before an append would leave less than a frame
// header of zeros after it. An fsync then commits the appended bytes and
// no new file size. Segments written append-only, with no zero tail, read
// the same way.
//
// Group commit. A mutation writes its frames under the log's lock and then
// waits for a sync that covers its end offset. A waiter with no sync in
// flight leads one: it yields once, so that a sibling replica's append that
// is already runnable lands in the same sync, then captures the log's end
// and fsyncs without the lock. The others wait for it. There is no timer
// and no batching delay. A failed write or fsync makes the log fail-stop:
// every caller it should have covered gets the error, none of their records
// is applied or emitted, and every later mutation is refused.
//
// The log in a segment ends at EOF or at the first length word of 0, where
// the zero tail begins. In the last segment a frame that fails is a torn
// append, truncated away by Open, when
//   - it runs past EOF, or
//   - its checksum fails and nothing but zeros follows it, or it covers a
//     whole file-aligned sector of zeros (an append a power loss cut short
//     before every sector reached the disk).
//
// Any other failure, and any failure in an earlier segment, is ErrCorrupt:
// a checksum failure with intact, non-zero bytes after it would drop
// acknowledged records. The rule assumes a sector that was synced is never
// read back as all zeros.

const (
	walMagic = "GMDSWAL2"
	opPut    = byte(1)
	opDelete = byte(2)

	frameHeaderLen = 8 // u32 length + u32 crc

	// segmentChunk is the unit of zeros a segment is created with and
	// grows by.
	segmentChunk = 256 << 10
	// sectorSize is the write unit the torn-append rule assumes a power
	// loss can leave unwritten.
	sectorSize = 512
	// maxMembers is how many members the shard byte can name.
	maxMembers = 256
)

// The magics of storage generation 1, which had one log per member and no
// shard byte; Open refuses a directory holding either.
const (
	walMagicGen1  = "GMDSWAL1"
	snapMagicGen1 = "GMDSSNP1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroChunk is what a segment grows by; it is never written to.
var zeroChunk [segmentChunk]byte

// fileSync is how the log's group commit syncs a segment; tests replace it
// to hold a sync open or make it fail.
var fileSync = (*os.File).Sync

// appendRecordFrame appends one framed record to buf and returns the
// extended slice.
func appendRecordFrame(buf []byte, seq uint64, shard, op byte, key string, value []byte) []byte {
	hdr := len(buf)
	buf = append(buf, make([]byte, frameHeaderLen)...)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, shard, op)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, value...)
	payload := buf[hdr+frameHeaderLen:]
	binary.BigEndian.PutUint32(buf[hdr:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[hdr+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// walEntry is one decoded log record.
type walEntry struct {
	seq   uint64
	shard byte
	op    byte
	key   string
	value []byte
}

// parseRecord decodes a frame payload whose checksum already passed.
func parseRecord(payload []byte) (walEntry, error) {
	if len(payload) < 8+1+1+4 {
		return walEntry{}, fmt.Errorf("store: record payload too short (%d bytes): %w", len(payload), ErrCorrupt)
	}
	e := walEntry{seq: binary.BigEndian.Uint64(payload), shard: payload[8], op: payload[9]}
	if e.op != opPut && e.op != opDelete {
		return walEntry{}, fmt.Errorf("store: record seq %d has unknown op %d: %w", e.seq, e.op, ErrCorrupt)
	}
	rest := payload[10:]
	klen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if klen < 0 || klen+4 > len(rest) {
		return walEntry{}, fmt.Errorf("store: record seq %d has bad key length %d: %w", e.seq, klen, ErrCorrupt)
	}
	e.key = string(rest[:klen])
	rest = rest[klen:]
	vlen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if vlen != len(rest) {
		return walEntry{}, fmt.Errorf("store: record seq %d has bad value length %d (have %d): %w", e.seq, vlen, len(rest), ErrCorrupt)
	}
	if vlen > 0 {
		e.value = append([]byte(nil), rest...)
	}
	return e, nil
}

// readSegment decodes the frames of one segment file and returns them with
// logEnd, the offset where the segment's log ends. final marks the last
// (newest) segment, where a frame that fails the way a crash mid-append
// leaves it is tolerated: the function reports torn=true and logEnd is that
// frame's offset. Any other damage — or any damage in a non-final segment —
// means later records would be silently dropped, so the error wraps
// ErrCorrupt instead. The rules are in the format comment above.
func readSegment(path string, final bool) (entries []walEntry, logEnd int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("store: reading segment %s: %w", path, err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		if final {
			// Crash while the segment itself was being created: nothing in
			// it can be valid. logEnd < header tells the caller to drop
			// the file entirely.
			return nil, 0, true, nil
		}
		return nil, 0, false, fmt.Errorf("store: segment %s has bad magic: %w", path, ErrCorrupt)
	}
	off := len(walMagic)
	for off < len(data) {
		if off+4 <= len(data) && binary.BigEndian.Uint32(data[off:]) == 0 {
			break // the zero tail: space no append has reached
		}
		frameStart := off
		tornHere := func() ([]walEntry, int64, bool, error) {
			if final {
				return entries, int64(frameStart), true, nil
			}
			return nil, 0, false, fmt.Errorf("store: segment %s corrupt at offset %d: %w", path, frameStart, ErrCorrupt)
		}
		if off+frameHeaderLen > len(data) {
			return tornHere() // partial frame header at EOF
		}
		plen := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		end := off + frameHeaderLen + plen
		if plen < 0 || end > len(data) {
			return tornHere() // partial payload at EOF (or garbage length)
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, castagnoli) != crc {
			if allZero(data[end:]) || coversZeroSector(data, off, end) {
				return tornHere()
			}
			return nil, 0, false, fmt.Errorf("store: segment %s checksum mismatch at offset %d: %w", path, frameStart, ErrCorrupt)
		}
		e, err := parseRecord(payload)
		if err != nil {
			return nil, 0, false, err
		}
		entries = append(entries, e)
		off = end
	}
	return entries, int64(off), false, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// coversZeroSector reports whether data[start:end] contains a whole
// file-aligned sector of zeros.
func coversZeroSector(data []byte, start, end int) bool {
	for s := (start + sectorSize - 1) &^ (sectorSize - 1); s+sectorSize <= end; s += sectorSize {
		if allZero(data[s : s+sectorSize]) {
			return true
		}
	}
	return false
}

// segment is one discovered WAL segment file.
type segment struct {
	path  string
	first uint64 // first sequence number the segment may contain
}

// listSegments returns the directory's WAL segments in replay order.
func listSegments(dir string) ([]segment, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	segs := make([]segment, 0, len(matches))
	for _, m := range matches {
		var first uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "wal-%016x.log", &first); err != nil {
			continue // not ours; leave it alone
		}
		segs = append(segs, segment{path: m, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }

// createSegment creates a fresh segment whose first record will carry the
// given sequence number: the magic plus zeros up to segmentChunk, made
// durable with the creation. The log in it ends after the magic.
func createSegment(dir string, first uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment: %w", err)
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: writing segment magic: %w", err)
	}
	if _, err := f.WriteAt(zeroChunk[len(walMagic):], int64(len(walMagic))); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: zero-filling segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: syncing new segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: syncing directory: %w", err)
	}
	return f, nil
}

// wal is the write-ahead log of one data directory, shared by its members.
// Lock order: a member's mu, then the log's mu.
type wal struct {
	dir     string
	opts    Options
	members []*Durable

	mu        sync.Mutex
	cond      sync.Cond // broadcast when a sync ends; its L is &mu
	f         *os.File  // active segment
	first     uint64    // first sequence number the active segment may hold
	size      int64     // where the log in the active segment ends
	alloc     int64     // bytes the active segment holds: zeros past size
	seq       uint64    // last sequence number assigned
	written   int64     // bytes appended since Open, across segments
	synced    int64     // written as of the last completed sync
	syncing   bool      // a leader's fsync is in flight
	sinceSnap int       // records appended since the last checkpoint
	open      int       // members not yet closed
	failed    error     // sticky I/O failure: the log's state is unknown, fail stop
	buf       []byte

	// cpMu admits one checkpoint at a time.
	cpMu sync.Mutex

	appends, syncs, snapshots, snapSkipped, tornTails, compactErrs int64
}

// fail makes the log fail-stop with err, unless it already is, wakes every
// waiter, and returns the sticky error.
func (l *wal) fail(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("store: wal failed, no further writes: %w", err)
	}
	l.cond.Broadcast()
	return l.failed
}

// append journals recs for the member shard under consecutive sequence
// numbers and returns the last one once a sync covers them (at once under
// FsyncNever). The caller holds the member's mu.
func (l *wal) append(shard byte, recs []rec) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	l.buf = l.buf[:0]
	for _, rc := range recs {
		l.seq++
		l.buf = appendRecordFrame(l.buf, l.seq, shard, rc.op, rc.key, rc.value)
	}
	if err := l.writeLocked(l.buf); err != nil {
		return 0, l.fail(err)
	}
	l.appends += int64(len(recs))
	l.sinceSnap += len(recs)
	if l.opts.fsync == FsyncNever {
		return l.seq, nil
	}
	last := l.seq
	return last, l.syncLocked(l.written)
}

// writeLocked writes frames at the log end, first growing the segment by
// whole zero chunks until a zero frame header still fits after them, so
// the write itself never changes the file's size.
func (l *wal) writeLocked(frames []byte) error {
	end := l.size + int64(len(frames))
	for end+frameHeaderLen > l.alloc {
		if _, err := l.f.WriteAt(zeroChunk[:], l.alloc); err != nil {
			return fmt.Errorf("store: growing wal segment: %w", err)
		}
		l.alloc += segmentChunk
	}
	if _, err := l.f.WriteAt(frames, l.size); err != nil {
		return fmt.Errorf("store: appending to wal: %w", err)
	}
	l.size = end
	l.written += int64(len(frames))
	return nil
}

// syncLocked returns once a completed sync covers the log up to target, a
// write position. With no sync in flight the caller leads one: it yields
// once so that a sibling's append that is already runnable lands in this
// sync, then captures the log's end and fsyncs without mu. Otherwise it
// waits for the leader and looks again. The caller holds mu.
func (l *wal) syncLocked(target int64) error {
	for l.synced < target {
		if l.failed != nil {
			return l.failed
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		f, end := l.f, l.written
		l.mu.Unlock()
		err := fileSync(f)
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.fail(fmt.Errorf("store: syncing wal: %w", err))
			continue
		}
		l.synced = end
		l.syncs++
		l.cond.Broadcast()
	}
	return nil
}

// flushLocked syncs everything written once no leader's sync is in flight,
// holding mu throughout, as a rotation or a close must. A failed log whose
// written bytes are all synced has nothing to flush.
func (l *wal) flushLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.synced == l.written {
		return nil
	}
	if l.failed != nil {
		return l.failed
	}
	if err := fileSync(l.f); err != nil {
		return l.fail(fmt.Errorf("store: syncing wal: %w", err))
	}
	l.synced = l.written
	l.syncs++
	l.cond.Broadcast()
	return nil
}

// release is a member's close: it flushes the log and closes the segment
// once the last member is gone.
func (l *wal) release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if err := l.flushLocked(); err != nil {
		firstErr = fmt.Errorf("store: syncing log on close: %w", err)
	}
	if l.open--; l.open == 0 {
		if err := l.f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: closing log: %w", err)
		}
		l.f = nil
	}
	return firstErr
}

// checkpointIfDue takes a checkpoint once the log holds compactEvery records
// per member, unless one is already running. Compaction is best effort: a
// failed checkpoint leaves the log longer, not the data wrong.
func (l *wal) checkpointIfDue() {
	due := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.sinceSnap >= l.opts.compactEvery*len(l.members)
	}
	if !due() || !l.cpMu.TryLock() {
		return
	}
	defer l.cpMu.Unlock()
	if due() {
		if err := l.checkpoint(); err != nil {
			l.mu.Lock()
			l.compactErrs++
			l.mu.Unlock()
		}
	}
}

// checkpoint rotates the log onto a fresh segment, snapshots every member in
// turn, and then deletes what the snapshots supersede: every segment below
// the fresh one (all its records lie at or below each new snapshot) and
// each member's older snapshots. It takes one member's mu at a time, never
// two. The caller holds cpMu.
func (l *wal) checkpoint() error {
	l.mu.Lock()
	first, err := l.rotateLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	keep := make(map[string]bool, len(l.members))
	for _, m := range l.members {
		name, err := m.snapshot()
		if err != nil {
			return err
		}
		keep[name] = true
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	segs, _ := listSegments(l.dir)
	for _, s := range segs {
		if s.first < first {
			os.Remove(s.path)
		}
	}
	snaps, _ := listSnapshots(l.dir)
	for _, s := range snaps {
		if !keep[filepath.Base(s.path)] {
			os.Remove(s.path)
		}
	}
	rmGlob(l.dir, "snap-*.tmp")
	l.mu.Lock()
	l.snapshots++
	l.mu.Unlock()
	return nil
}

// rotateLocked makes every record written so far durable and moves the log
// onto a fresh segment, unless the active one holds no record yet. It
// returns the first sequence number of the active segment.
func (l *wal) rotateLocked() (uint64, error) {
	if l.open == 0 {
		return 0, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	if l.failed != nil {
		return 0, l.failed
	}
	l.sinceSnap = 0
	if l.size == int64(len(walMagic)) {
		return l.first, nil
	}
	nf, err := createSegment(l.dir, l.seq+1)
	if err != nil {
		return 0, err
	}
	l.f.Close() //nolint:errcheck // synced above; the handle is replaced either way
	l.f, l.first, l.size, l.alloc = nf, l.seq+1, int64(len(walMagic)), segmentChunk
	return l.first, nil
}

// checkGeneration refuses a directory that storage generation 1 wrote,
// before anything in it is replayed.
func checkGeneration(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil {
		return err
	}
	for _, path := range append(files, snaps...) {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		magic := make([]byte, len(walMagic))
		_, err = io.ReadFull(f, magic)
		f.Close()
		if err == nil && (string(magic) == walMagicGen1 || string(magic) == snapMagicGen1) {
			return fmt.Errorf("store: %s: %w", path, ErrGeneration)
		}
	}
	return nil
}

// recover rebuilds every member's backing store: each member's newest valid
// snapshot first, then one strict-ordered pass over the log, handing each
// record past its member's snapshot to that member. A torn tail in the last
// segment is truncated away; any other damage fails the open with
// ErrCorrupt.
func (l *wal) recover() error {
	if err := checkGeneration(l.dir); err != nil {
		return err
	}
	bases, err := l.loadSnapshots()
	if err != nil {
		return err
	}
	// Every segment that lies below every member's snapshot may have been
	// deleted; from the oldest snapshot on, the log must be whole.
	base, top := slices.Min(bases), slices.Max(bases)
	segs, err := listSegments(l.dir)
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	last := base
	var activeEnd int64 // log end of the newest segment kept
	for idx, seg := range segs {
		final := idx == len(segs)-1
		entries, logEnd, torn, err := readSegment(seg.path, final)
		if err != nil {
			return err
		}
		if torn {
			l.tornTails++
		}
		if logEnd < int64(len(walMagic)) {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("store: dropping torn segment %s: %w", seg.path, err)
			}
			segs = segs[:idx]
		} else {
			activeEnd = logEnd
		}
		for _, e := range entries {
			if int(e.shard) >= len(l.members) {
				return fmt.Errorf("store: record seq %d names shard %d of a %d-member log: %w", e.seq, e.shard, len(l.members), ErrCorrupt)
			}
			if e.seq <= base {
				continue // already covered by every snapshot
			}
			if e.seq != last+1 {
				return fmt.Errorf("store: sequence gap after %d (next surviving record is %d): %w", last, e.seq, ErrCorrupt)
			}
			last = e.seq
			if e.seq <= bases[e.shard] {
				continue // covered by this member's snapshot
			}
			m := l.members[e.shard]
			switch e.op {
			case opPut:
				if _, err := m.backing.Put(e.key, e.value, 0); err != nil {
					return fmt.Errorf("store: replaying put %q (seq %d): %w", e.key, e.seq, err)
				}
			case opDelete:
				if err := m.backing.Delete(e.key); err != nil && !errors.Is(err, memcache.ErrNotFound) {
					return fmt.Errorf("store: replaying delete %q (seq %d): %w", e.key, e.seq, err)
				}
			}
			m.seq = e.seq
		}
	}
	if last < top {
		// A checkpoint syncs the log before it snapshots, so the log
		// reaches every snapshot.
		return fmt.Errorf("store: a snapshot is at seq %d but the log ends at %d: %w", top, last, ErrCorrupt)
	}
	l.seq = last
	l.sinceSnap = int(last - base)
	for i, m := range l.members {
		m.seq = max(m.seq, bases[i])
		m.recovered = m.seq
	}

	if len(segs) > 0 {
		// Cut the active segment to its log end: the bytes of a torn append
		// go with its zero tail, and the first append re-extends it with
		// zeros, so nothing of the torn append can sit after a new record.
		active := segs[len(segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening active segment: %w", err)
		}
		if err := f.Truncate(activeEnd); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating %s to its log end: %w", active.path, err)
		}
		l.f, l.first, l.size, l.alloc = f, active.first, activeEnd, activeEnd
		return nil
	}
	f, err := createSegment(l.dir, last+1)
	if err != nil {
		return err
	}
	l.f, l.first, l.size, l.alloc = f, last+1, int64(len(walMagic)), segmentChunk
	return nil
}
