package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"geomds/internal/memcache"
)

// WAL record format. A segment file is the 8-byte magic followed by frames:
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// and each payload is one mutation record:
//
//	u64 sequence number | u8 op (1 = put, 2 = delete) |
//	u32 key length | key bytes | u32 value length | value bytes
//
// All integers are big-endian. Sequence numbers are assigned consecutively
// from 1 across the store's lifetime; segment file names carry the first
// sequence number they may contain (wal-<first, hex>.log), so recovery
// replays segments in name order.
//
// Frames are written in place, into zeros the segment already holds: a
// segment is created as the magic plus zeros up to segmentChunk, and grows
// by whole zero chunks before an append would leave less than a frame
// header of zeros after it. An fsync then commits the appended bytes and
// no new file size. Segments written append-only, with no zero tail, read
// the same way.
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
	walMagic = "GMDSWAL1"
	opPut    = byte(1)
	opDelete = byte(2)

	frameHeaderLen = 8 // u32 length + u32 crc

	// segmentChunk is the unit of zeros a segment is created with and
	// grows by.
	segmentChunk = 256 << 10
	// sectorSize is the write unit the torn-append rule assumes a power
	// loss can leave unwritten.
	sectorSize = 512
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroChunk is what a segment grows by; it is never written to.
var zeroChunk [segmentChunk]byte

// appendRecordFrame appends one framed record to buf and returns the
// extended slice.
func appendRecordFrame(buf []byte, seq uint64, op byte, key string, value []byte) []byte {
	hdr := len(buf)
	buf = append(buf, make([]byte, frameHeaderLen)...)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, op)
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
	op    byte
	key   string
	value []byte
}

// parseRecord decodes a frame payload whose checksum already passed.
func parseRecord(payload []byte) (walEntry, error) {
	if len(payload) < 8+1+4 {
		return walEntry{}, fmt.Errorf("store: record payload too short (%d bytes): %w", len(payload), ErrCorrupt)
	}
	e := walEntry{seq: binary.BigEndian.Uint64(payload), op: payload[8]}
	if e.op != opPut && e.op != opDelete {
		return walEntry{}, fmt.Errorf("store: record seq %d has unknown op %d: %w", e.seq, e.op, ErrCorrupt)
	}
	rest := payload[9:]
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

// recover rebuilds the backing store: newest valid snapshot first, then a
// strict-ordered replay of every log record past the snapshot's sequence
// number. A torn tail in the last segment is truncated away; any other
// damage fails the open with ErrCorrupt.
func (d *Durable) recover() error {
	base, err := d.loadNewestSnapshot()
	if err != nil {
		return err
	}
	segs, err := listSegments(d.dir)
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
			d.tornTails++
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
			if e.seq <= base {
				continue // already covered by the snapshot
			}
			if e.seq != last+1 {
				return fmt.Errorf("store: sequence gap after %d (next surviving record is %d): %w", last, e.seq, ErrCorrupt)
			}
			switch e.op {
			case opPut:
				if _, err := d.backing.Put(e.key, e.value, 0); err != nil {
					return fmt.Errorf("store: replaying put %q (seq %d): %w", e.key, e.seq, err)
				}
			case opDelete:
				if err := d.backing.Delete(e.key); err != nil && !errors.Is(err, memcache.ErrNotFound) {
					return fmt.Errorf("store: replaying delete %q (seq %d): %w", e.key, e.seq, err)
				}
			}
			last = e.seq
		}
	}
	d.seq, d.recovered = last, last
	d.sinceSnap = int(last - base)

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
		d.f, d.size, d.alloc = f, activeEnd, activeEnd
		return nil
	}
	f, err := createSegment(d.dir, last+1)
	if err != nil {
		return err
	}
	d.f, d.size, d.alloc = f, int64(len(walMagic)), segmentChunk
	return nil
}
