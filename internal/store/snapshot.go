package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"geomds/internal/memcache"
)

// Snapshot file format. A snapshot is the complete key/value state as of
// one sequence number, so recovery can skip every log record at or below
// it. The file is
//
//	8-byte magic | u64 snapshot sequence number | frames...
//
// with the same u32-length/u32-CRC framing as the WAL. Each frame payload
// starts with a kind byte: kind 1 is one key/value pair
// (u32 key length | key | u32 value length | value), kind 2 is the footer
// (u64 record count), which must be the file's last frame. A snapshot
// missing its footer — a crash mid-write, though the write-to-temp-and-rename
// protocol makes that window tiny — is invalid as a whole and recovery
// falls back to an older snapshot (or none) plus a longer log replay.
//
// Snapshots are written to a temporary name that the discovery glob does
// not match, fsynced, then renamed into place; old segments and snapshots
// are deleted only after the new snapshot and the rename are durable.

const (
	snapMagic = "GMDSSNP1"

	snapKindKV     = byte(1)
	snapKindFooter = byte(2)
)

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.db", seq) }

// listSnapshots returns the directory's snapshots, newest first.
func listSnapshots(dir string) ([]segment, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil {
		return nil, err
	}
	snaps := make([]segment, 0, len(matches))
	for _, m := range matches {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "snap-%016x.db", &seq); err != nil {
			continue
		}
		snaps = append(snaps, segment{path: m, first: seq})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].first > snaps[j].first })
	return snaps, nil
}

// loadSnapshot decodes and validates one snapshot file in full. Any damage
// — bad magic, checksum failure, missing or mismatched footer, trailing
// frames — invalidates the whole file.
func loadSnapshot(path string) ([]memcache.KV, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading snapshot %s: %w", path, err)
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("store: snapshot %s has bad header: %w", path, ErrCorrupt)
	}
	seq := binary.BigEndian.Uint64(data[len(snapMagic):])
	off := len(snapMagic) + 8
	var kvs []memcache.KV
	sawFooter := false
	for off < len(data) {
		if sawFooter {
			return nil, 0, fmt.Errorf("store: snapshot %s has frames after its footer: %w", path, ErrCorrupt)
		}
		if off+frameHeaderLen > len(data) {
			return nil, 0, fmt.Errorf("store: snapshot %s truncated at offset %d: %w", path, off, ErrCorrupt)
		}
		plen := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		end := off + frameHeaderLen + plen
		if plen < 1 || end > len(data) {
			return nil, 0, fmt.Errorf("store: snapshot %s truncated at offset %d: %w", path, off, ErrCorrupt)
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, castagnoli) != crc {
			return nil, 0, fmt.Errorf("store: snapshot %s checksum mismatch at offset %d: %w", path, off, ErrCorrupt)
		}
		switch payload[0] {
		case snapKindKV:
			kv, err := parseSnapshotKV(payload[1:])
			if err != nil {
				return nil, 0, fmt.Errorf("store: snapshot %s: %w", path, err)
			}
			kvs = append(kvs, kv)
		case snapKindFooter:
			if len(payload) != 1+8 {
				return nil, 0, fmt.Errorf("store: snapshot %s has malformed footer: %w", path, ErrCorrupt)
			}
			if count := binary.BigEndian.Uint64(payload[1:]); count != uint64(len(kvs)) {
				return nil, 0, fmt.Errorf("store: snapshot %s footer count %d != %d records: %w", path, count, len(kvs), ErrCorrupt)
			}
			sawFooter = true
		default:
			return nil, 0, fmt.Errorf("store: snapshot %s has unknown frame kind %d: %w", path, payload[0], ErrCorrupt)
		}
		off = end
	}
	if !sawFooter {
		return nil, 0, fmt.Errorf("store: snapshot %s is missing its footer (partial write): %w", path, ErrCorrupt)
	}
	return kvs, seq, nil
}

func parseSnapshotKV(p []byte) (memcache.KV, error) {
	if len(p) < 4 {
		return memcache.KV{}, fmt.Errorf("store: snapshot record too short: %w", ErrCorrupt)
	}
	klen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if klen < 0 || klen+4 > len(p) {
		return memcache.KV{}, fmt.Errorf("store: snapshot record has bad key length %d: %w", klen, ErrCorrupt)
	}
	kv := memcache.KV{Key: string(p[:klen])}
	p = p[klen:]
	vlen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if vlen != len(p) {
		return memcache.KV{}, fmt.Errorf("store: snapshot record has bad value length %d (have %d): %w", vlen, len(p), ErrCorrupt)
	}
	if vlen > 0 {
		kv.Value = append([]byte(nil), p...)
	}
	return kv, nil
}

// loadNewestSnapshot applies the newest snapshot that validates in full to
// the backing store and returns its sequence number; invalid snapshots are
// counted and skipped in favour of older ones, and 0 means "no snapshot,
// replay the log from the beginning".
func (d *Durable) loadNewestSnapshot() (uint64, error) {
	snaps, err := listSnapshots(d.dir)
	if err != nil {
		return 0, fmt.Errorf("store: listing snapshots: %w", err)
	}
	for _, s := range snaps {
		kvs, seq, err := loadSnapshot(s.path)
		if err != nil {
			d.snapSkipped++
			continue
		}
		if len(kvs) > 0 {
			if _, err := d.backing.PutBatch(kvs); err != nil {
				return 0, fmt.Errorf("store: applying snapshot %s: %w", s.path, err)
			}
		}
		return seq, nil
	}
	return 0, nil
}

// compactLocked writes a snapshot of the backing store at the current
// sequence number, rotates the WAL onto a fresh segment and deletes every
// log segment and snapshot the new one supersedes. Caller holds d.mu.
func (d *Durable) compactLocked() error {
	if d.failed != nil {
		return d.failed
	}
	snapSeq := d.seq
	items := d.backing.Snapshot()

	tmp := filepath.Join(d.dir, fmt.Sprintf("snap-%016x.tmp", snapSeq))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	buf := make([]byte, 0, 64+len(items)*64)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, snapSeq)
	scratch := make([]byte, 0, 256)
	for _, it := range items {
		scratch = scratch[:0]
		scratch = append(scratch, snapKindKV)
		scratch = binary.BigEndian.AppendUint32(scratch, uint32(len(it.Key)))
		scratch = append(scratch, it.Key...)
		scratch = binary.BigEndian.AppendUint32(scratch, uint32(len(it.Value)))
		scratch = append(scratch, it.Value...)
		buf = appendFrame(buf, scratch)
	}
	scratch = scratch[:0]
	scratch = append(scratch, snapKindFooter)
	scratch = binary.BigEndian.AppendUint64(scratch, uint64(len(items)))
	buf = appendFrame(buf, scratch)

	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(buf); err != nil {
		return cleanup(fmt.Errorf("store: writing snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("store: syncing snapshot: %w", err))
	}
	d.syncs++
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	final := filepath.Join(d.dir, snapshotName(snapSeq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}

	// The snapshot is durable; rotate the log onto a fresh segment and drop
	// everything it supersedes.
	nf, err := createSegment(d.dir, snapSeq+1)
	if err != nil {
		return err
	}
	if cerr := d.f.Close(); cerr != nil {
		nf.Close()
		return fmt.Errorf("store: closing rotated segment: %w", cerr)
	}
	d.f, d.size, d.alloc = nf, int64(len(walMagic)), segmentChunk
	d.sinceSnap = 0
	d.snapshots++
	rmGlob(d.dir, "wal-*.log", segmentName(snapSeq+1))
	rmGlob(d.dir, "snap-*.db", snapshotName(snapSeq))
	rmGlob(d.dir, "snap-*.tmp", "")
	return nil
}

// appendFrame appends one checksummed frame around payload.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}
