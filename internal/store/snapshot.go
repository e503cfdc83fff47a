package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"geomds/internal/memcache"
)

// Snapshot file format (storage generation 2). A snapshot is one member's
// complete key/value state as of one sequence number of the shared log, so
// recovery can skip that member's records at or below it. The file is
//
//	8-byte magic | u64 snapshot sequence number | frames...
//
// with the same u32-length/u32-CRC framing as the WAL, and it is named
// snap-<member>-<seq, hex>.db. Each frame payload starts with a kind byte:
// kind 1 is one key/value pair (u32 key length | key | u32 value length |
// value), kind 2 is the footer (u64 record count), which must be the file's
// last frame. A snapshot missing its footer — a crash mid-write, though the
// write-to-temp-and-rename protocol makes that window tiny — is invalid as a
// whole and recovery falls back to an older snapshot of that member (or
// none) plus a longer log replay.
//
// Snapshots are written to a temporary name that the discovery glob does
// not match, fsynced, then renamed into place; old segments and snapshots
// are deleted only after every member's new snapshot and the renames are
// durable.

const (
	snapMagic = "GMDSSNP2"

	snapKindKV     = byte(1)
	snapKindFooter = byte(2)
)

func snapshotName(member int, seq uint64) string {
	return fmt.Sprintf("snap-%d-%016x.db", member, seq)
}

// snapFile is one discovered snapshot file.
type snapFile struct {
	path   string
	member int
	seq    uint64
}

// listSnapshots returns the directory's snapshots, newest first.
func listSnapshots(dir string) ([]snapFile, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil {
		return nil, err
	}
	snaps := make([]snapFile, 0, len(matches))
	for _, m := range matches {
		s := snapFile{path: m}
		if _, err := fmt.Sscanf(filepath.Base(m), "snap-%d-%016x.db", &s.member, &s.seq); err != nil {
			continue
		}
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
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

// loadSnapshots applies each member's newest snapshot that validates in full
// to its backing store and returns the snapshots' sequence numbers by
// member, 0 meaning "no snapshot, replay the log from the beginning".
// Invalid snapshots are counted and skipped in favour of older ones; a
// snapshot of a member the log does not have is ErrCorrupt.
func (l *wal) loadSnapshots() ([]uint64, error) {
	snaps, err := listSnapshots(l.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing snapshots: %w", err)
	}
	bases := make([]uint64, len(l.members))
	loaded := make([]bool, len(l.members))
	for _, s := range snaps {
		if s.member < 0 || s.member >= len(l.members) {
			return nil, fmt.Errorf("store: snapshot %s is of member %d of a %d-member log: %w", s.path, s.member, len(l.members), ErrCorrupt)
		}
		if loaded[s.member] {
			continue
		}
		kvs, seq, err := loadSnapshot(s.path)
		if err != nil {
			l.snapSkipped++
			continue
		}
		if len(kvs) > 0 {
			if _, err := l.members[s.member].backing.PutBatch(kvs); err != nil {
				return nil, fmt.Errorf("store: applying snapshot %s: %w", s.path, err)
			}
		}
		bases[s.member], loaded[s.member] = seq, true
	}
	return bases, nil
}

// snapshot writes the member's state at the log's current sequence number
// and returns the file's name. It holds the member's mu while it makes the
// log durable through that number and copies the state, so the snapshot
// holds exactly the member's records at or below it, and no record it
// covers can be lost by a crash.
func (d *Durable) snapshot() (string, error) {
	l := d.log
	d.mu.Lock()
	if d.failed != nil {
		d.mu.Unlock()
		return "", d.failed
	}
	l.mu.Lock()
	seq := l.seq
	err := l.syncLocked(l.written)
	l.mu.Unlock()
	if err != nil {
		d.mu.Unlock()
		return "", err
	}
	items := d.backing.Snapshot()
	d.mu.Unlock()

	name := snapshotName(int(d.shard), seq)
	if err := writeSnapshot(filepath.Join(l.dir, name), seq, items); err != nil {
		return "", err
	}
	l.mu.Lock()
	l.syncs++
	l.mu.Unlock()
	return name, nil
}

// writeSnapshot writes items as a snapshot at seq to path: to a temporary
// name first, fsynced, then renamed into place. The file is streamed through
// a small buffer, so a checkpoint of every member holds no image of a whole
// file in memory.
func writeSnapshot(path string, seq uint64, items []memcache.Item) error {
	tmp := strings.TrimSuffix(path, ".db") + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	frame := make([]byte, 0, 256)
	frame = append(frame, snapMagic...)
	frame = binary.BigEndian.AppendUint64(frame, seq)
	w.Write(frame) //nolint:errcheck // a bufio.Writer keeps its first error for Flush
	payload := make([]byte, 0, 256)
	for _, it := range items {
		payload = append(payload[:0], snapKindKV)
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(it.Key)))
		payload = append(payload, it.Key...)
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(it.Value)))
		payload = append(payload, it.Value...)
		frame = appendFrame(frame[:0], payload)
		w.Write(frame) //nolint:errcheck // as above
	}
	payload = append(payload[:0], snapKindFooter)
	payload = binary.BigEndian.AppendUint64(payload, uint64(len(items)))
	w.Write(appendFrame(frame[:0], payload)) //nolint:errcheck // as above
	if err := w.Flush(); err != nil {
		return cleanup(fmt.Errorf("store: writing snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("store: syncing snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return nil
}

// appendFrame appends one checksummed frame around payload.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}
