package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geomds/internal/memcache"
)

// TestAppendsCrossChunks: a segment grows by whole zero chunks as appends
// reach its end, and what was appended across two chunk boundaries comes
// back whole after Close and Open, under either fsync policy.
func TestAppendsCrossChunks(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, WithFsync(policy))
			value := bytes.Repeat([]byte("x"), 1000)
			want := map[string]string{}
			for i := 0; d.alloc < 3*segmentChunk; i++ {
				k := fmt.Sprintf("k%d", i)
				put(t, d, k, string(value))
				want[k] = string(value)
			}
			st, err := os.Stat(activeSegment(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != 3*segmentChunk {
				t.Errorf("segment is %d bytes after growing twice, want %d", st.Size(), 3*segmentChunk)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, dir)
			defer r.Close()
			wantState(t, r, want)
			if st := r.LogStats(); st.TornTails != 0 || st.Recovered != uint64(len(want)) {
				t.Errorf("reopen: TornTails %d, Recovered %d; want 0, %d", st.TornTails, st.Recovered, len(want))
			}
		})
	}
}

// discardPuts is a backing whose Put keeps nothing, so that a Put's
// allocations are the log's own.
type discardPuts struct{ *memcache.Cache }

func (discardPuts) Put(string, []byte, time.Duration) (memcache.Item, error) {
	return memcache.Item{}, nil
}

// TestPutAllocations: growing a segment allocates nothing. Each measured
// FsyncNever Put carries a frame larger than a chunk, so each one grows the
// segment.
func TestPutAllocations(t *testing.T) {
	d, err := Open(t.TempDir(), discardPuts{newBacking()}, WithFsync(FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	value := make([]byte, segmentChunk+1)
	put(t, d, "k", string(value)) // sizes the frame buffer
	const runs = 8
	alloc := d.alloc
	if allocs := testing.AllocsPerRun(runs, func() {
		d.Put("k", value, 0) //nolint:errcheck // counted, not checked
	}); allocs != 0 {
		t.Errorf("Put cost %v allocations, want 0", allocs)
	}
	if grown := d.alloc - alloc; grown < (runs+1)*segmentChunk {
		t.Errorf("the segment grew %d bytes over %d Puts, want a chunk or more each", grown, runs+1)
	}
}

// The store's rungs of the ladder (benchmark/ladder.go's store.put_ns_fsync_*
// and store.putbatch64_ns_per_entry time the same calls from outside):
// geobench's key and its 38-byte value, on the file system of the test's
// temporary directory.
func BenchmarkDurablePut(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			d, err := Open(b.TempDir(), newBacking(), WithFsync(policy))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			keys := make([]string, 4096)
			for i := range keys {
				keys[i] = fmt.Sprintf("data/f%07d", i)
			}
			value := make([]byte, 38)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Put(keys[i%len(keys)], value, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDurablePutBatch64(b *testing.B) {
	d, err := Open(b.TempDir(), newBacking())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	batch := make([]memcache.KV, 64)
	for j := range batch {
		batch[j] = memcache.KV{Key: fmt.Sprintf("data/f%07d", j), Value: make([]byte, 38)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.PutBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- FuzzWALReplay ---------------------------------------------------------

// A FuzzWALReplay input is one byte saying whether a snapshot comes first
// (1) or not, then the snapshot as a u16 length and its bytes, then the
// bytes of the final — here the only — WAL segment.
func walInput(snap, seg []byte) []byte {
	if snap == nil {
		return append([]byte{0}, seg...)
	}
	out := binary.BigEndian.AppendUint16([]byte{1}, uint16(len(snap)))
	return append(append(out, snap...), seg...)
}

func splitWALInput(data []byte) (snap, seg []byte) {
	if len(data) < 3 || data[0] != 1 {
		return nil, data[min(len(data), 1):]
	}
	n := min(int(binary.BigEndian.Uint16(data[1:])), len(data)-3)
	return data[3 : 3+n], data[3+n:]
}

// walReplay is what Open made of a FuzzWALReplay input.
type walReplay struct {
	corrupt  bool   // Open failed with ErrCorrupt
	replayed uint64 // records applied past the snapshot
	torn     int64  // LogStats().TornTails
}

// replayWAL opens a store over the input's files and checks the replay
// properties:
//   - Open never panics, and fails only with ErrCorrupt;
//   - a successful Open replays exactly a prefix of the records that decode
//     (every frame in order up to the first that does not), past the
//     snapshot's sequence number and without a gap;
//   - one more Put, Close and Open then give that state plus the put, with
//     no torn tail left to truncate.
func replayWAL(t *testing.T, data []byte) walReplay {
	snap, seg := splitWALInput(data)
	dir := t.TempDir()
	base, want := uint64(0), map[string]string{}
	if snap != nil {
		path := filepath.Join(dir, snapshotName(0))
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if kvs, seq, err := loadSnapshot(path); err == nil {
			if seq > math.MaxUint32 {
				t.Skip("no store reaches this sequence number")
			}
			base = seq
			for _, kv := range kvs {
				want[kv.Key] = string(kv.Value)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := Open(dir, newBacking())
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open = %v, want success or ErrCorrupt", err)
		}
		return walReplay{corrupt: true}
	}
	defer d.Close()
	got, last := d.Seq(), base
	for _, e := range decodableRecords(seg) {
		if last == got || e.seq != last+1 && e.seq > base {
			break
		}
		if e.seq <= base {
			continue
		}
		if e.op == opPut {
			want[e.key] = string(e.value)
		} else {
			delete(want, e.key)
		}
		last = e.seq
	}
	if last != got {
		t.Fatalf("Open replayed up to seq %d; the decodable records reach %d", got, last)
	}
	wantItems(t, d, want)
	out := walReplay{replayed: got - base, torn: d.LogStats().TornTails}

	put(t, d, "fuzz/after", "x")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want["fuzz/after"] = "x"
	r := mustOpen(t, dir)
	defer r.Close()
	wantItems(t, r, want)
	if st := r.LogStats(); st.TornTails != 0 || st.Seq != got+1 {
		t.Fatalf("reopen: TornTails %d, Seq %d; want 0, %d", st.TornTails, st.Seq, got+1)
	}
	return out
}

// decodableRecords walks a segment the simplest way: every frame in order
// while its length is non-zero, it fits, its checksum holds and its record
// parses.
func decodableRecords(seg []byte) []walEntry {
	if !bytes.HasPrefix(seg, []byte(walMagic)) {
		return nil
	}
	var out []walEntry
	for off := len(walMagic); off+frameHeaderLen <= len(seg); {
		n := int(binary.BigEndian.Uint32(seg[off:]))
		end := off + frameHeaderLen + n
		if n == 0 || end > len(seg) || crc32.Checksum(seg[off+frameHeaderLen:end], castagnoli) != binary.BigEndian.Uint32(seg[off+4:]) {
			break
		}
		e, err := parseRecord(seg[off+frameHeaderLen : end])
		if err != nil {
			break
		}
		out = append(out, e)
		off = end
	}
	return out
}

// wantItems asserts the store holds exactly want, empty values included.
func wantItems(t *testing.T, d *Durable, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, it := range d.Snapshot() {
		got[it.Key] = string(it.Value)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("store holds\n  %q\nwant\n  %q", got, want)
	}
}

func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { replayWAL(t, data) })
}

// walSeed is one committed FuzzWALReplay input and what Open must make of
// it: one per rule of the segment format.
type walSeed struct {
	name string // file name under testdata/fuzz/FuzzWALReplay
	data []byte
	want walReplay
}

func walSeeds() []walSeed {
	frame := func(buf []byte, seq uint64) []byte {
		return appendRecordFrame(buf, seq, opPut, fmt.Sprintf("k%d", seq), []byte(fmt.Sprintf("v%d", seq)))
	}
	log := func(seqs ...uint64) []byte {
		buf := []byte(walMagic)
		for _, seq := range seqs {
			buf = frame(buf, seq)
		}
		return buf
	}
	zeroTail := make([]byte, 64)
	snap := encodeSnapshot(2, []memcache.KV{{Key: "k1", Value: []byte("v1")}, {Key: "k2", Value: []byte("v2")}})

	badMagic := log(1, 2)
	copy(badMagic, "GMDSWAL0")
	// A frame whose second sector never reached the disk, and a frame after
	// it that did.
	tornSector := appendRecordFrame(log(1, 2), 3, opPut, "big", bytes.Repeat([]byte("b"), 1200))
	clear(tornSector[512:1024])
	tornSector = frame(tornSector, 4)
	// A length word one short of its frame: the checksum fails with intact
	// frames after it.
	lying := log(1, 2, 3)
	binary.BigEndian.PutUint32(lying[len(walMagic):], binary.BigEndian.Uint32(lying[len(walMagic):])-1)
	flipped := log(1, 2, 3)
	flipped[len(walMagic)+frameHeaderLen] ^= 0xFF

	return []walSeed{
		{"bad-magic", walInput(nil, badMagic), walReplay{torn: 1}},
		{"append-only", walInput(nil, log(1, 2, 3)), walReplay{replayed: 3}},
		{"zero-tail", walInput(nil, append(log(1, 2, 3), zeroTail...)), walReplay{replayed: 3}},
		{"snapshot-then-log", walInput(snap, append(log(1, 2, 3, 4), zeroTail...)), walReplay{replayed: 2}},
		{"torn-zero-sector", walInput(nil, append(tornSector, zeroTail...)), walReplay{replayed: 2, torn: 1}},
		{"lying-length", walInput(nil, append(lying, zeroTail...)), walReplay{corrupt: true}},
		{"mid-log-checksum", walInput(nil, append(flipped, zeroTail...)), walReplay{corrupt: true}},
		{"bytes-after-zero-word", walInput(nil, frame(append(log(1, 2), zeroTail[:frameHeaderLen]...), 3)), walReplay{replayed: 2}},
		{"sequence-gap", walInput(snap, append(log(1, 2, 4), zeroTail...)), walReplay{corrupt: true}},
	}
}

// encodeSnapshot lays out a valid snapshot file, as compaction writes one.
func encodeSnapshot(seq uint64, kvs []memcache.KV) []byte {
	buf := binary.BigEndian.AppendUint64([]byte(snapMagic), seq)
	for _, kv := range kvs {
		p := binary.BigEndian.AppendUint32([]byte{snapKindKV}, uint32(len(kv.Key)))
		p = binary.BigEndian.AppendUint32(append(p, kv.Key...), uint32(len(kv.Value)))
		buf = appendFrame(buf, append(p, kv.Value...))
	}
	return appendFrame(buf, binary.BigEndian.AppendUint64([]byte{snapKindFooter}, uint64(len(kvs))))
}

// TestWALReplaySeeds holds each seed to its rule as well as to the fuzz
// properties.
func TestWALReplaySeeds(t *testing.T) {
	for _, s := range walSeeds() {
		t.Run(s.name, func(t *testing.T) {
			if got := replayWAL(t, s.data); got != s.want {
				t.Errorf("Open made %+v of it, want %+v", got, s.want)
			}
		})
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzWALReplay from walSeeds")

// TestFuzzCorpusIsWALSeeds keeps the committed corpus, which is what `go
// test` runs FuzzWALReplay over, identical to walSeeds.
func TestFuzzCorpusIsWALSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	seeds := walSeeds()
	for _, s := range seeds {
		path := filepath.Join(dir, s.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s is not seed %q (err %v); run go test -run TestFuzzCorpusIs -update-corpus", path, s.name, err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%s holds %d files, its seed table lists %d", dir, len(files), len(seeds))
	}
}
