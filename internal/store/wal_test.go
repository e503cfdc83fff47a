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
	"slices"
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
			for i := 0; d.log.alloc < 3*segmentChunk; i++ {
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
	alloc := d.log.alloc
	if allocs := testing.AllocsPerRun(runs, func() {
		d.Put("k", value, 0) //nolint:errcheck // counted, not checked
	}); allocs != 0 {
		t.Errorf("Put cost %v allocations, want 0", allocs)
	}
	if grown := d.log.alloc - alloc; grown < (runs+1)*segmentChunk {
		t.Errorf("the segment grew %d bytes over %d Puts, want a chunk or more each", grown, runs+1)
	}
}

// r2Pair writes one key to two members at once, as a router writes two
// replicas: the caller writes to a while a partner goroutine writes to b.
type r2Pair struct {
	a, b *Durable
	keys chan string
	errs chan error
}

func newR2Pair(a, b *Durable) *r2Pair {
	p := &r2Pair{a: a, b: b, keys: make(chan string), errs: make(chan error)}
	go func() {
		for k := range p.keys {
			_, err := b.Put(k, r2Value[:], 0)
			p.errs <- err
		}
	}()
	return p
}

var r2Value [38]byte // geobench's value size

func (p *r2Pair) put(key string) error {
	p.keys <- key
	_, err := p.a.Put(key, r2Value[:], 0)
	return errors.Join(err, <-p.errs)
}

func (p *r2Pair) stop() { close(p.keys) }

// TestPutR2Allocations: an R=2 write over a shared log allocates nothing in
// the log, its group commit included.
func TestPutR2Allocations(t *testing.T) {
	ds, err := OpenShared(t.TempDir(), []Backing{discardPuts{newBacking()}, discardPuts{newBacking()}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, ds)
	p := newR2Pair(ds[0], ds[1])
	defer p.stop()
	if err := p.put("k"); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		p.put("k") //nolint:errcheck // counted, not checked
	}); allocs != 0 {
		t.Errorf("an R=2 Put cost %v allocations, want 0", allocs)
	}
}

// BenchmarkDurablePutR2 is the store's row of an R=2 durable write: one op
// is two members putting one key at once. shared_log is a site's shards
// over one log; two_logs is the same pair with a log each, as separate
// directories have, which pays an fsync per member.
func BenchmarkDurablePutR2(b *testing.B) {
	for _, layout := range []string{"shared_log", "two_logs"} {
		b.Run(layout, func(b *testing.B) {
			var ds []*Durable
			if layout == "shared_log" {
				ds = openShared(b, b.TempDir(), 2)
			} else {
				ds = []*Durable{openShared(b, b.TempDir(), 1)[0], openShared(b, b.TempDir(), 1)[0]}
			}
			defer closeAll(b, ds)
			syncs := func() int64 {
				n := ds[0].LogStats().Syncs
				if layout == "two_logs" {
					n += ds[1].LogStats().Syncs
				}
				return n
			}
			keys := make([]string, 4096)
			for i := range keys {
				keys[i] = fmt.Sprintf("data/f%07d", i)
			}
			p := newR2Pair(ds[0], ds[1])
			defer p.stop()
			before := syncs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.put(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(syncs()-before)/float64(b.N), "fsyncs/op")
		})
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

// A FuzzWALReplay input is one flags byte — bit 0 says a snapshot of member
// 0 comes first, bits 1–2 are the log's member count less one — then the
// snapshot as a u16 length and its bytes, then the bytes of the final (here
// the only) WAL segment.
func walInput(members int, snap, seg []byte) []byte {
	flags := byte(members-1) << 1
	if snap == nil {
		return append([]byte{flags}, seg...)
	}
	out := binary.BigEndian.AppendUint16([]byte{flags | 1}, uint16(len(snap)))
	return append(append(out, snap...), seg...)
}

func splitWALInput(data []byte) (members int, snap, seg []byte) {
	if len(data) == 0 {
		return 1, nil, nil
	}
	members = 1 + int(data[0]>>1&3)
	if len(data) < 3 || data[0]&1 == 0 {
		return members, nil, data[1:]
	}
	n := min(int(binary.BigEndian.Uint16(data[1:])), len(data)-3)
	return members, data[3 : 3+n], data[3+n:]
}

// walReplay is what Open made of a FuzzWALReplay input.
type walReplay struct {
	corrupt    bool   // Open failed with ErrCorrupt
	generation bool   // Open refused a generation-1 file with ErrGeneration
	replayed   uint64 // log records read past the oldest snapshot
	torn       int64  // LogStats().TornTails
}

// replayWAL opens a log over the input's files and checks the replay
// properties:
//   - Open never panics, and fails only with ErrCorrupt, or ErrGeneration
//     for a file of generation 1;
//   - a successful Open reads exactly a prefix of the records that decode
//     (every frame in order up to the first that does not), past the oldest
//     snapshot's sequence number and without a gap, and hands each record
//     past its member's snapshot to that member;
//   - one more Put, Close and Open then give that state plus the put, with
//     no torn tail left to truncate.
func replayWAL(t *testing.T, data []byte) walReplay {
	n, snap, seg := splitWALInput(data)
	dir := t.TempDir()
	bases := make([]uint64, n)
	want := make([]map[string]string, n)
	for i := range want {
		want[i] = map[string]string{}
	}
	if snap != nil {
		path := filepath.Join(dir, snapshotName(0, 0))
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if kvs, seq, err := loadSnapshot(path); err == nil {
			if seq > math.MaxUint32 {
				t.Skip("no store reaches this sequence number")
			}
			bases[0] = seq
			for _, kv := range kvs {
				want[0][kv.Key] = string(kv.Value)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	open := func() ([]*Durable, error) {
		backings := make([]Backing, n)
		for i := range backings {
			backings[i] = newBacking()
		}
		return OpenShared(dir, backings)
	}
	ds, err := open()
	switch {
	case errors.Is(err, ErrGeneration):
		return walReplay{generation: true}
	case errors.Is(err, ErrCorrupt):
		return walReplay{corrupt: true}
	case err != nil:
		t.Fatalf("Open = %v, want success, ErrCorrupt or ErrGeneration", err)
	}
	base := slices.Min(bases)
	got, last := ds[0].log.seq, base
	for _, e := range decodableRecords(seg) {
		if last == got || e.seq != last+1 && e.seq > base {
			break
		}
		if e.seq <= base {
			continue
		}
		last = e.seq
		if int(e.shard) >= n || e.seq <= bases[e.shard] {
			continue
		}
		if e.op == opPut {
			want[e.shard][e.key] = string(e.value)
		} else {
			delete(want[e.shard], e.key)
		}
	}
	if last != got {
		t.Fatalf("Open replayed up to seq %d; the decodable records reach %d", got, last)
	}
	for i, d := range ds {
		wantItems(t, d, want[i])
	}
	out := walReplay{replayed: got - base, torn: ds[0].LogStats().TornTails}

	put(t, ds[0], "fuzz/after", "x")
	for _, d := range ds {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want[0]["fuzz/after"] = "x"
	rs, err := open()
	if err != nil {
		t.Fatalf("reopen after one more Put: %v", err)
	}
	for i, r := range rs {
		defer r.Close()
		wantItems(t, r, want[i])
	}
	if st := rs[0].LogStats(); st.TornTails != 0 || rs[0].log.seq != got+1 {
		t.Fatalf("reopen: TornTails %d, log seq %d; want 0, %d", st.TornTails, rs[0].log.seq, got+1)
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
		return appendRecordFrame(buf, seq, 0, opPut, fmt.Sprintf("k%d", seq), []byte(fmt.Sprintf("v%d", seq)))
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
	tornSector := appendRecordFrame(log(1, 2), 3, 0, opPut, "big", bytes.Repeat([]byte("b"), 1200))
	clear(tornSector[512:1024])
	tornSector = frame(tornSector, 4)
	// A length word one short of its frame: the checksum fails with intact
	// frames after it.
	lying := log(1, 2, 3)
	binary.BigEndian.PutUint32(lying[len(walMagic):], binary.BigEndian.Uint32(lying[len(walMagic):])-1)
	flipped := log(1, 2, 3)
	flipped[len(walMagic)+frameHeaderLen] ^= 0xFF
	// Two members' records interleaved: member 1 has the odd numbers and
	// member 0 the even ones. The snapshot of member 0 at seq 2 covers its
	// record 2; member 1 has no snapshot, so the log is read from seq 1.
	interleaved := []byte(walMagic)
	for seq := uint64(1); seq <= 6; seq++ {
		interleaved = appendRecordFrame(interleaved, seq, byte(seq%2), opPut, fmt.Sprintf("k%d", seq), []byte("v"))
	}
	// A record of member 1 in a one-member log.
	unknownShard := appendRecordFrame(log(1, 2), 3, 1, opPut, "k3", []byte("v3"))
	// A segment of generation 1: its magic, and records without a shard byte.
	gen1 := append([]byte(walMagicGen1), log(1, 2)[len(walMagic):]...)

	return []walSeed{
		{"bad-magic", walInput(1, nil, badMagic), walReplay{torn: 1}},
		{"append-only", walInput(1, nil, log(1, 2, 3)), walReplay{replayed: 3}},
		{"zero-tail", walInput(1, nil, append(log(1, 2, 3), zeroTail...)), walReplay{replayed: 3}},
		{"snapshot-then-log", walInput(1, snap, append(log(1, 2, 3, 4), zeroTail...)), walReplay{replayed: 2}},
		{"torn-zero-sector", walInput(1, nil, append(tornSector, zeroTail...)), walReplay{replayed: 2, torn: 1}},
		{"lying-length", walInput(1, nil, append(lying, zeroTail...)), walReplay{corrupt: true}},
		{"mid-log-checksum", walInput(1, nil, append(flipped, zeroTail...)), walReplay{corrupt: true}},
		{"bytes-after-zero-word", walInput(1, nil, frame(append(log(1, 2), zeroTail[:frameHeaderLen]...), 3)), walReplay{replayed: 2}},
		{"sequence-gap", walInput(1, snap, append(log(1, 2, 4), zeroTail...)), walReplay{corrupt: true}},
		{"two-members-interleaved", walInput(2, snap, append(interleaved, zeroTail...)), walReplay{replayed: 6}},
		{"unknown-shard", walInput(1, nil, append(unknownShard, zeroTail...)), walReplay{corrupt: true}},
		{"generation-1-magic", walInput(1, nil, append(gen1, zeroTail...)), walReplay{generation: true}},
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

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzWALReplay and testdata/fuzz/FuzzSnapshotLoad from walSeeds and snapshotSeeds")

// TestFuzzCorpusIsWALSeeds keeps the committed corpus, which is what `go
// test` runs FuzzWALReplay over, identical to walSeeds.
func TestFuzzCorpusIsWALSeeds(t *testing.T) {
	var files []corpusFile
	for _, s := range walSeeds() {
		files = append(files, corpusFile{s.name, s.data})
	}
	checkCorpus(t, "FuzzWALReplay", files)
}

// corpusFile is one committed fuzz input: its file name and its bytes.
type corpusFile struct {
	name string
	data []byte
}

// checkCorpus compares testdata/fuzz/<target> with seeds, or with
// -update-corpus writes the seeds there.
func checkCorpus(t *testing.T, target string, seeds []corpusFile) {
	dir := filepath.Join("testdata", "fuzz", target)
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
