package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"geomds/internal/memcache"
)

// FuzzSnapshotLoad feeds hostile bytes to the snapshot loader as a file. The
// properties, checked by loadSnapshotFile:
//   - loadSnapshot never panics and fails only with ErrCorrupt;
//   - what loads has one encoding: writeSnapshot gives back the input's
//     bytes, and they load again to the same records and sequence number.
func FuzzSnapshotLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { loadSnapshotFile(t, data) })
}

// loadSnapshotFile checks FuzzSnapshotLoad's properties on data and returns
// how many records it loaded, or the ErrCorrupt it was refused with.
func loadSnapshotFile(t *testing.T, data []byte) (int, error) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotName(0, 1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	kvs, seq, err := loadSnapshot(path)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("loadSnapshot failed with %v, want ErrCorrupt", err)
		}
		return 0, err
	}
	items := make([]memcache.Item, len(kvs))
	for i, kv := range kvs {
		items[i] = memcache.Item{Key: kv.Key, Value: kv.Value}
	}
	again := filepath.Join(dir, snapshotName(0, 2))
	if err := writeSnapshot(again, seq, items); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, data) {
		t.Fatalf("a snapshot that loads writes back as\n %x, want\n %x", written, data)
	}
	reloaded, reseq, err := loadSnapshot(again)
	if err != nil || reseq != seq || !slices.EqualFunc(reloaded, kvs, func(a, b memcache.KV) bool {
		return a.Key == b.Key && bytes.Equal(a.Value, b.Value)
	}) {
		t.Fatalf("written back, the snapshot loads as %d records at %d (%v), want %d at %d", len(reloaded), reseq, err, len(kvs), seq)
	}
	return len(kvs), nil
}

// snapSeed is one committed FuzzSnapshotLoad input and what loadSnapshot
// must make of it.
type snapSeed struct {
	name    string // file name under testdata/fuzz/FuzzSnapshotLoad
	data    []byte
	records int    // the records it loads
	refusal string // or a fragment of the error that refuses it
}

// snapshotSeeds returns valid snapshots of none, one and many records, and
// one hostile file per rule of the loader.
func snapshotSeeds() []snapSeed {
	one := []memcache.KV{{Key: "data/f1", Value: []byte("v1")}}
	many := make([]memcache.KV, 40)
	for i := range many {
		many[i] = memcache.KV{Key: fmt.Sprintf("data/f%02d", i), Value: bytes.Repeat([]byte{byte(i)}, i)}
	}
	valid := encodeSnapshot(7, one)
	header := valid[:len(snapMagic)+8]
	kv := func(key string, value []byte) []byte {
		p := binary.BigEndian.AppendUint32([]byte{snapKindKV}, uint32(len(key)))
		p = binary.BigEndian.AppendUint32(append(p, key...), uint32(len(value)))
		return append(p, value...)
	}
	footer := func(count uint64) []byte {
		return binary.BigEndian.AppendUint64([]byte{snapKindFooter}, count)
	}
	// file lays out the header and then one frame per payload.
	file := func(payloads ...[]byte) []byte {
		buf := append([]byte(nil), header...)
		for _, p := range payloads {
			buf = appendFrame(buf, p)
		}
		return buf
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "GMDSSNP1")
	flipped := append([]byte(nil), valid...)
	flipped[len(header)+frameHeaderLen+1] ^= 0xFF
	// A frame header promising 100 bytes in front of 3.
	pastEnd := binary.BigEndian.AppendUint32(append([]byte(nil), header...), 100)
	pastEnd = binary.BigEndian.AppendUint32(pastEnd, 0)

	return []snapSeed{
		{"empty", encodeSnapshot(0, nil), 0, ""},
		{"one-record", valid, 1, ""},
		{"many-records-one-empty-value", encodeSnapshot(1<<40, many), len(many), ""},
		{"bad-magic", badMagic, 0, "bad header"},
		{"short-header", valid[:len(snapMagic)+4], 0, "bad header"},
		{"cut-frame-header", cat(header, make([]byte, frameHeaderLen-3)), 0, "truncated at offset 16"},
		{"zero-length-frame", cat(header, make([]byte, frameHeaderLen)), 0, "truncated at offset 16"},
		{"payload-past-end", append(pastEnd, 1, 2, 3), 0, "truncated at offset 16"},
		{"checksum-mismatch", flipped, 0, "checksum mismatch"},
		{"short-record", file([]byte{snapKindKV, 0, 0}, footer(1)), 0, "record too short"},
		{"key-length-past-end", file(binary.BigEndian.AppendUint32([]byte{snapKindKV}, 100), footer(1)), 0, "bad key length 100"},
		{"value-length-mismatch", file(append(kv("k", []byte("v")), 'x'), footer(1)), 0, "bad value length 1 (have 2)"},
		{"malformed-footer", file(kv("k", []byte("v")), footer(1)[:5]), 0, "malformed footer"},
		{"footer-count-mismatch", file(kv("k", []byte("v")), footer(2)), 0, "footer count 2 != 1"},
		{"frame-after-footer", file(kv("k", []byte("v")), footer(1), kv("k2", nil)), 0, "frames after its footer"},
		{"unknown-kind", file(kv("k", []byte("v")), []byte{3}, footer(1)), 0, "unknown frame kind 3"},
		{"missing-footer", file(kv("k", []byte("v"))), 0, "missing its footer"},
	}
}

// TestSnapshotLoadSeeds holds each seed to its rule as well as to the fuzz
// properties.
func TestSnapshotLoadSeeds(t *testing.T) {
	for _, s := range snapshotSeeds() {
		t.Run(s.name, func(t *testing.T) {
			got, err := loadSnapshotFile(t, s.data)
			if s.refusal == "" && (err != nil || got != s.records) {
				t.Errorf("loadSnapshot made %d records of it (%v), want %d", got, err, s.records)
			}
			if s.refusal != "" && (err == nil || !strings.Contains(err.Error(), s.refusal)) {
				t.Errorf("loadSnapshot refused it with %v, want %q", err, s.refusal)
			}
		})
	}
}

// TestFuzzCorpusIsSnapshotSeeds keeps the committed corpus, which is what `go
// test` runs FuzzSnapshotLoad over, identical to snapshotSeeds.
func TestFuzzCorpusIsSnapshotSeeds(t *testing.T) {
	var files []corpusFile
	for _, s := range snapshotSeeds() {
		files = append(files, corpusFile{s.name, s.data})
	}
	checkCorpus(t, "FuzzSnapshotLoad", files)
}
