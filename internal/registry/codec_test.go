package registry

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geomds/internal/memcache"
)

// geobenchEntry has the shape of the entries the benchmark module stores
// (benchmark/single.go benchEntry), with a fixed Created whose nanoseconds
// take their full five bytes.
func geobenchEntry(i int) Entry {
	return Entry{
		Name:      fmt.Sprintf("data/f%07d", i),
		Size:      2049,
		Producer:  "bench",
		Locations: []Location{{Node: NoNode}},
		Created:   time.Date(2026, 10, 1, 8, 30, 0, 987654321, time.UTC),
	}
}

// goldenEntry is the entry ../rpc/testdata/entry_gob.golden holds: the bytes
// GobCodec{}.Encode produced for it at the last commit that stored entries as
// gob streams.
func goldenEntry() Entry {
	return Entry{
		Name:     "golden/f0000001",
		Size:     2049,
		Producer: "bench",
		Locations: []Location{
			{Site: 1, Node: NoNode},
			{Site: 3, Node: 7, Path: "blob/golden"},
		},
		Created: time.Date(2015, 9, 8, 12, 0, 0, 123456789, time.UTC),
		Version: 5,
	}
}

// goldenGob is goldenEntry as a release before the entry format stored it.
// The wire's fuzz corpora hold the same bytes, so the file lives with them.
func goldenGob(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "rpc", "testdata", "entry_gob.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEntryCodecRoundTrip(t *testing.T) {
	paris := time.FixedZone("CEST", 2*3600)
	extremes := Entry{
		Name:     string(bytes.Repeat([]byte{0xff}, 300)),
		Size:     math.MinInt64,
		Producer: "\x00",
		Locations: []Location{
			{Site: math.MaxInt32, Node: math.MinInt32, Path: string(make([]byte, 200))},
			{Site: -1, Node: NoNode},
			{},
		},
		Created: time.Unix(math.MinInt64, 999999999),
		Version: math.MaxUint64,
	}
	zoned := goldenEntry()
	zoned.Created = zoned.Created.In(paris)
	for name, e := range map[string]Entry{
		"geobench": geobenchEntry(1),
		"zero":     {},
		"golden":   goldenEntry(),
		"zoned":    zoned,
		"extremes": extremes,
		"far":      {Name: "far", Created: time.Unix(math.MaxInt64, 0)},
	} {
		t.Run(name, func(t *testing.T) {
			data := AppendEntry(nil, e)
			if data[0] != entryFormat {
				t.Fatalf("encoding starts with %#x, want the format byte %#x", data[0], entryFormat)
			}
			if got := EncodedSize(e); got != len(data) {
				t.Errorf("EncodedSize = %d, encoding has %d bytes", got, len(data))
			}
			if prefixed := AppendEntry([]byte("xy"), e); !bytes.Equal(prefixed[2:], data) || string(prefixed[:2]) != "xy" {
				t.Error("AppendEntry did not append to what dst held")
			}
			got, err := DecodeEntry(data)
			if err != nil {
				t.Fatalf("DecodeEntry = %v", err)
			}
			if !got.Equal(e) || got.Version != e.Version {
				t.Fatalf("round trip gave\n %+v, want\n %+v", got, e)
			}
			if got.Created.IsZero() != e.Created.IsZero() {
				t.Errorf("Created.IsZero() = %v after the round trip, was %v", got.Created.IsZero(), e.Created.IsZero())
			}
			if got.Created.Location() != time.UTC {
				t.Errorf("Created decoded in %v, want UTC", got.Created.Location())
			}
			// The result shares no memory with the input.
			for i := range data {
				data[i] = 'X'
			}
			if !got.Equal(e) {
				t.Error("the decoded entry changed when the input bytes did")
			}
		})
	}
}

// codecSeed is one input of FuzzEntryCodec's committed corpus.
type codecSeed struct {
	name string // file name under testdata/fuzz/FuzzEntryCodec
	data []byte
	// err is what DecodeEntry answers; nil for a seed that decodes.
	err error
}

// codecSeeds lists the corpus: entries that decode, and one hostile input per
// rule a decoder has to apply. TestFuzzCorpusIsCodecSeeds keeps the files
// equal to this list.
func codecSeeds(t testing.TB) []codecSeed {
	valid := AppendEntry(nil, geobenchEntry(1))
	fields := func(b ...byte) []byte { return append([]byte{entryFormat}, b...) }
	return []codecSeed{
		{name: "geobench", data: valid},
		{name: "zero", data: AppendEntry(nil, Entry{})},
		{name: "golden", data: AppendEntry(nil, goldenEntry())},
		{name: "extremes", data: AppendEntry(nil, Entry{
			Name: "x", Size: math.MinInt64, Version: math.MaxUint64, Created: time.Unix(math.MinInt64, 999999999),
			Locations: []Location{{Site: math.MaxInt32, Node: math.MinInt32, Path: "p"}, {Node: NoNode}},
		})},
		// goldenEntry as a release before the entry format stored it.
		{name: "gob-golden", err: errEntryFormat, data: goldenGob(t)},
		// version 0, size 0, Created 0s 0ns, no name, no producer, then a
		// location count of 2^32-1 with 12 bytes behind it: 20 bytes in all.
		{name: "hostile-count", err: errEntryLength,
			data: append(fields(0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f), make([]byte, 8)...)},
		// a name one byte longer than what follows it.
		{name: "hostile-length-past-end", err: errEntryLength, data: fields(0, 0, 0, 0, 3, 0, 0, 'a', 'b')},
		// a producer of 2^62 bytes.
		{name: "hostile-length-huge", err: errEntryLength,
			data: fields(0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0, 'a')},
		// path lengths that each fit but together exceed the bytes that remain.
		{name: "hostile-paths-past-end", err: errEntryLength, data: fields(0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 'a', 'b', 'c')},
		// the version's continuation bit promises a byte that is not there.
		{name: "hostile-number-cut-short", err: errEntryTruncated, data: fields(0x80)},
		// eleven continuation bytes: more than a 64-bit number has.
		{name: "hostile-number-too-long", err: errEntryTruncated, data: fields(bytes.Repeat([]byte{0x80}, 11)...)},
		// version 0 written as two bytes.
		{name: "hostile-not-shortest", err: errEntryNotShortest, data: fields(0x80, 0x00, 0, 0, 0, 0, 0, 0)},
		// 1e9 nanoseconds.
		{name: "hostile-nanos", err: errEntryNanos, data: fields(0, 0, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03, 0, 0, 0)},
		{name: "hostile-trailing-byte", err: errEntryTrailing, data: append(append([]byte(nil), valid...), 0)},
		{name: "hostile-format-byte-alone", err: errEntryTruncated, data: fields()},
		{name: "hostile-empty", err: errEntryEmpty, data: []byte{}},
		// a gob message that claims 16 MiB.
		{name: "hostile-gob-length", err: errEntryFormat, data: []byte{0xfd, 0xff, 0xff, 0xff, 'g', 'o', 'b'}},
		// the golden gob value with its 123456789 nanoseconds overwritten by
		// 2^30-1, which time.Time's binary decoding lets through.
		{name: "hostile-gob-nanos", err: errEntryFormat,
			data: bytes.Replace(goldenGob(t), []byte{0x07, 0x5b, 0xcd, 0x15}, []byte{0x3f, 0xff, 0xff, 0xff}, 1)},
		// an entry behind format byte 0.
		{name: "hostile-format-zero", err: errEntryFormat, data: append([]byte{0}, valid[1:]...)},
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzEntryCodec from codecSeeds")

// TestFuzzCorpusIsCodecSeeds keeps the committed corpus, which is what `go
// test` runs FuzzEntryCodec over, identical to codecSeeds.
func TestFuzzCorpusIsCodecSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEntryCodec")
	seeds := codecSeeds(t)
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
			t.Errorf("%s is not seed %q (err %v); run go test -run TestFuzzCorpusIsCodecSeeds -update-corpus", path, s.name, err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%s holds %d files, codecSeeds lists %d", dir, len(files), len(seeds))
	}
}

// A hostile input is refused with the error of the rule it breaks, and
// refusing it allocates nothing: not a constant, and certainly not the length
// it claims.
func TestDecodeEntryRefusesHostileBytes(t *testing.T) {
	for _, s := range codecSeeds(t) {
		if s.err == nil {
			if _, err := DecodeEntry(s.data); err != nil {
				t.Errorf("%s: DecodeEntry = %v, want an entry", s.name, err)
			}
			continue
		}
		if _, err := DecodeEntry(s.data); !errors.Is(err, s.err) {
			t.Errorf("%s: DecodeEntry = %v, want %v", s.name, err, s.err)
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeEntry(s.data) }); allocs != 0 { //nolint:errcheck // counted, not checked
			t.Errorf("%s: refusing it cost %v allocations, want 0", s.name, allocs)
		}
	}
}

// A gob stream of any value, an entry as releases before the entry format
// stored it among them, is refused on its first byte.
func TestDecodeEntryRefusesForeignGob(t *testing.T) {
	for _, v := range []any{"a string, not an entry", geobenchEntry(1), goldenEntry()} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeEntry(buf.Bytes()); !errors.Is(err, errEntryFormat) {
			t.Errorf("DecodeEntry(gob of %T) = %v, want %v", v, err, errEntryFormat)
		}
	}
}

func FuzzEntryCodec(f *testing.F) {
	zone := time.FixedZone("fuzz", -7*3600)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		enc := AppendEntry(nil, e)
		if len(enc) != EncodedSize(e) {
			t.Fatalf("EncodedSize = %d, encoding has %d bytes", EncodedSize(e), len(enc))
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("%x decoded, but its entry encodes to %x: two encodings of one entry", data, enc)
		}
		back, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("%x decoded, but its re-encoding %x does not: %v", data, enc, err)
		}
		if !back.Equal(e) || back.Version != e.Version {
			t.Fatalf("re-encoding changed the entry:\n %+v\n %+v", e, back)
		}
		if back.Created.IsZero() != e.Created.IsZero() {
			t.Fatalf("Created.IsZero() went from %v to %v", e.Created.IsZero(), back.Created.IsZero())
		}
		for i, l := range e.Locations {
			if (l.Node == NoNode) != (back.Locations[i].Node == NoNode) {
				t.Fatalf("location %d: NoNode did not survive", i)
			}
		}
		// A zoned Created is the same instant and so the same bytes.
		zoned := e
		zoned.Created = e.Created.In(zone)
		if !bytes.Equal(AppendEntry(nil, zoned), enc) {
			t.Fatalf("Created in another zone changed the encoding of %+v", e)
		}
	})
}

// The allocation gates the ladder's registry.codec_*, instance.get_allocs and
// instance.put_allocs rows rest on.
func TestEntryCodecAllocations(t *testing.T) {
	e := geobenchEntry(1)
	data := AppendEntry(nil, e)
	if len(data) > 64 {
		t.Errorf("geobench's entry encodes to %d bytes, want at most 64", len(data))
	}
	if allocs := testing.AllocsPerRun(100, func() { DecodeEntry(data) }); allocs > 2 { //nolint:errcheck // counted, not checked
		t.Errorf("DecodeEntry cost %v allocations, want at most 2", allocs)
	}
	buf := make([]byte, 0, len(data))
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendEntry(buf[:0], e) }); allocs != 0 {
		t.Errorf("AppendEntry into spare capacity cost %v allocations, want 0", allocs)
	}
	var size int
	if allocs := testing.AllocsPerRun(100, func() { size = EncodedSize(e) }); allocs != 0 || size != len(data) {
		t.Errorf("EncodedSize = %d with %v allocations, want %d with 0", size, allocs, len(data))
	}

	ctx := context.Background()
	inst := NewInstance(0, memcache.New(memcache.Config{}))
	if _, err := inst.Put(ctx, e); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { inst.Get(ctx, e.Name) }); allocs > 3 { //nolint:errcheck // counted, not checked
		t.Errorf("Instance.Get cost %v allocations, want at most 3", allocs)
	}
	// The store copies key and value into a page it already holds, so what is
	// left of a put is the encoded entry (1; 3 when the store cloned the key
	// and the value). The ladder's instance.put_allocs counts the same call
	// plus the three allocations of the entry it builds for it.
	if allocs := testing.AllocsPerRun(100, func() { inst.Put(ctx, e) }); allocs > 2 { //nolint:errcheck // counted, not checked
		t.Errorf("Instance.Put cost %v allocations, want at most 2", allocs)
	}
}

// The slice an instance hands its store is the one the feed publishes, so
// each write's values have a buffer of their own: a second write must not
// reach into the first event.
func TestStoredValuesOwnTheirBuffers(t *testing.T) {
	ctx := context.Background()
	for name, open := range map[string]func(t *testing.T) *Instance{
		"memory": func(*testing.T) *Instance {
			return NewInstance(2, memcache.New(memcache.Config{}), WithChangeFeed())
		},
		"durable": func(t *testing.T) *Instance {
			inst, err := OpenInstance(2, memcache.New(memcache.Config{}), t.TempDir(), nil, WithChangeFeed())
			if err != nil {
				t.Fatal(err)
			}
			return inst
		},
	} {
		t.Run(name, func(t *testing.T) {
			inst := open(t)
			defer inst.Close()
			sub, err := inst.ChangeFeed().Subscribe(0)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			first, second := geobenchEntry(1), geobenchEntry(2)
			if _, err := inst.Put(ctx, first); err != nil {
				t.Fatal(err)
			}
			if _, err := inst.PutMany(ctx, []Entry{second, geobenchEntry(3)}); err != nil {
				t.Fatal(err)
			}
			events := collectFeed(t, sub, 3)
			for i, want := range []Entry{first, second, geobenchEntry(3)} {
				if !bytes.Equal(events[i].Value, AppendEntry(nil, want)) {
					t.Errorf("event %d carries %x, want the encoding of %s", i, events[i].Value, want.Name)
				}
			}
		})
	}
}

// kvRecorder is a store that keeps every batch it is handed.
type kvRecorder struct {
	Store
	batches [][]memcache.KV
}

func (r *kvRecorder) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	r.batches = append(r.batches, kvs)
	return r.Store.PutBatch(kvs)
}

// A bulk write encodes its values into one buffer: each value is its entry's
// encoding with no spare capacity, so appending to it cannot reach into the
// next, and a batch costs one allocation for its values, not one per entry.
func TestBatchValuesShareOneBuffer(t *testing.T) {
	ctx := context.Background()
	rec := &kvRecorder{Store: memcache.New(memcache.Config{})}
	inst := NewInstance(0, rec)
	entries := make([]Entry, 256)
	for i := range entries {
		entries[i] = geobenchEntry(i)
	}
	if _, err := inst.PutMany(ctx, entries); err != nil {
		t.Fatal(err)
	}
	merged := append([]Entry(nil), entries[:3]...)
	merged[1].Locations = []Location{{Site: 2, Node: 7}}
	merged = append(merged, geobenchEntry(999))
	if n, err := inst.Merge(ctx, merged); err != nil || n != 2 {
		t.Fatalf("Merge = %d, %v; want 2 applied", n, err)
	}
	want1 := entries[1].AddLocation(Location{Site: 2, Node: 7})
	for b, want := range [][]Entry{entries, {want1, geobenchEntry(999)}} {
		kvs := rec.batches[b]
		if len(kvs) != len(want) {
			t.Fatalf("batch %d has %d values, want %d", b, len(kvs), len(want))
		}
		for i, kv := range kvs {
			if kv.Key != want[i].Name || !bytes.Equal(kv.Value, AppendEntry(nil, want[i])) || cap(kv.Value) != len(kv.Value) {
				t.Errorf("batch %d value %d: %s = %x (cap %d), want the encoding of %s with no spare capacity",
					b, i, kv.Key, kv.Value, cap(kv.Value), want[i].Name)
			}
		}
	}
	// Encoding each value on its own made this 263 allocations, one per value
	// and seven more; what remains does not depend on the batch.
	if allocs := testing.AllocsPerRun(50, func() { inst.PutMany(ctx, entries) }); allocs > 16 { //nolint:errcheck // counted, not checked
		t.Errorf("a 256-entry PutMany cost %v allocations, want at most 16", allocs)
	}
}

// A stored value that does not decode fails the operation that meets it, with
// the operation and the name in the error.
func TestUndecodableStoredValueIsAnError(t *testing.T) {
	ctx := context.Background()
	inst := NewInstance(2, memcache.New(memcache.Config{}))
	if _, err := inst.Store().Put("bad", []byte{entryFormat, 0x80}, 0); err != nil {
		t.Fatal(err)
	}
	_, getErr := inst.Get(ctx, "bad")
	_, updateErr := inst.AddLocation(ctx, "bad", Location{Site: 1})
	_, entriesErr := inst.Entries(ctx)
	_, manyErr := inst.GetMany(ctx, []string{"bad"})
	_, mergeErr := inst.Merge(ctx, []Entry{{Name: "bad"}})
	for op, err := range map[string]error{
		`get "bad"`: getErr, `update "bad"`: updateErr, `entries: decoding "bad"`: entriesErr,
		`get-many: decoding "bad"`: manyErr, `merge: decoding "bad"`: mergeErr,
	} {
		if !errors.Is(err, errEntryTruncated) || !strings.HasPrefix(err.Error(), op) {
			t.Errorf("%s over an undecodable value = %v", op, err)
		}
	}
}
