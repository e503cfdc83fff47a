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

// goldenEntry is the entry testdata/entry_gob.golden holds: the bytes
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

func goldenGob(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "entry_gob.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// gobEncode is what Instance stored before the entry format: one gob stream
// per value.
func gobEncode(t testing.TB, e Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGobGoldenDecodes(t *testing.T) {
	got, err := DecodeEntry(goldenGob(t))
	if err != nil {
		t.Fatalf("DecodeEntry(golden gob bytes) = %v", err)
	}
	if want := goldenEntry(); !got.Equal(want) || got.Version != want.Version {
		t.Fatalf("golden gob bytes decoded to\n %+v, want\n %+v", got, want)
	}
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
	// afterGob marks a seed that is well-framed gob and is refused for what
	// it decodes to: refusing it costs gob's decoding, which the framing
	// check has bounded by the size of the input.
	afterGob bool
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
		{name: "gob-golden", data: goldenGob(t)},
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
		{name: "hostile-gob-length", err: errGobFraming, data: []byte{0xfd, 0xff, 0xff, 0xff, 'g', 'o', 'b'}},
		// the golden gob value with its 123456789 nanoseconds overwritten by
		// 2^30-1, which time.Time's binary decoding lets through.
		{name: "hostile-gob-nanos", err: errEntryNanos, afterGob: true,
			data: bytes.Replace(goldenGob(t), []byte{0x07, 0x5b, 0xcd, 0x15}, []byte{0x3f, 0xff, 0xff, 0xff}, 1)},
		// format byte 0 belongs to neither form.
		{name: "hostile-format-zero", err: errGobFraming, data: append([]byte{0}, valid[1:]...)},
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
		if s.afterGob {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeEntry(s.data) }); allocs != 0 { //nolint:errcheck // counted, not checked
			t.Errorf("%s: refusing it cost %v allocations, want 0", s.name, allocs)
		}
	}
}

// The gob decoder refuses what gobFramed lets through but is not an entry.
func TestDecodeEntryRefusesForeignGob(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode("a string, not an entry"); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(buf.Bytes()); err == nil {
		t.Error("a gob string decoded as an entry")
	}
	if gobFramed([]byte{0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Error("a nine-byte gob length passed for framed")
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
		if data[0] == entryFormat && !bytes.Equal(enc, data) {
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
