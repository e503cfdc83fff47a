package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/registry"
)

// gobMessage is what every release before wire v3 put on the wire in both
// directions: a 4-byte length and one gob stream holding v.
func gobMessage(t testing.TB, v any) []byte {
	t.Helper()
	buf := bytes.NewBuffer(make([]byte, 4))
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(buf.Bytes(), uint32(buf.Len()-4))
	return buf.Bytes()
}

// geobenchEntry has the shape of the entries the benchmark module stores
// (benchmark/single.go benchEntry), with a fixed Created.
func geobenchEntry(i int) registry.Entry {
	return registry.Entry{
		Name:      fmt.Sprintf("data/f%07d", i),
		Size:      2049,
		Producer:  "bench",
		Locations: []registry.Location{{Node: registry.NoNode}},
		Created:   time.Date(2026, 10, 1, 8, 30, 0, 987654321, time.UTC),
		Version:   3,
	}
}

func geobenchEntries(n int) []registry.Entry {
	entries := make([]registry.Entry, n)
	for i := range entries {
		entries[i] = geobenchEntry(i)
	}
	return entries
}

// getReply is the reply testdata/reply_get.golden holds and docs/WIRE.md
// quotes.
func getReply() ResponseFrame {
	return ResponseFrame{
		Header: Header{ID: 7, Kind: FrameSingle},
		Resp:   Response{OK: true, Entry: geobenchEntry(1)},
	}
}

func getManyReply(n int) ResponseFrame {
	return ResponseFrame{
		Header: Header{ID: 8, Kind: FrameSingle},
		Resp:   Response{OK: true, Entries: geobenchEntries(n)},
	}
}

func encoded(f ResponseFrame) []byte { return appendResponseFrame(nil, &f) }

func golden(t testing.TB, path ...string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// frameSeed is one input of the committed corpus of FuzzResponseFrame or of
// FuzzRequestFrame.
type frameSeed struct {
	name string // file name under testdata/fuzz/<target>
	data []byte
	// err is what the target's decoder answers; nil for a seed that decodes.
	err error
}

// errEntryRule stands for whichever of registry.DecodeEntry's unexported
// errors an entry inside a frame is refused with.
var errEntryRule = errors.New("a rule of the entry encoding")

// replySeeds lists the corpus: frames that decode, and one hostile input per
// rule the decoder has to apply. TestFuzzCorpusIsReplySeeds keeps the files
// equal to this list.
func replySeeds(t testing.TB) []frameSeed {
	// header builds the 19 bytes before a frame's body.
	header := func(kind FrameKind, flags byte, body ...byte) []byte {
		b := []byte{replyFormat, byte(kind), flags}
		b = binary.BigEndian.AppendUint64(b, 9)
		b = binary.BigEndian.AppendUint64(b, 0)
		return append(b, body...)
	}
	get := encoded(getReply())
	entry := registry.AppendEntry(nil, geobenchEntry(1))

	batch := ResponseFrame{Header: Header{ID: 1 << 40, Kind: FrameBatch}}
	for i := 0; i < 64; i++ {
		batch.Batch.Ops = append(batch.Batch.Ops, Response{OK: true, Entry: geobenchEntry(i)})
	}
	batch.Batch.Ops[13] = Response{Err: ErrNotFound, Detail: "registry: entry not found: data/f0000013"}

	events := ResponseFrame{
		Header: Header{ID: 3, Kind: FrameWatchEvent},
		Resp:   Response{Err: ErrFeedLagged, Detail: "feed: subscriber lagged"},
	}
	for i := 0; i < watchEventBatch; i++ {
		ev := WatchEvent{Seq: uint64(1000 + i), Op: 1, Name: geobenchEntry(i).Name, Value: registry.AppendEntry(nil, geobenchEntry(i)), Origin: "shard-2", Commit: 1759307400e9 + int64(i), Sync: i%7 == 0}
		if i%5 == 0 {
			ev.Op, ev.Value = 2, nil
		}
		events.Events = append(events.Events, ev)
	}

	// gob assigns type numbers in the order a process first meets the types,
	// so gob bytes made here would differ from run to run; both gob seeds
	// are files an earlier commit's code wrote.
	gobEntry := golden(t, "..", "registry", "testdata", "entry_gob.golden")
	gobReply := golden(t, "testdata", "reply_gob.golden")[4:]

	return []frameSeed{
		{name: "get", data: get},
		{name: "not-found", data: encoded(ResponseFrame{
			Header: Header{ID: 2, Kind: FrameSingle},
			Resp:   Response{Err: ErrNotFound, Detail: "registry: entry not found: data/f0000002"},
		})},
		{name: "overloaded", data: encoded(ResponseFrame{
			Header: Header{ID: 3, Kind: FrameSingle},
			Resp:   Response{Err: ErrOverloaded, Detail: "limits: tenant \"batch\" over its ops quota", RetryAfterNs: int64(40 * time.Millisecond)},
		})},
		{name: "batch64", data: encoded(batch)},
		{name: "watch-ack", data: encoded(ResponseFrame{
			Header: Header{ID: 4, Kind: FrameWatch},
			Resp:   Response{OK: true},
			Watch:  WatchAck{StartSeq: 4096, Fallback: true},
		})},
		{name: "events256-terminal", data: encoded(events)},
		{name: "getmany", data: encoded(getManyReply(3))},
		// the corpus file keeps the name it was committed under, when a reply
		// could also carry a Bool.
		{name: "names-bool-n", data: encoded(ResponseFrame{
			Header: Header{ID: 5, Kind: FrameSingle, sampled: true, trace: 0xfeedfacecafebeef},
			Resp:   Response{OK: true, Names: []string{"data/a", "", "data/c"}, N: -3},
		})},

		// a batch of 2^32-1 responses with nothing behind the count: 24 bytes.
		{name: "hostile-batch-count", err: errFrameLength, data: header(FrameBatch, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		// an entry one byte longer than what follows its length.
		{name: "hostile-entry-length-past-end", err: errFrameLength,
			data: append(header(FrameSingle, 0, 0, shapeEntry, byte(len(entry)+1)), entry...)},
		// the gob value of an entry where a frame carries an entry.
		{name: "hostile-gob-entry", err: errFrameEntryForm,
			data: append(binary.AppendUvarint(header(FrameSingle, 0, 0, shapeEntry), uint64(len(gobEntry))), gobEntry...)},
		// an entry that starts with the format byte and breaks the entry
		// encoding's own rules (a byte after the last path).
		{name: "hostile-entry-trailing-byte", err: errEntryRule,
			data: append(append(header(FrameSingle, 0, 0, shapeEntry, byte(len(entry)+1)), entry...), 0)},
		// FrameWatchCancel travels client to server only.
		{name: "hostile-unknown-kind", err: errReplyKind, data: header(FrameWatchCancel, 0, 0, 0)},
		{name: "hostile-kind-zero", err: errReplyKind, data: header(0, 0, 0, 0)},
		{name: "hostile-unknown-code", err: errReplyCode, data: header(FrameSingle, 0, byte(len(errCodes)), 0, 0, 0)},
		{name: "hostile-undefined-flag", err: errFrameFlags, data: header(FrameSingle, 0x02, 0, 0)},
		{name: "hostile-undefined-shape", err: errReplyShape, data: header(FrameSingle, 0, 0, 0x20)},
		// 0x08 said "Contains answered true" until that operation was removed.
		{name: "hostile-retired-shape-bit", err: errReplyShape, data: header(FrameSingle, 0, 0, 0x08)},
		// shape bits over N = 0, over no entries, over no names and over the
		// zero entry.
		{name: "hostile-shape-over-zero-n", err: errReplyEmptyField, data: header(FrameSingle, 0, 0, shapeN, 0)},
		{name: "hostile-shape-over-no-entries", err: errReplyEmptyField, data: header(FrameSingle, 0, 0, shapeEntries, 0)},
		{name: "hostile-shape-over-no-names", err: errReplyEmptyField, data: header(FrameSingle, 0, 0, shapeNames, 0)},
		{name: "hostile-shape-over-zero-entry", err: errReplyEmptyField,
			data: append(header(FrameSingle, 0, 0, shapeEntry, byte(registry.EncodedSize(registry.Entry{}))), registry.AppendEntry(nil, registry.Entry{})...)},
		// a batch count of 0 written as two bytes.
		{name: "hostile-not-shortest", err: errFrameNotShortest, data: header(FrameBatch, 0, 0x80, 0x00)},
		// a detail length whose continuation bit promises a byte that is not there.
		{name: "hostile-number-cut-short", err: errFrameTruncated, data: header(FrameSingle, 0, 1, 0x80)},
		{name: "hostile-trailing-byte", err: errFrameTrailing, data: append(append([]byte(nil), get...), 0)},
		{name: "hostile-format-byte-alone", err: errFrameTruncated, data: []byte{replyFormat}},
		{name: "hostile-header-only", err: errFrameTruncated, data: header(FrameSingle, 0)},
		{name: "hostile-empty", err: errReplyFormat, data: []byte{}},
		// getReply as the server of the last commit with gob replies wrote it.
		{name: "hostile-gob-reply", err: errReplyFormat, data: gobReply},
		{name: "hostile-fallback-byte", err: errFrameBool, data: header(FrameWatch, 0, 0, 0, 5, 2)},
		// an event whose name and origin each fit and together do not.
		{name: "hostile-event-lengths", err: errFrameLength, data: header(FrameWatchEvent, 0, 0, 0, 1, 1, 1, 0, 3, 3, 0, 'a', 'b', 'c', 'd')},
		// 2^32-1 events, 2^32-1 names.
		{name: "hostile-event-count", err: errFrameLength, data: header(FrameWatchEvent, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{name: "hostile-name-count", err: errFrameLength, data: header(FrameSingle, 0, 0, shapeNames, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0)},
		// name lengths that each fit and together do not.
		{name: "hostile-names-past-end", err: errFrameLength, data: header(FrameSingle, 0, 0, shapeNames, 2, 3, 3, 'a', 'b', 'c', 'd')},
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/Fuzz{Response,Request}Frame and testdata/{reply,request}_get.golden from the tables in frame_test.go and request_test.go")

// TestFuzzCorpusIsReplySeeds keeps the committed corpus, which is what `go
// test` runs FuzzResponseFrame over, identical to replySeeds.
func TestFuzzCorpusIsReplySeeds(t *testing.T) {
	checkCorpus(t, "FuzzResponseFrame", replySeeds(t))
}

// checkCorpus compares testdata/fuzz/<target> with seeds, or with
// -update-corpus rewrites it from them.
func checkCorpus(t *testing.T, target string, seeds []frameSeed) {
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

// A seed that decodes has the one encoding; a hostile one is refused with the
// error of the rule it breaks, and refusing it allocates at most what the
// fields before the broken rule took (the entry before a trailing byte) —
// never the length or count it claims.
func TestDecodeReplyRefusesHostileBytes(t *testing.T) {
	for _, s := range replySeeds(t) {
		var f ResponseFrame
		err := decodeResponseFrame(s.data, &f)
		if s.err == nil {
			if err != nil {
				t.Errorf("%s: decodeResponseFrame = %v, want a frame", s.name, err)
			} else if again := appendResponseFrame(nil, &f); !bytes.Equal(again, s.data) {
				t.Errorf("%s: decoded frame encodes to\n %x, want\n %x", s.name, again, s.data)
			}
			continue
		}
		if s.err == errEntryRule {
			if _, entryErr := registry.DecodeEntry(s.data[headerLen+3:]); entryErr == nil || !errors.Is(err, entryErr) {
				t.Errorf("%s: decodeResponseFrame = %v, want DecodeEntry's %v", s.name, err, entryErr)
			}
		} else if !errors.Is(err, s.err) {
			t.Errorf("%s: decodeResponseFrame = %v, want %v", s.name, err, s.err)
		}
		if allocs := testing.AllocsPerRun(100, func() { decodeResponseFrame(s.data, &f) }); allocs > 2 { //nolint:errcheck // counted, not checked
			t.Errorf("%s: refusing it cost %v allocations, want at most 2", s.name, allocs)
		}
	}
}

// Every code of the table has a byte of its own, and a code outside it — the
// empty code of a failed response included — travels as internal.
func TestErrCodeBytes(t *testing.T) {
	for b := 1; b < len(errCodes); b++ {
		if errCodes[b] == ErrNone {
			t.Errorf("byte %d names no code", b)
		}
		if got := errCodeByte(errCodes[b]); int(got) != b {
			t.Errorf("%q travels as %d, want %d", errCodes[b], got, b)
		}
	}
	for _, code := range []ErrCode{ErrNone, "made-up"} {
		f := ResponseFrame{Header: Header{Kind: FrameSingle}, Resp: Response{Err: code, Detail: "d"}}
		var back ResponseFrame
		if err := decodeResponseFrame(encoded(f), &back); err != nil || back.Resp.OK || back.Resp.Err != ErrInternal || back.Resp.Detail != "d" {
			t.Errorf("a failure with code %q decodes to %+v (%v), want internal", code, back.Resp, err)
		}
	}
}

// The format byte rpc assumes an entry starts with is registry's.
func TestEntryFormatByteIsRegistrys(t *testing.T) {
	if got := registry.AppendEntry(nil, registry.Entry{})[0]; got != entryFormat {
		t.Fatalf("registry.AppendEntry starts an entry with %#x, frame.go assumes %#x", got, entryFormat)
	}
	if got := len(registry.AppendEntry(nil, registry.Entry{Created: time.Unix(0, 0)})) + 1; got != minEntryBytes {
		t.Fatalf("the smallest entry and its length take %d bytes, frame.go assumes %d", got, minEntryBytes)
	}
}

// testdata/reply_get.golden pins the bytes of one Get reply on the wire,
// length prefix included, both ways.
func TestReplyGolden(t *testing.T) {
	path := filepath.Join("testdata", "reply_get.golden")
	f := getReply()
	frame, substituted, err := encodeReply(&f)
	if err != nil || substituted {
		t.Fatalf("encodeReply = substituted %v, %v", substituted, err)
	}
	defer releaseFrame(frame)
	if *updateCorpus {
		if err := os.WriteFile(path, frame.b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := golden(t, path)
	if !bytes.Equal(frame.b, want) {
		t.Errorf("the Get reply encodes to\n %x, the golden file holds\n %x", frame.b, want)
	}
	var back ResponseFrame
	if err := readReply(bytes.NewReader(want), &back); err != nil {
		t.Fatalf("readReply(golden) = %v", err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Errorf("the golden bytes decode to\n %+v, want\n %+v", back, f)
	}
}

func FuzzResponseFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := append([]byte(nil), data...)
		var frame ResponseFrame
		if err := decodeResponseFrame(payload, &frame); err != nil {
			return
		}
		if enc := appendResponseFrame(nil, &frame); !bytes.Equal(enc, data) {
			t.Fatalf("%x decoded, but its frame encodes to %x: two encodings of one frame", data, enc)
		}
		// The frame shares no memory with its payload, which goes back to a
		// pool: scribbling over it changes nothing the frame holds.
		for i := range payload {
			payload[i] ^= 0xa5
		}
		if enc := appendResponseFrame(nil, &frame); !bytes.Equal(enc, data) {
			t.Fatalf("the frame decoded from %x changed with its payload: it now encodes to %x", data, enc)
		}
	})
}

// The allocation gates the ladder's rpc.roundtrip_allocs_null row rests on.
func TestReplyCodecAllocations(t *testing.T) {
	get, many := getReply(), getManyReply(64)
	for name, f := range map[string]*ResponseFrame{"Get": &get, "GetMany64": &many} {
		buf := appendResponseFrame(nil, f)
		if allocs := testing.AllocsPerRun(100, func() { buf = appendResponseFrame(buf[:0], f) }); allocs != 0 {
			t.Errorf("%s: appendResponseFrame into spare capacity cost %v allocations, want 0", name, allocs)
		}
	}
	var back ResponseFrame
	data := encoded(get)
	if allocs := testing.AllocsPerRun(100, func() { decodeResponseFrame(data, &back) }); allocs > 4 { //nolint:errcheck // counted, not checked
		t.Errorf("decodeResponseFrame of a Get reply cost %v allocations, want at most 4", allocs)
	}
	const n = 64
	data = encoded(many)
	if allocs := testing.AllocsPerRun(100, func() { decodeResponseFrame(data, &back) }); allocs > 2*n+3 { //nolint:errcheck // counted, not checked
		t.Errorf("decodeResponseFrame of a %d-entry reply cost %v allocations, want at most %d", n, allocs, 2*n+3)
	}
	if allocs := testing.AllocsPerRun(100, func() { traceName(OpGet) }); allocs != 0 {
		t.Errorf("traceName cost %v allocations, want 0", allocs)
	}
}

// nullAPI is a registry.API that does no work, as in benchmark/ladder.go:
// what remains of a call is the transport.
type nullAPI struct{ entry registry.Entry }

func (nullAPI) Site() cloud.SiteID { return 0 }
func (n nullAPI) Create(_ context.Context, e registry.Entry) (registry.Entry, error) {
	return e, nil
}
func (n nullAPI) Put(_ context.Context, e registry.Entry) (registry.Entry, error) { return e, nil }
func (n nullAPI) Get(context.Context, string) (registry.Entry, error)             { return n.entry, nil }
func (n nullAPI) AddLocation(context.Context, string, registry.Location) (registry.Entry, error) {
	return n.entry, nil
}
func (nullAPI) Delete(context.Context, string) error                        { return nil }
func (nullAPI) Names(context.Context) []string                              { return nil }
func (nullAPI) Entries(context.Context) ([]registry.Entry, error)           { return nil, nil }
func (nullAPI) GetMany(context.Context, []string) ([]registry.Entry, error) { return nil, nil }
func (nullAPI) PutMany(_ context.Context, es []registry.Entry) ([]registry.Entry, error) {
	return es, nil
}
func (nullAPI) DeleteMany(_ context.Context, names []string) (int, error) { return len(names), nil }
func (nullAPI) Merge(_ context.Context, es []registry.Entry) (int, error) { return len(es), nil }
func (nullAPI) Len(context.Context) int                                   { return 0 }

// startNullServer is the set-up of the ladder's rpc.roundtrip_*_null rows: a
// server over an API that does nothing, and a client with one connection.
func startNullServer(t testing.TB) *Client {
	t.Helper()
	srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// A whole Get over loopback, both ends counted: 908 allocations while both
// directions were gob streams, 428 while requests still were.
func TestNullRoundTripAllocations(t *testing.T) {
	client := startNullServer(t)
	name := geobenchEntry(1).Name
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.Get(tctx, name); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("a null round trip cost %v allocations, want at most 24", allocs)
	}
	t.Logf("null round trip: %v allocations", allocs)
}

// Every operation has its constant's name, and a byte that names none —
// inside the table or past it — is still logged and traced under a name of
// its own.
func TestTraceNames(t *testing.T) {
	names := map[Op]string{
		OpPing: "ping", OpSite: "site", OpCreate: "create", OpPut: "put", OpGet: "get",
		OpAddLoc: "addloc", OpDelete: "delete", OpNames: "names", OpEntries: "entries",
		OpGetMany: "getmany", OpPutMany: "putmany", OpDeleteMany: "deletemany",
		OpMerge: "merge", OpLen: "len", OpWatch: "watch",
	}
	for b := 0; b < 256; b++ {
		op := Op(b)
		want, ok := names[op]
		if ok != op.defined() {
			t.Errorf("Op(%d).defined() = %v", b, op.defined())
		}
		if !ok {
			want = fmt.Sprintf("op(%d)", b)
		}
		if op.String() != want || traceName(op) != "rpc."+want {
			t.Errorf("Op(%d) is named %q and traced as %q, want %q", b, op, traceName(op), want)
		}
	}
	if len(names) != len(opTable)-1 {
		t.Errorf("opTable has %d rows, the protocol %d operations", len(opTable)-1, len(names))
	}
}

func BenchmarkResponseFrameEncode(b *testing.B) {
	get, many := getReply(), getManyReply(64)
	for _, bc := range []struct {
		name string
		f    *ResponseFrame
	}{{"Get", &get}, {"GetMany64", &many}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := appendResponseFrame(nil, bc.f)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				buf = appendResponseFrame(buf[:0], bc.f)
			}
		})
	}
}

func BenchmarkResponseFrameDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
	}{{"Get", encoded(getReply())}, {"GetMany64", encoded(getManyReply(64))}} {
		b.Run(bc.name, func(b *testing.B) {
			var f ResponseFrame
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decodeResponseFrame(bc.data, &f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundTripNull is the body benchmark/ladder.go times for
// rpc.roundtrip_ns_null and rpc.roundtrip_allocs_null.
func BenchmarkRoundTripNull(b *testing.B) {
	client := startNullServer(b)
	name := geobenchEntry(1).Name
	b.ReportAllocs()
	for b.Loop() {
		if _, err := client.Get(tctx, name); err != nil {
			b.Fatal(err)
		}
	}
}
