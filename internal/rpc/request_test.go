package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// getRequest is the request testdata/request_get.golden holds and
// docs/WIRE.md quotes; testdata/request_gob.golden is the same Get as the
// last release with gob requests wrote it.
func getRequest() RequestFrame {
	return RequestFrame{
		Header: Header{ID: 7, Kind: FrameSingle},
		Req:    Request{Op: OpGet, Name: geobenchEntry(1).Name},
	}
}

// batchRequest is a batch of n Gets, the frame of the ladder's
// rpc.batch64_ns_per_op_null row.
func batchRequest(n int) RequestFrame {
	f := RequestFrame{Header: Header{ID: 1 << 40, Kind: FrameBatch}}
	for i := 0; i < n; i++ {
		f.Batch.Ops = append(f.Batch.Ops, Request{Op: OpGet, Name: geobenchEntry(i).Name})
	}
	return f
}

func putManyRequest(n int) RequestFrame {
	return RequestFrame{
		Header: Header{ID: 8, Kind: FrameSingle},
		Req:    Request{Op: OpPutMany, Entries: geobenchEntries(n)},
	}
}

func encodedRequest(f RequestFrame) []byte { return appendRequestFrame(nil, &f) }

// framedRequest is f as it goes over the wire, length prefix included.
func framedRequest(f RequestFrame) []byte {
	wire := appendRequestFrame([]byte{0, 0, 0, 0}, &f)
	binary.BigEndian.PutUint32(wire, uint32(len(wire)-4))
	return wire
}

// requestSeeds lists FuzzRequestFrame's corpus: frames that decode, and one
// hostile input per rule the decoder has to apply.
// TestFuzzCorpusIsRequestSeeds keeps the files equal to this list.
func requestSeeds(t testing.TB) []frameSeed {
	// preamble builds what precedes a frame's body: the 19-byte header, no
	// deadline, no tenant.
	preamble := func(kind FrameKind, flags byte, body ...byte) []byte {
		b := []byte{requestFormat, byte(kind), flags}
		b = binary.BigEndian.AppendUint64(b, 9)
		b = binary.BigEndian.AppendUint64(b, 0)
		b = append(b, 0, 0)
		return append(b, body...)
	}
	get := encodedRequest(getRequest())
	name := geobenchEntry(1).Name
	entry := registry.AppendEntry(nil, geobenchEntry(1))

	names := make([]string, 64)
	for i := range names {
		names[i] = geobenchEntry(i).Name
	}
	mixed := batchRequest(61)
	mixed.Batch.Ops = append(mixed.Batch.Ops,
		Request{Op: OpPut, Entry: geobenchEntry(61)},
		Request{Op: OpDeleteMany, Names: []string{"data/a", "", "data/c"}},
		Request{Op: OpLen})

	gobEntry := golden(t, "..", "registry", "testdata", "entry_gob.golden")
	gobRequest := golden(t, "testdata", "request_gob.golden")[4:]

	return []frameSeed{
		{name: "get", data: get},
		{name: "put", data: encodedRequest(RequestFrame{
			Header: Header{ID: 2, Kind: FrameSingle},
			Req:    Request{Op: OpPut, Entry: geobenchEntry(2)},
		})},
		{name: "addloc", data: encodedRequest(RequestFrame{
			Header: Header{ID: 3, Kind: FrameSingle},
			Req:    Request{Op: OpAddLoc, Name: name, Location: registry.Location{Site: 2, Node: registry.NoNode, Path: "blob/1"}},
		})},
		{name: "getmany64", data: encodedRequest(RequestFrame{
			Header: Header{ID: 4, Kind: FrameSingle},
			Req:    Request{Op: OpGetMany, Names: names},
		})},
		{name: "merge256", data: encodedRequest(RequestFrame{
			Header: Header{ID: 5, Kind: FrameSingle},
			Req:    Request{Op: OpMerge, Entries: geobenchEntries(256)},
		})},
		{name: "batch64", data: encodedRequest(mixed)},
		{name: "deadline-tenant", data: encodedRequest(RequestFrame{
			Header: Header{ID: 6, Kind: FrameSingle, TimeoutNs: int64(250 * time.Millisecond), Tenant: "batch", sampled: true, trace: 0xfeedfacecafebeef},
			Req:    Request{Op: OpDelete, Name: name},
		})},
		{name: "expired-ping", data: encodedRequest(RequestFrame{
			Header: Header{ID: 7, Kind: 9, TimeoutNs: -1},
			Req:    Request{Op: OpPing},
		})},
		{name: "watch-open", data: encodedRequest(RequestFrame{
			Header: Header{ID: 8, Kind: FrameWatch, Tenant: "feeds"},
			Watch:  WatchRequest{FromSeq: 4096, Prefix: "data/", NoFallback: true},
		})},
		{name: "watch-cancel", data: encodedRequest(RequestFrame{Header: Header{ID: 8, Kind: FrameWatchCancel}})},

		// a batch of 2^32-1 requests with nothing behind the count: 26 bytes.
		{name: "hostile-batch-count", err: errFrameLength, data: preamble(FrameBatch, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		// a name one byte longer than what follows its length.
		{name: "hostile-name-length-past-end", err: errFrameLength,
			data: append(preamble(FrameSingle, 0, byte(OpGet), byte(len(name)+1)), name...)},
		// a tenant that claims the rest of the frame and one byte more.
		{name: "hostile-tenant-length-past-end", err: errFrameLength,
			data: append(preamble(FrameSingle, 0)[:headerLen+1], 4, 'a', 'b', 'c')},
		// 2^32-1 names; name lengths that each fit and together do not.
		{name: "hostile-name-count", err: errFrameLength, data: preamble(FrameSingle, 0, byte(OpGetMany), 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0)},
		{name: "hostile-names-past-end", err: errFrameLength, data: preamble(FrameSingle, 0, byte(OpDeleteMany), 2, 3, 3, 'a', 'b', 'c', 'd')},
		// a name and a path that each fit and together do not.
		{name: "hostile-addloc-lengths", err: errFrameLength, data: preamble(FrameSingle, 0, byte(OpAddLoc), 3, 3, 0, 0, 'a', 'b', 'c', 'd')},
		// 2^32-1 entries.
		{name: "hostile-entry-count", err: errFrameLength, data: preamble(FrameSingle, 0, byte(OpMerge), 0xff, 0xff, 0xff, 0xff, 0x0f)},
		// the gob value of an entry where a frame carries an entry.
		{name: "hostile-gob-entry", err: errFrameEntryForm,
			data: append(binary.AppendUvarint(preamble(FrameSingle, 0, byte(OpPut)), uint64(len(gobEntry))), gobEntry...)},
		// an entry that starts with the format byte and breaks the entry
		// encoding's own rules (a byte after the last path).
		{name: "hostile-entry-trailing-byte", err: errEntryRule,
			data: append(append(preamble(FrameSingle, 0, byte(OpCreate), byte(len(entry)+1)), entry...), 0)},
		{name: "hostile-undefined-op", err: errRequestOp, data: preamble(FrameSingle, 0, 200)},
		{name: "hostile-op-zero", err: errRequestOp, data: preamble(FrameSingle, 0, 0)},
		// the second of three batched requests names no operation.
		{name: "hostile-undefined-op-in-batch", err: errRequestOp, data: preamble(FrameBatch, 0, 3, byte(OpPing), 0x7f, byte(OpPing))},
		{name: "hostile-undefined-flag", err: errFrameFlags, data: preamble(FrameSingle, 0x02, byte(OpPing))},
		// ping has no body; neither has a watch cancel.
		{name: "hostile-body-after-bodyless-op", err: errFrameTrailing, data: preamble(FrameSingle, 0, byte(OpPing), 1, 'x')},
		{name: "hostile-body-after-cancel", err: errFrameTrailing, data: preamble(FrameWatchCancel, 0, byte(OpPing))},
		// a deadline of 0 written as two bytes.
		{name: "hostile-not-shortest", err: errFrameNotShortest, data: append(preamble(FrameSingle, 0)[:headerLen], 0x80, 0x00, 0, byte(OpPing))},
		// a name length whose continuation bit promises a byte that is not there.
		{name: "hostile-number-cut-short", err: errFrameTruncated, data: preamble(FrameSingle, 0, byte(OpGet), 0x80)},
		{name: "hostile-trailing-byte", err: errFrameTrailing, data: append(append([]byte(nil), get...), 0)},
		{name: "hostile-no-fallback-byte", err: errFrameBool, data: preamble(FrameWatch, 0, 0, 0, 2)},
		{name: "hostile-format-byte-alone", err: errFrameTruncated, data: []byte{requestFormat}},
		{name: "hostile-header-only", err: errFrameTruncated, data: preamble(FrameSingle, 0)[:headerLen]},
		{name: "hostile-no-request", err: errFrameTruncated, data: preamble(FrameSingle, 0)},
		{name: "hostile-empty", err: errRequestFormat, data: []byte{}},
		// a reply is not a request.
		{name: "hostile-reply-format", err: errRequestFormat, data: encoded(getReply())},
		// getRequest as the client of the last commit with gob requests wrote it.
		{name: "hostile-gob-request", err: errRequestFormat, data: gobRequest},
	}
}

// TestFuzzCorpusIsRequestSeeds keeps the committed corpus, which is what `go
// test` runs FuzzRequestFrame over, identical to requestSeeds.
func TestFuzzCorpusIsRequestSeeds(t *testing.T) {
	checkCorpus(t, "FuzzRequestFrame", requestSeeds(t))
}

// A seed that decodes has the one encoding; a hostile one is refused with the
// error of the rule it breaks, and refusing it allocates at most the tenant
// and the fields before the broken rule — never the length or count it
// claims.
func TestDecodeRequestRefusesHostileBytes(t *testing.T) {
	for _, s := range requestSeeds(t) {
		var f RequestFrame
		err := decodeRequestFrame(s.data, &f)
		if s.err == nil {
			if err != nil {
				t.Errorf("%s: decodeRequestFrame = %v, want a frame", s.name, err)
			} else if again := appendRequestFrame(nil, &f); !bytes.Equal(again, s.data) {
				t.Errorf("%s: decoded frame encodes to\n %x, want\n %x", s.name, again, s.data)
			}
			continue
		}
		if s.err == errEntryRule {
			if _, entryErr := registry.DecodeEntry(s.data[headerLen+4:]); entryErr == nil || !errors.Is(err, entryErr) {
				t.Errorf("%s: decodeRequestFrame = %v, want DecodeEntry's %v", s.name, err, entryErr)
			}
		} else if err != s.err {
			t.Errorf("%s: decodeRequestFrame = %v, want %v", s.name, err, s.err)
		}
		if allocs := testing.AllocsPerRun(100, func() { decodeRequestFrame(s.data, &f) }); allocs > 2 { //nolint:errcheck // counted, not checked
			t.Errorf("%s: refusing it cost %v allocations, want at most 2", s.name, allocs)
		}
	}
}

// testdata/request_get.golden pins the bytes of one Get request on the wire,
// length prefix included, both ways.
func TestRequestGolden(t *testing.T) {
	path := filepath.Join("testdata", "request_get.golden")
	f := getRequest()
	frame, err := encodeRequest(&f)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseFrame(frame)
	if *updateCorpus {
		if err := os.WriteFile(path, frame.b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := golden(t, path)
	if !bytes.Equal(frame.b, want) {
		t.Errorf("the Get request encodes to\n %x, the golden file holds\n %x", frame.b, want)
	}
	payload, err := readPayload(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("readPayload(golden) = %v", err)
	}
	var back RequestFrame
	if err := decodeRequestFrame(payload, &back); err != nil {
		t.Fatalf("decodeRequestFrame(golden) = %v", err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Errorf("the golden bytes decode to\n %+v, want\n %+v", back, f)
	}
}

// The gob golden file is what it is said to be: the parent's encoding of
// getRequest. (Decoding gob, unlike encoding it, does not depend on what the
// process did before.)
func TestRequestGobGoldenIsTheParentsGet(t *testing.T) {
	var f gobRequestFrame
	if err := gob.NewDecoder(bytes.NewReader(golden(t, "testdata", "request_gob.golden")[4:])).Decode(&f); err != nil {
		t.Fatal(err)
	}
	want := getRequest()
	if f.Header.Version != 2 || f.Header.ID != want.Header.ID || f.Header.Kind != want.Header.Kind ||
		f.Req.Op != want.Req.Op.String() || f.Req.Name != want.Req.Name {
		t.Errorf("request_gob.golden holds %+v", f)
	}
}

func FuzzRequestFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := append([]byte(nil), data...)
		var frame RequestFrame
		if err := decodeRequestFrame(payload, &frame); err != nil {
			return
		}
		if enc := appendRequestFrame(nil, &frame); !bytes.Equal(enc, data) {
			t.Fatalf("%x decoded, but its frame encodes to %x: two encodings of one frame", data, enc)
		}
		// The frame shares no memory with its payload, which goes back to a
		// pool: scribbling over it changes nothing the frame holds.
		for i := range payload {
			payload[i] ^= 0xa5
		}
		if enc := appendRequestFrame(nil, &frame); !bytes.Equal(enc, data) {
			t.Fatalf("the frame decoded from %x changed with its payload: it now encodes to %x", data, enc)
		}
	})
}

// The request half of the allocation gates the ladder's
// rpc.roundtrip_allocs_null row rests on.
func TestRequestCodecAllocations(t *testing.T) {
	const names, entries = 64, 256
	get, batch, putMany := getRequest(), batchRequest(64), putManyRequest(entries)
	withTenant := getRequest()
	withTenant.Header.Tenant = "batch"
	getMany := RequestFrame{Header: Header{ID: 4, Kind: FrameSingle}, Req: Request{Op: OpGetMany}}
	for i := 0; i < names; i++ {
		getMany.Req.Names = append(getMany.Req.Names, geobenchEntry(i).Name)
	}
	for _, tc := range []struct {
		name   string
		f      *RequestFrame
		decode float64 // allocations decoding may cost
	}{
		{"Get", &get, 1},                  // the name
		{"GetWithTenant", &withTenant, 2}, // and the tenant
		{"GetMany64", &getMany, 2},        // the slice, one copy of all the names
		{"Batch64", &batch, 1 + 64},       // the slice, a name per request
		{"PutMany256", &putMany, 2*entries + 1},
	} {
		buf := appendRequestFrame(nil, tc.f)
		if allocs := testing.AllocsPerRun(100, func() { buf = appendRequestFrame(buf[:0], tc.f) }); allocs != 0 {
			t.Errorf("%s: appendRequestFrame into spare capacity cost %v allocations, want 0", tc.name, allocs)
		}
		var back RequestFrame
		if allocs := testing.AllocsPerRun(100, func() { decodeRequestFrame(buf, &back) }); allocs > tc.decode { //nolint:errcheck // counted, not checked
			t.Errorf("%s: decodeRequestFrame cost %v allocations, want at most %v", tc.name, allocs, tc.decode)
		}
	}
}

// lockedBuffer is a log sink a test reads while the server still writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A client of the parent's generation facing this server: its first request,
// as the parent wrote it, is refused on its first byte. The server says why in
// its log and closes the connection; it executes nothing and charges nobody,
// and the client — whose reply reader turns any read error into an unavailable
// connection — fails at once instead of waiting for a reply that is not coming.
func TestParentRequestRefusedUnexecuted(t *testing.T) {
	var logged lockedBuffer
	reg := metrics.NewRegistry()
	inst := registry.NewInstance(1, memcache.New(memcache.Config{}))
	srv := NewServer(inst, log.New(&logged, "", 0), WithServerMetrics(reg), WithServerLimits(limits.New(limits.Config{}, reg)))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(golden(t, "testdata", "request_gob.golden")); err != nil {
		t.Fatal(err)
	}
	const timeout = 3 * time.Second
	conn.SetReadDeadline(time.Now().Add(timeout))
	var length [4]byte
	if n, err := io.ReadFull(conn, length[:]); err != io.EOF {
		t.Fatalf("the parent's client read %d bytes and %v, want the connection closed", n, err)
	}
	if got := logged.String(); !strings.Contains(got, "bad frame") || !strings.Contains(got, "another wire generation") {
		t.Errorf("the server logged %q, want a bad frame of another wire generation", got)
	}
	if n := srv.Requests(); n != 0 {
		t.Errorf("the server executed %d requests, want 0", n)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["limits_admitted_total"] + snap.Counters["limits_rejected_total"]; n != 0 {
		t.Errorf("the limiter was offered %d frames, want 0", n)
	}
	if n := snap.Counters["rpc_server_dispatched_total"]; n != 0 {
		t.Errorf("rpc_server_dispatched_total = %d, want 0", n)
	}
}

// A frame the limiter refuses is not decoded past its preamble: refusing a
// 64-operation batch or a 256-entry PutMany costs the server the same few
// allocations as refusing a Get, the replies are the overloaded frames they
// always were, and a watch cancel is not charged even to a tenant without any
// quota.
func TestRejectedFrameIsNotDecoded(t *testing.T) {
	srv, reg, addr := startLimitedServer(t, limits.Config{
		Tenants: map[string]limits.TenantLimit{"blocked": {OpsPerSec: -1}},
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var reply ResponseFrame
	exchange := func(wire []byte) {
		t.Helper()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		if err := readReply(conn, &reply); err != nil {
			t.Fatal(err)
		}
	}
	// exchangeRaw reads the reply without decoding it, so that all an
	// exchange allocates is what the server does.
	scratch := make([]byte, 64<<10)
	exchangeRaw := func(wire []byte) {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, scratch[:4]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, scratch[:binary.BigEndian.Uint32(scratch)]); err != nil {
			t.Fatal(err)
		}
	}
	costs := map[string]float64{}
	for name, f := range map[string]RequestFrame{"Get": getRequest(), "Batch64": batchRequest(64), "PutMany256": putManyRequest(256)} {
		f.Header.Tenant = "blocked"
		wire := framedRequest(f)

		exchange(wire)
		if reply.Header.ID != f.Header.ID || reply.Header.Kind != f.Header.Kind {
			t.Errorf("%s: the rejection is addressed %+v, want ID %d kind %d", name, reply.Header, f.Header.ID, f.Header.Kind)
		}
		answers := []Response{reply.Resp}
		if f.Header.Kind == FrameBatch {
			answers = reply.Batch.Ops
		}
		if want := max(1, len(f.Batch.Ops)); len(answers) != want {
			t.Errorf("%s: %d answers, want %d", name, len(answers), want)
		}
		for i, resp := range answers {
			if resp.OK || resp.Err != ErrOverloaded || resp.RetryAfterNs <= 0 || !errors.Is(decodeRespErr(resp), limits.ErrOverloaded) {
				t.Errorf("%s: answer %d = %+v, want overloaded with a retry-after", name, i, resp)
			}
		}
		costs[name] = testing.AllocsPerRun(100, func() { exchangeRaw(wire) })
	}
	t.Logf("allocations per refused frame: %v", costs)
	// 10 or 11 each; the race detector's sync.Pool misses add a few. Decoding
	// the bodies would add 64 and 513.
	for name, cost := range costs {
		if cost > 24 {
			t.Errorf("refusing %s cost the server %v allocations, refusing a Get %v: want a small constant", name, cost, costs["Get"])
		}
	}
	if n := srv.Requests(); n != 0 {
		t.Errorf("the refused frames executed %d operations", n)
	}

	before := reg.Snapshot().Counters["limits_rejected_total"]
	cancel := RequestFrame{Header: Header{ID: 99, Kind: FrameWatchCancel, Tenant: "blocked"}}
	if err := writeRequest(conn, &cancel); err != nil {
		t.Fatal(err)
	}
	exchange(framedRequest(RequestFrame{Header: Header{ID: 100, Kind: FrameSingle}, Req: Request{Op: OpPing}}))
	if reply.Header.ID != 100 || !reply.Resp.OK {
		t.Errorf("ping behind the watch cancel = %+v", reply)
	}
	if after := reg.Snapshot().Counters["limits_rejected_total"]; after != before {
		t.Errorf("the watch cancel was offered to the limiter: limits_rejected_total %d -> %d", before, after)
	}
}

// Requests are decoded out of a pooled buffer that the next read overwrites,
// so whatever a request keeps has to be its own copy. Eight callers pipeline
// Puts of distinct entries on one connection and read them back; under -race
// this is also the check that nothing is shared between the read loop and the
// handlers it starts.
func TestConcurrentRequestsOwnTheirMemory(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
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

	const callers, rounds = 8, 60
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := registry.NewEntry(fmt.Sprintf("own/c%d/f%03d", c, i), int64(1000*c+i), fmt.Sprintf("task-%d-%d", c, i),
					registry.Location{Site: 1, Node: 4, Path: fmt.Sprintf("blob/%d/%d", c, i)})
				if _, err := client.Put(tctx, e); err != nil {
					t.Errorf("Put(%s): %v", e.Name, err)
					return
				}
				loc := registry.Location{Site: 2, Node: registry.NoNode, Path: fmt.Sprintf("copy/%d/%d", c, i)}
				if i%4 == 0 {
					if _, err := client.AddLocation(tctx, e.Name, loc); err != nil {
						t.Errorf("AddLocation(%s): %v", e.Name, err)
						return
					}
					e.Locations = append(e.Locations, loc)
				}
				got, err := client.Get(tctx, e.Name)
				if err != nil || !got.Equal(e) {
					t.Errorf("Get(%s) = %+v, %v; want %+v", e.Name, got, err, e)
					return
				}
				if i%10 == 9 {
					names := []string{e.Name, fmt.Sprintf("own/c%d/f%03d", c, i-1), "own/missing"}
					many, err := client.GetMany(tctx, names)
					if err != nil || len(many) != 2 || many[0].Name != names[0] || many[1].Name != names[1] {
						t.Errorf("GetMany(%v) = %+v, %v", names, many, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := inst.Len(tctx); n != callers*rounds {
		t.Errorf("the server holds %d entries, want %d", n, callers*rounds)
	}
}

func BenchmarkRequestFrameEncode(b *testing.B) {
	get, batch, putMany := getRequest(), batchRequest(64), putManyRequest(256)
	for _, bc := range []struct {
		name string
		f    *RequestFrame
	}{{"Get", &get}, {"Batch64", &batch}, {"PutMany256", &putMany}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := appendRequestFrame(nil, bc.f)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				buf = appendRequestFrame(buf[:0], bc.f)
			}
		})
	}
}

func BenchmarkRequestFrameDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
	}{
		{"Get", encodedRequest(getRequest())},
		{"Batch64", encodedRequest(batchRequest(64))},
		{"PutMany256", encodedRequest(putManyRequest(256))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var f RequestFrame
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decodeRequestFrame(bc.data, &f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
