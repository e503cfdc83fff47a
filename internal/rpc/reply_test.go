package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// hugeAPI answers Entries with one entry too large for any frame.
type hugeAPI struct{ registry.API }

func (hugeAPI) Entries(context.Context) ([]registry.Entry, error) {
	path := strings.Repeat("p", MaxMessageSize+1<<20)
	return []registry.Entry{{Name: "huge", Locations: []registry.Location{{Path: path}}}}, nil
}

// A reply larger than MaxMessageSize is answered with an error for its own
// caller. The connection used to be closed instead, failing every other call
// pipelined on it — and, through a Router, counting a healthy shard's
// breaker towards open.
func TestOversizedReplyIsAnsweredNotDropped(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	serverReg := metrics.NewRegistry()
	srv := NewServer(hugeAPI{inst}, nil, WithServerMetrics(serverReg))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clientReg := metrics.NewRegistry()
	client, err := Dial(tctx, addr, WithPoolSize(1), WithMetrics(clientReg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Create(tctx, wireEntry("small")); err != nil {
		t.Fatal(err)
	}

	refused := func(err error) bool {
		return err != nil && !errors.Is(err, registry.ErrUnavailable) &&
			strings.Contains(err.Error(), "exceeds the message limit") &&
			strings.Contains(err.Error(), fmt.Sprint(MaxMessageSize))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := client.Entries(tctx); !refused(err) {
			t.Errorf("Entries = %v, want an error naming the size and the limit", err)
		}
	}()
	// Gets share the connection with the oversized call while it is served.
	for served := false; !served; {
		select {
		case <-done:
			served = true
		default:
		}
		if _, err := client.Get(tctx, "small"); err != nil {
			t.Fatalf("Get beside the oversized reply: %v", err)
		}
	}

	resps, err := client.Batch(tctx, []Request{{Op: OpEntries}, {Op: OpGet, Name: "small"}})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, resp := range resps {
		if resp.OK || resp.Err != ErrInternal || !refused(decodeRespErr(resp)) {
			t.Errorf("op %d of the oversized batch = %+v, want an internal error naming the size", i, resp)
		}
	}
	if _, err := client.Get(tctx, "small"); err != nil {
		t.Errorf("Get after the oversized replies: %v", err)
	}
	if dials := clientReg.Snapshot().Counters["rpc_client_dials_total"]; dials != 1 {
		t.Errorf("the client dialed %d times, want 1: the connection was dropped", dials)
	}
	if n := serverReg.Snapshot().Counters["rpc_server_errors_internal_total"]; n != 3 {
		t.Errorf("rpc_server_errors_internal_total = %d, want 3 (one call, two batched ops)", n)
	}
}

// An event frame has no caller to answer, so one that is too large is an
// error, which ends its connection, and nothing of it is appended.
func TestOversizedEventFrameIsAnError(t *testing.T) {
	events := []feed.Event{{Seq: 1, Op: 1, Name: "huge", Value: make([]byte, MaxMessageSize)}}
	before := []byte("queued")
	if got, err := appendEventFrame(before, 1, events, nil); err == nil || string(got) != "queued" {
		t.Errorf("appendEventFrame of an oversized event frame = %d bytes, %v; want the 6 bytes before it and an error", len(got), err)
	}
}

// gobRequestFrame has the shape of the RequestFrame every release before the
// request encoding put on the wire as one gob stream: what
// testdata/request_gob.golden holds, and what a server of those releases
// decodes into.
type gobRequestFrame struct {
	Header struct {
		Version   uint16
		ID        uint64
		Kind      FrameKind
		TimeoutNs int64
		Tenant    string
	}
	Req struct {
		Op   string
		Name string
	}
}

// parentServer reads requests the way the servers before the request encoding
// did, as gob streams, and hangs up on what does not decode as one, as they
// did. decoded counts the requests it would have executed.
func parentServer(t *testing.T) (addr string, decoded *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	decoded = new(atomic.Int64)
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		for {
			payload, err := readFrame(conn)
			if err != nil {
				return
			}
			var rf gobRequestFrame
			err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&rf)
			if err != nil {
				return
			}
			decoded.Add(1)
			reply := ResponseFrame{Header: Header{ID: rf.Header.ID, Kind: rf.Header.Kind}, Resp: Response{OK: true, N: 3}}
			if _, err := conn.Write(gobMessage(t, reply)); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String(), decoded
}

// A client of this generation facing a server of the parent's has its first
// request refused on the format byte and the connection closed: Dial and the
// Watch handshake each fail with one clear error instead of hanging, and the
// server executed nothing.
func TestParentServerFailsCleanly(t *testing.T) {
	addr, decoded := parentServer(t)
	const timeout = 3 * time.Second
	clean := func(what string, start time.Time, err error) {
		t.Helper()
		if !errors.Is(err, registry.ErrUnavailable) {
			t.Errorf("%s = %v, want an unavailable error", what, err)
		}
		if elapsed := time.Since(start); elapsed >= timeout {
			t.Errorf("%s took %v: it waited for the timeout", what, elapsed)
		}
	}
	ctx, cancel := context.WithTimeout(tctx, timeout)
	defer cancel()

	start := time.Now()
	client, err := Dial(ctx, addr, WithTimeout(timeout))
	if err == nil {
		client.Close()
	}
	clean("Dial", start, err)

	// Dial is what builds a Client; the watch handshake is reached without it.
	client = &Client{addr: addr, timeout: timeout, pool: 1, conns: make([]*poolConn, 1)}
	start = time.Now()
	stream, err := client.Watch(ctx, 0, WatchOptions{})
	if err == nil {
		stream.Close()
	}
	clean("Watch", start, err)

	if n := decoded.Load(); n != 0 {
		t.Errorf("the gob reader decoded %d requests of this generation", n)
	}
}

// The other way round: the parent's reply reader, a gob decoder, refuses a
// reply of this generation on its first byte.
func TestParentReaderRefusesReply(t *testing.T) {
	var f ResponseFrame
	err := gob.NewDecoder(bytes.NewReader(encoded(getReply()))).Decode(&f)
	if err == nil {
		t.Fatalf("gob decoded a reply into %+v", f)
	}
	if f.Header.ID != 0 || f.Resp.OK {
		t.Errorf("gob failed with %v and still filled in %+v", err, f)
	}
}

// A request whose kind is neither batch nor watch is served as a single
// request, and its reply says so: a reply carries one of the four reply kinds
// whatever the request claimed.
func TestUnknownRequestKindAnsweredAsSingle(t *testing.T) {
	srv, _ := startTestServer(t, 0)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := RequestFrame{Header: Header{ID: 5, Kind: 9}, Req: Request{Op: OpPing}}
	if err := writeRequest(conn, &req); err != nil {
		t.Fatal(err)
	}
	var reply ResponseFrame
	if err := readReply(conn, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Header.ID != 5 || reply.Header.Kind != FrameSingle || !reply.Resp.OK {
		t.Errorf("reply = %+v, want an ok single reply for ID 5", reply)
	}
}

// Replies are decoded out of a pooled buffer that the next read overwrites,
// so whatever a reply keeps has to be its own copy. Eight callers share one
// connection; under -race this is also the check that nothing is shared
// between the demultiplexer and its callers.
func TestConcurrentRepliesOwnTheirMemory(t *testing.T) {
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

	const callers, keys = 8, 32
	want := make([]registry.Entry, keys)
	names := make([]string, keys)
	for i := range want {
		want[i] = registry.NewEntry(fmt.Sprintf("own/f%03d", i), int64(1000+i), fmt.Sprintf("task-%d", i),
			registry.Location{Site: 1, Node: 4, Path: fmt.Sprintf("blob/%d", i)})
		names[i] = want[i].Name
		if _, err := client.Create(tctx, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (c*31 + i) % keys
				got, err := client.Get(tctx, names[k])
				if err != nil || !got.Equal(want[k]) {
					t.Errorf("Get(%s) = %+v, %v", names[k], got, err)
					return
				}
				switch i % 10 {
				case 3:
					many, err := client.GetMany(tctx, names)
					if err != nil || len(many) != keys {
						t.Errorf("GetMany = %d entries, %v", len(many), err)
						return
					}
					for j, e := range many {
						if !e.Equal(want[j]) {
							t.Errorf("GetMany[%d] = %+v, want %+v", j, e, want[j])
							return
						}
					}
				case 7:
					listed, err := client.Entries(tctx)
					if err != nil || len(listed) != keys {
						t.Errorf("Entries = %d entries, %v; want %d", len(listed), err, keys)
						return
					}
					for _, e := range listed {
						if !strings.HasPrefix(e.Name, "own/f") || len(e.Name) != len(names[0]) {
							t.Errorf("Entries holds %q", e.Name)
							return
						}
					}
				case 9:
					if _, err := client.Get(tctx, "own/missing"); !errors.Is(err, registry.ErrNotFound) || !strings.Contains(err.Error(), "own/missing") {
						t.Errorf("Get of a missing name = %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// versionServer answers every PutMany with as many versions as the request
// has entries plus skew — a server that miscounts, when skew is not 0 — and
// any other request with an empty success. Of a request it decodes only the
// preamble, the op and the entry count, and it encodes each reply into one
// reused buffer, so what it allocates per call does not grow with the batch:
// what grows is the client's.
func versionServer(t *testing.T, skew int) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	versions := make([]uint64, 1024)
	for i := range versions {
		versions[i] = uint64(100 + i)
	}
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		var rf RequestFrame
		var out []byte
		for {
			payload, err := readFrame(conn)
			if err != nil {
				return
			}
			body, _, err := decodeRequestPreamble(payload, &rf)
			reply := ResponseFrame{Header: Header{ID: rf.Header.ID, Kind: FrameSingle}, Resp: Response{OK: true}}
			if Op(body.byte()) == OpPutMany {
				reply.Resp.Versions = versions[:body.count(minEntryBytes)+skew]
			}
			if err != nil || body.err != nil {
				return
			}
			out = appendResponseFrame(append(out[:0], 0, 0, 0, 0), &reply)
			binary.BigEndian.PutUint32(out, uint32(len(out)-4))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// A PutMany reply carries one version per request entry; one with more or
// fewer is a broken peer, reported as unavailable, not a short result.
func TestPutManyVersionCountMismatchIsAnError(t *testing.T) {
	entries := geobenchEntries(3)
	for _, skew := range []int{-1, 0, 1} {
		client, err := Dial(tctx, versionServer(t, skew), WithPoolSize(1), WithMetrics(nil))
		if err != nil {
			t.Fatal(err)
		}
		stored, err := client.PutMany(tctx, entries)
		client.Close()
		if skew == 0 {
			if err != nil || len(stored) != 3 || stored[0].Version != 100 || stored[2].Version != 102 {
				t.Errorf("PutMany answered with 3 versions = %+v, %v", stored, err)
			}
			continue
		}
		if stored != nil || !errors.Is(err, registry.ErrUnavailable) ||
			!strings.Contains(err.Error(), fmt.Sprintf("putmany of 3 entries answered with %d versions", 3+skew)) {
			t.Errorf("PutMany answered with %d versions = %d entries, %v; want an unavailable error naming both counts", 3+skew, len(stored), err)
		}
	}
}

// What a PutMany costs its client does not grow with the batch: the request
// is encoded into a pooled buffer, the reply decodes into one version list,
// and the stored entries are one copy of the request's. Under the race
// detector the pools drop buffers at random, and a dropped encode buffer
// regrows to the batch's size in a few steps more for the larger batch.
func TestPutManyClientAllocationsDoNotGrow(t *testing.T) {
	client, err := Dial(tctx, versionServer(t, 0), WithPoolSize(1), WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cost := func(n int) float64 {
		entries := geobenchEntries(n)
		return testing.AllocsPerRun(200, func() {
			if _, err := client.PutMany(tctx, entries); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cost(16), cost(256)
	slack := 0.0
	if raceEnabled {
		slack = 5
	}
	if large > small+slack {
		t.Errorf("a 256-entry PutMany cost its client %v allocations, a 16-entry one %v: the cost grows with the batch", large, small)
	}
	t.Logf("PutMany client allocations: %v for 16 entries, %v for 256", small, large)
}
