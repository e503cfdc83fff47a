package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

var tctx = context.Background()

// startTestServer brings up a server on a random localhost port and returns a
// connected client. Both are torn down when the test finishes.
func startTestServer(t *testing.T, site cloud.SiteID) (*Server, *Client) {
	t.Helper()
	inst := registry.NewInstance(site, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func wireEntry(name string) registry.Entry {
	return registry.NewEntry(name, 2048, "task-w", registry.Location{Site: 1, Node: 4})
}

// writeRequest writes one length-prefixed request to w, as a raw client
// does.
func writeRequest(w io.Writer, f *RequestFrame) error {
	frame, err := encodeRequest(f)
	if err != nil {
		return err
	}
	_, err = w.Write(frame.b)
	releaseFrame(frame)
	return err
}

func TestClientSiteAndPing(t *testing.T) {
	_, client := startTestServer(t, 3)
	if client.Site() != 3 {
		t.Errorf("Site = %d, want 3", client.Site())
	}
	if err := client.Ping(tctx); err != nil {
		t.Errorf("Ping: %v", err)
	}
	if client.Addr() == "" {
		t.Error("Addr should not be empty")
	}
}

func TestCreateGetOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	e := wireEntry("wire-1")
	stored, err := client.Create(tctx, e)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if stored.Version == 0 {
		t.Error("Create should return the stored version")
	}
	got, err := client.Get(tctx, "wire-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !got.Equal(e) {
		t.Errorf("Get = %+v, want %+v", got, e)
	}
	if _, err := client.Get(tctx, "nope"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("Get of an absent name = %v, want ErrNotFound", err)
	}
	if client.Len(tctx) != 1 {
		t.Errorf("Len = %d, want 1", client.Len(tctx))
	}
}

func TestErrorsCrossTheWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	e := wireEntry("dup")
	if _, err := client.Create(tctx, e); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create(tctx, e); !errors.Is(err, registry.ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
	if _, err := client.Get(tctx, "missing"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
	if err := client.Delete(tctx, "missing"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("Delete missing = %v, want ErrNotFound", err)
	}
	if _, err := client.Create(tctx, registry.Entry{}); !errors.Is(err, registry.ErrInvalidEntry) {
		t.Errorf("Create invalid = %v, want ErrInvalidEntry", err)
	}
	if _, err := client.AddLocation(tctx, "missing", registry.Location{}); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("AddLocation missing = %v, want ErrNotFound", err)
	}
}

func TestUpdateDeleteOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	e := wireEntry("upd")
	client.Create(tctx, e)
	loc := registry.Location{Site: 2, Node: 9}
	updated, err := client.AddLocation(tctx, "upd", loc)
	if err != nil {
		t.Fatalf("AddLocation: %v", err)
	}
	if !updated.HasLocation(loc) {
		t.Error("location not added")
	}
	if err := client.Delete(tctx, "upd"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := client.Get(tctx, "upd"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
}

func TestPutNamesEntriesMergeOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	var batch []registry.Entry
	for i := 0; i < 5; i++ {
		batch = append(batch, wireEntry(fmt.Sprintf("m%d", i)))
	}
	n, err := client.Merge(tctx, batch)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if n != 5 {
		t.Errorf("Merge applied %d, want 5", n)
	}
	if _, err := client.Put(tctx, wireEntry("m0")); err != nil {
		t.Errorf("Put: %v", err)
	}
	if n := client.Len(tctx); n != 5 {
		t.Errorf("Len = %d, want 5", n)
	}
	entries, err := client.Entries(tctx)
	if err != nil || len(entries) != 5 {
		t.Errorf("Entries = %d, %v; want 5", len(entries), err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, first := startTestServer(t, 0)
	addr := first.Addr()
	const clients = 6
	const perClient = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(tctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("c%d-f%d", ci, i)
				if _, err := c.Create(tctx, wireEntry(name)); err != nil {
					errs <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if _, err := c.Get(tctx, name); err != nil {
					errs <- fmt.Errorf("get %s: %w", name, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if first.Len(tctx) != clients*perClient {
		t.Errorf("server holds %d entries, want %d", first.Len(tctx), clients*perClient)
	}
	if srv.Requests() == 0 {
		t.Error("server request counter did not advance")
	}
}

func TestClientClosed(t *testing.T) {
	_, client := startTestServer(t, 0)
	client.Close()
	if _, err := client.Get(tctx, "x"); err == nil {
		t.Error("calls on a closed client should fail")
	}
	if err := client.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial(tctx, "127.0.0.1:1", WithTimeout(200*time.Millisecond)); err == nil {
		t.Error("Dial to a closed port should fail")
	}
}

func TestServerClose(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(tctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The client should fail (possibly after its one retry) once the server
	// is gone.
	if err := client.Ping(tctx); err == nil {
		t.Error("Ping should fail after server shutdown")
	}
	client.Close()
	if srv.Addr() == "" {
		t.Error("Addr should remain known after close")
	}
}

// An undefined op byte has no body to skip, so its frame cannot be decoded;
// the header has said whom to tell, though, so the server answers bad-op —
// once per operation of a batch — and keeps the connection.
func TestBadOpRejected(t *testing.T) {
	srv, _ := startTestServer(t, 0)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(f RequestFrame) ResponseFrame {
		t.Helper()
		if err := writeRequest(conn, &f); err != nil {
			t.Fatal(err)
		}
		var reply ResponseFrame
		if err := readReply(conn, &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	badOp := func(resp Response) bool {
		return !resp.OK && resp.Err == ErrBadOp && resp.Detail == errRequestOp.Error()
	}
	served := srv.Requests()

	// Op(8) named the names listing until that operation was removed.
	for _, op := range []Op{Op(200), Op(8)} {
		reply := exchange(RequestFrame{Header: Header{ID: 1, Kind: FrameSingle}, Req: Request{Op: op}})
		if reply.Header.ID != 1 || reply.Header.Kind != FrameSingle || !badOp(reply.Resp) {
			t.Errorf("undefined %v answered %+v", op, reply)
		}
	}
	reply := exchange(RequestFrame{Header: Header{ID: 2, Kind: FrameBatch},
		Batch: BatchRequest{Ops: []Request{{Op: OpPing}, {Op: 0}, {Op: OpPing}}}})
	if reply.Header.ID != 2 || reply.Header.Kind != FrameBatch || len(reply.Batch.Ops) != 3 {
		t.Fatalf("batch holding an undefined op answered %+v", reply)
	}
	for i, resp := range reply.Batch.Ops {
		if !badOp(resp) {
			t.Errorf("op %d of the batch answered %+v", i, resp)
		}
	}
	if n := srv.Requests(); n != served {
		t.Errorf("the refused frames executed %d operations", n-served)
	}

	reply = exchange(RequestFrame{Header: Header{ID: 3, Kind: FrameSingle}, Req: Request{Op: OpPing}})
	if reply.Header.ID != 3 || !reply.Resp.OK {
		t.Errorf("ping on the same connection after the refusals = %+v", reply)
	}
}

func TestCoreFabricOverRPC(t *testing.T) {
	// End-to-end: four registry servers (one per site) driven through the
	// strategies via rpc clients plugged into the fabric. Exercised more
	// fully in examples/multisite; here we check the wiring compiles and a
	// round trip works through registry.API.
	sites := []cloud.SiteID{0, 1, 2, 3}
	proxies := make(map[cloud.SiteID]registry.API, len(sites))
	for _, s := range sites {
		inst := registry.NewInstance(s, memcache.New(memcache.Config{}))
		srv := NewServer(inst, nil)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		client, err := Dial(tctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		proxies[s] = client
	}
	e := wireEntry("fabric-over-rpc")
	if _, err := proxies[2].Create(tctx, e); err != nil {
		t.Fatalf("Create via proxy: %v", err)
	}
	got, err := proxies[2].Get(tctx, "fabric-over-rpc")
	if err != nil || !got.Equal(e) {
		t.Errorf("Get via proxy: %v", err)
	}
}
