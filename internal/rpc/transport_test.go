package rpc

// What a connection does at the socket — a peer that stops reading, a
// connection that drops, a write that cannot finish — is checked on both
// transports a client can end up on: the local socket a server from Start
// serves beside a loopback address, and plain TCP.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/registry"
)

// transport is one way a test server is served to its clients.
type transport struct {
	name  string
	serve func(t testing.TB, srv *Server) (addr string)
}

// localTransport is a server from Start, which a client of its 127.0.0.1
// address reaches over the local socket (on Linux; TCP elsewhere), and
// tcpTransport is Serve on a plain TCP listener, which serves no local socket.
var (
	localTransport = transport{"local", func(t testing.TB, srv *Server) string {
		t.Helper()
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr
	}}
	tcpTransport = transport{"tcp", func(t testing.TB, srv *Server) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck // ends with Close
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}}
	transports = []transport{localTransport, tcpTransport}
)

// forEachTransport runs test once per transport, as a subtest named for it.
func forEachTransport(t *testing.T, test func(t *testing.T, tr transport)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { test(t, tr) })
	}
}

// fatAPI answers a GetMany with one entry per name, so a small request buys
// a large reply.
type fatAPI struct{ nullAPI }

func (a fatAPI) GetMany(_ context.Context, names []string) ([]registry.Entry, error) {
	out := make([]registry.Entry, len(names))
	for i := range out {
		out[i] = a.entry
	}
	return out, nil
}

// A peer that sends requests and never reads their replies stalls only its
// own connection: the server's write to it blocks, another client's calls
// complete, and Close ends the blocked writer.
func TestStalledReaderHoldsOnlyItsConnection(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		srv := NewServer(fatAPI{nullAPI{entry: geobenchEntry(1)}}, nil, WithMaxInflight(2), WithServerMetrics(nil))
		addr := tr.serve(t, srv)
		client, err := Dial(tctx, addr, WithPoolSize(1), WithMetrics(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		stalled, err := client.dial(tctx)
		if err != nil {
			t.Fatal(err)
		}
		// 32 replies of about 1 MiB each: more than either transport
		// buffers. The requests stop fitting once the server stops reading.
		names := make([]string, 10000)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for i := range 32 {
				f := RequestFrame{Header: Header{ID: uint64(i + 1), Kind: FrameSingle}, Req: Request{Op: OpGetMany, Names: names}}
				if writeRequest(stalled, &f) != nil {
					return
				}
			}
		}()
		defer func() { stalled.Close(); <-sent }()
		blocked := func() bool {
			for _, g := range rpcGoroutines() {
				if strings.Contains(g, "rpc.(*outbox).write") && strings.Contains(g, "net.(*conn).Write") {
					return true
				}
			}
			return false
		}
		if !eventually(blocked) {
			t.Fatal("no server write blocked on the peer that stopped reading")
		}
		for i := range 20 {
			ctx, cancel := context.WithTimeout(tctx, 2*time.Second)
			_, err := client.Get(ctx, "other")
			cancel()
			if err != nil {
				t.Fatalf("Get %d beside a stalled reader: %v", i, err)
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not end the writer blocked on a stalled reader")
		}
	})
}

// A connection that drops between calls is replaced by the next call.
func TestClientReconnects(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		client := startSlowServer(t, tr, 0)
		if _, err := client.Create(tctx, wireEntry("before")); err != nil {
			t.Fatal(err)
		}
		// Force every pooled connection to go stale; the next call must recover.
		dropConns(client)
		if _, err := client.Get(tctx, "before"); err != nil {
			t.Errorf("Get after dropped connection: %v", err)
		}
	})
}

// TestReconnectMidPipeline drops the transport while several pipelined
// requests are in flight: every caller must recover through the client's
// transparent retry on a fresh connection.
func TestReconnectMidPipeline(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		client := startSlowServer(t, tr, 300*time.Millisecond, WithPoolSize(1))
		const inflight = 8
		for i := 0; i < inflight; i++ {
			if _, err := client.Create(tctx, wireEntry(fmt.Sprintf("slow-%d", i))); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		errs := make(chan error, inflight)
		for i := 0; i < inflight; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := client.Get(tctx, fmt.Sprintf("slow-%d", i)); err != nil {
					errs <- err
				}
			}(i)
		}
		time.Sleep(50 * time.Millisecond) // all requests are written and pending
		dropConns(client)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("pipelined call did not survive the reconnect: %v", err)
		}
		// The pool must be usable afterwards.
		if _, err := client.Get(tctx, "slow-0"); err != nil {
			t.Errorf("Get after recovery: %v", err)
		}
	})
}

// dropConns closes every pooled connection of client under it.
func dropConns(client *Client) {
	client.mu.Lock()
	for _, pc := range client.conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	client.mu.Unlock()
}

// A call whose frame the server does not read fails within the transport
// timeout, and fails its connection with it: the call is pending while its
// frame is written, so the connection's watchdog bounds the write. The server
// stops reading once a gated request holds its only in-flight slot and a
// second waits for it; those two are written without being pending, so
// nothing but the call's own timeout can end its write.
func TestWriteDeadlineFailsTheConnection(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		api := &gatedAPI{nullAPI: nullAPI{entry: geobenchEntry(1)}, release: make(chan struct{})}
		defer close(api.release)
		srv := NewServer(api, nil, WithMaxInflight(1), WithServerMetrics(nil))
		addr := tr.serve(t, srv)
		client, err := Dial(tctx, addr, WithPoolSize(1), WithMetrics(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		conn, err := client.dial(tctx)
		if err != nil {
			t.Fatal(err)
		}
		const timeout = 200 * time.Millisecond
		pc := newPoolConn(conn, timeout)
		defer pc.fail(errors.New("test over"))

		for id := range uint64(2) {
			f := RequestFrame{Header: Header{ID: id + 1, Kind: FrameSingle}, Req: Request{Op: OpGet, Name: "gated"}}
			frame, err := encodeRequest(&f)
			if err != nil {
				t.Fatal(err)
			}
			if err := pc.send(frame); err != nil {
				t.Fatal(err)
			}
		}
		if !eventually(func() bool { return api.running.Load() == 1 }) {
			t.Fatal("the gated call never ran")
		}
		// Nearly MaxMessageSize: more than either transport buffers.
		names := make([]string, (MaxMessageSize-(1<<20))/1024)
		for i := range names {
			names[i] = strings.Repeat("n", 1020) + fmt.Sprintf("%04d", i%10000)
		}
		f := RequestFrame{Header: Header{ID: 3, Kind: FrameSingle}, Req: Request{Op: OpGetMany, Names: names}}
		frame, err := encodeRequest(&f)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := pc.do(tctx, f.Header.ID, frame, start)
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(25 * timeout):
			t.Fatal("a write the server does not read was not ended by the transport timeout")
		}
		if !errors.Is(err, registry.ErrUnavailable) || !strings.Contains(fmt.Sprint(err), "timeout") {
			t.Fatalf("a write the server does not read = %v, want a timeout wrapping ErrUnavailable", err)
		}
		if elapsed := time.Since(start); elapsed > 10*timeout {
			t.Errorf("the write failed after %v, want about %v", elapsed, timeout)
		}
		if !pc.dead() {
			t.Error("a timed-out write left its connection in use")
		}
	})
}
