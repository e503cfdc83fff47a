package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

// TestCancelledCallLeavesConnectionUsable cancels one pipelined request while
// another is in flight on the same connection: the cancelled caller must
// return promptly with context.Canceled, the concurrent request must complete
// undisturbed, and the connection must stay alive (no reconnect) and keep
// serving subsequent calls.
func TestCancelledCallLeavesConnectionUsable(t *testing.T) {
	const delay = 500 * time.Millisecond
	client := startSlowServer(t, localTransport, delay, WithPoolSize(1))
	if _, err := client.Create(tctx, wireEntry("slow-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create(tctx, wireEntry("slow-b")); err != nil {
		t.Fatal(err)
	}

	// Pin down the single pooled connection so we can verify it survives.
	if err := client.Ping(tctx); err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	before := client.conns[0]
	client.mu.Unlock()
	if before == nil {
		t.Fatal("no pooled connection established")
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := client.Get(ctxA, "slow-a")
		aDone <- err
	}()
	bDone := make(chan error, 1)
	go func() {
		_, err := client.Get(tctx, "slow-b")
		bDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // both requests on the wire

	start := time.Now()
	cancelA()
	select {
	case err := <-aDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get returned %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed >= delay {
			t.Errorf("cancelled Get took %v; it waited for the response instead of aborting", elapsed)
		}
	case <-time.After(delay):
		t.Fatal("cancelled Get did not return")
	}

	// The other in-flight request is undisturbed.
	if err := <-bDone; err != nil {
		t.Fatalf("concurrent Get disturbed by the cancellation: %v", err)
	}

	// Same connection, still alive, still serving.
	client.mu.Lock()
	after := client.conns[0]
	client.mu.Unlock()
	if after != before {
		t.Error("cancellation should not replace the pooled connection")
	}
	if before.dead() {
		t.Error("cancellation should not kill the pooled connection")
	}
	if _, err := client.Get(tctx, "slow-a"); err != nil {
		t.Errorf("Get after cancellation: %v", err)
	}
}

// TestDeadlinePropagatesToServer sends a frame whose header carries an
// already-expired deadline straight over the wire: the server must answer
// with an ErrDeadline error frame without executing the operation.
func TestDeadlinePropagatesToServer(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
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

	if err := writeRequest(conn, &RequestFrame{
		Header: Header{
			ID:        1,
			Kind:      FrameSingle,
			TimeoutNs: -int64(time.Second), // budget already spent
		},
		Req: Request{Op: OpCreate, Entry: wireEntry("never-created")},
	}); err != nil {
		t.Fatal(err)
	}
	var rf ResponseFrame
	if err := readReply(conn, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Resp.OK || rf.Resp.Err != ErrDeadline {
		t.Errorf("expired-deadline response = %+v, want ErrDeadline", rf.Resp)
	}
	if got := decodeErr(rf.Resp.Err, rf.Resp.Detail); !errors.Is(got, context.DeadlineExceeded) {
		t.Errorf("decoded error = %v, want context.DeadlineExceeded", got)
	}
	if inst.Len(tctx) != 0 {
		t.Error("server executed an operation whose deadline had passed")
	}
	if srv.Abandoned() != 1 {
		t.Errorf("Abandoned = %d, want 1", srv.Abandoned())
	}
}

// TestServerAbandonsBatchAfterDeadline runs a batch whose first operation
// outlives the client's deadline: the server must stop between operations, so
// the second one is never applied to the registry.
func TestServerAbandonsBatchAfterDeadline(t *testing.T) {
	const delay = 400 * time.Millisecond
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(slowAPI{API: inst, delay: delay}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = client.Batch(ctx, []Request{
		{Op: OpGet, Name: "slow-block"}, // held by the server past the deadline
		{Op: OpCreate, Entry: wireEntry("late-entry")},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Batch = %v, want context.DeadlineExceeded", err)
	}

	// The server finishes processing the batch in the background; once it
	// has, the second operation must have been abandoned, not executed.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Abandoned() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Abandoned() == 0 {
		t.Fatal("server never abandoned the post-deadline batch operation")
	}
	if _, err := inst.Get(tctx, "late-entry"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("server executed a batch operation after the propagated deadline passed: Get = %v, want ErrNotFound", err)
	}
	// The connection survived the abandoned batch.
	if _, err := client.Create(tctx, wireEntry("after-batch")); err != nil {
		t.Errorf("call after abandoned batch: %v", err)
	}
}

// TestTransportErrorsWrapUnavailable asserts transport-level failures carry
// the registry.ErrUnavailable sentinel (surfaced by core as
// ErrSiteUnreachable), so callers can tell a dead site from a missing entry.
func TestTransportErrorsWrapUnavailable(t *testing.T) {
	srv, client := startTestServer(t, 0)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := client.Get(tctx, "anything")
	if !errors.Is(err, registry.ErrUnavailable) {
		t.Errorf("call against a closed server = %v, want registry.ErrUnavailable", err)
	}
	client.Close()
	if _, err := client.Get(tctx, "anything"); !errors.Is(err, registry.ErrUnavailable) {
		t.Errorf("call on closed client = %v, want registry.ErrUnavailable", err)
	}
	if _, err := Dial(tctx, "127.0.0.1:1", WithTimeout(200*time.Millisecond)); !errors.Is(err, registry.ErrUnavailable) {
		t.Errorf("dial to closed port = %v, want registry.ErrUnavailable", err)
	}
}

// TestDeadlineErrorRoundTripsWire exercises the full client path: a deadline
// that expires server-side must come back to a *later* caller as a decodable
// sentinel. (The canonical case — the waiting caller — is covered above; here
// the error frame itself is inspected via a fresh per-op deadline.)
func TestDeadlineErrorRoundTripsWire(t *testing.T) {
	const delay = 300 * time.Millisecond
	client := startSlowServer(t, localTransport, delay, WithPoolSize(1))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.Get(ctx, "slow-timeout")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Get with short deadline = %v, want context.DeadlineExceeded", err)
	}
	// The client remains usable for deadline-free calls.
	if err := client.Ping(tctx); err != nil {
		t.Errorf("Ping after deadline-exceeded call: %v", err)
	}
}

// TestCoreFabricOverRPCWithDeadlines mirrors the end-to-end wiring test with
// per-operation deadlines in place, proving the ctx flows through
// registry.API proxies transparently.
func TestCoreFabricOverRPCWithDeadlines(t *testing.T) {
	inst := registry.NewInstance(4, memcache.New(memcache.Config{}))
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
	var api registry.API = client

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		name := fmt.Sprintf("deadline-ok-%d", i)
		if _, err := api.Create(ctx, registry.NewEntry(name, 1, "t", registry.Location{Site: cloud.SiteID(4)})); err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		if _, err := api.Get(ctx, name); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		cancel()
	}
	if api.Len(tctx) != 5 {
		t.Errorf("Len = %d, want 5", api.Len(tctx))
	}
}
