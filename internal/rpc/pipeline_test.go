package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/memcache"
	"geomds/internal/registry"
)

// slowAPI delays Get calls whose name carries the "slow" prefix, so tests
// can hold one pipelined request open while others complete.
type slowAPI struct {
	registry.API
	delay time.Duration
}

func (s slowAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	if strings.HasPrefix(name, "slow") {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return registry.Entry{}, ctx.Err()
		}
	}
	return s.API.Get(ctx, name)
}

func startSlowServer(t *testing.T, delay time.Duration, opts ...ClientOption) *Client {
	t.Helper()
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(slowAPI{API: inst, delay: delay}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, append([]ClientOption{WithTimeout(5 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestPipelinedOutOfOrder verifies that on a single connection a fast
// request overtakes a slow one already in flight: the response
// demultiplexer must route by ID, not by arrival order.
func TestPipelinedOutOfOrder(t *testing.T) {
	const delay = 400 * time.Millisecond
	client := startSlowServer(t, delay, WithPoolSize(1))
	if _, err := client.Create(tctx, wireEntry("slow-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create(tctx, wireEntry("fast-1")); err != nil {
		t.Fatal(err)
	}

	slowDone := make(chan error, 1)
	go func() {
		_, err := client.Get(tctx, "slow-1")
		slowDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request hit the wire first

	start := time.Now()
	if _, err := client.Get(tctx, "fast-1"); err != nil {
		t.Fatalf("fast Get: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Errorf("fast Get took %v; it waited behind the slow request instead of overtaking it", elapsed)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow Get: %v", err)
	}
}

// TestReconnectMidPipeline drops the transport while several pipelined
// requests are in flight: every caller must recover through the client's
// transparent retry on a fresh connection.
func TestReconnectMidPipeline(t *testing.T) {
	client := startSlowServer(t, 300*time.Millisecond, WithPoolSize(1))
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
	client.mu.Lock()
	for _, pc := range client.conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	client.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("pipelined call did not survive the reconnect: %v", err)
	}
	// The pool must be usable afterwards.
	if _, err := client.Get(tctx, "slow-0"); err != nil {
		t.Errorf("Get after recovery: %v", err)
	}
}

// TestBatchEquivalence runs the same operation sequence through one batch
// frame and through per-op calls against a twin server, asserting identical
// responses and final state.
func TestBatchEquivalence(t *testing.T) {
	_, batched := startTestServer(t, 0)
	_, perOp := startTestServer(t, 0)

	var ops []Request
	for i := 0; i < 4; i++ {
		ops = append(ops, Request{Op: OpCreate, Entry: wireEntry(fmt.Sprintf("b%d", i))})
	}
	ops = append(ops,
		Request{Op: OpGet, Name: "b2"},
		Request{Op: OpDelete, Name: "b0"},
		Request{Op: OpGet, Name: "b0"}, // must fail: deleted by the previous op
		Request{Op: OpLen},
	)

	batchResps, err := batched.Batch(tctx, ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	var singleResps []Response
	for _, op := range ops {
		resp, err := perOp.call(tctx, op)
		if err != nil {
			t.Fatalf("per-op %s: %v", op.Op, err)
		}
		singleResps = append(singleResps, resp)
	}

	if len(batchResps) != len(singleResps) {
		t.Fatalf("batch returned %d responses, per-op %d", len(batchResps), len(singleResps))
	}
	for i := range ops {
		b, s := batchResps[i], singleResps[i]
		if b.OK != s.OK || b.Err != s.Err || b.N != s.N || !b.Entry.Equal(s.Entry) {
			t.Errorf("op %d (%s): batch=%+v per-op=%+v", i, ops[i].Op, b, s)
		}
	}
	if got, want := batched.Len(tctx), perOp.Len(tctx); got != want {
		t.Errorf("final Len: batch server %d, per-op server %d", got, want)
	}
}

// TestPutManyDeleteManyOverWire exercises the first-class bulk ops
// (PutMany, GetMany, DeleteMany) as single frames.
func TestPutManyDeleteManyOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	var batch []registry.Entry
	for i := 0; i < 6; i++ {
		batch = append(batch, wireEntry(fmt.Sprintf("pm%d", i)))
	}
	stored, err := client.PutMany(tctx, batch)
	if err != nil {
		t.Fatalf("PutMany: %v", err)
	}
	if len(stored) != len(batch) {
		t.Fatalf("PutMany returned %d entries, want %d", len(stored), len(batch))
	}
	for i, e := range stored {
		if e.Version == 0 {
			t.Errorf("stored[%d] has no version", i)
		}
	}
	if client.Len(tctx) != 6 {
		t.Errorf("Len = %d, want 6", client.Len(tctx))
	}
	got, err := client.GetMany(tctx, []string{"pm4", "absent", "pm1"})
	if err != nil {
		t.Fatalf("GetMany: %v", err)
	}
	if len(got) != 2 || got[0].Name != "pm4" || got[1].Name != "pm1" {
		t.Errorf("GetMany = %+v, want pm4 and pm1 (absent names are skipped)", got)
	}
	n, err := client.DeleteMany(tctx, []string{"pm0", "pm1", "absent", "pm2"})
	if err != nil {
		t.Fatalf("DeleteMany: %v", err)
	}
	if n != 3 {
		t.Errorf("DeleteMany removed %d, want 3 (absent names are skipped)", n)
	}
	if client.Len(tctx) != 3 {
		t.Errorf("Len after DeleteMany = %d, want 3", client.Len(tctx))
	}
	if _, err := client.PutMany(tctx, nil); err != nil {
		t.Errorf("empty PutMany: %v", err)
	}
	if _, err := client.DeleteMany(tctx, nil); err != nil {
		t.Errorf("empty DeleteMany: %v", err)
	}
	if _, err := client.PutMany(tctx, []registry.Entry{{}}); !errors.Is(err, registry.ErrInvalidEntry) {
		t.Errorf("PutMany with invalid entry = %v, want ErrInvalidEntry", err)
	}
}
