package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// startSlowServer serves a slowAPI over tr and dials it.
func startSlowServer(t *testing.T, tr transport, delay time.Duration, opts ...ClientOption) *Client {
	t.Helper()
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	addr := tr.serve(t, NewServer(slowAPI{API: inst, delay: delay}, nil))
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
	client := startSlowServer(t, localTransport, delay, WithPoolSize(1))
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
		held, err := client.Get(tctx, batch[i].Name)
		if err != nil || !e.Equal(batch[i]) || e.Version == 0 || e.Version != held.Version {
			t.Errorf("stored[%d] = %+v, the server holds %+v (%v): want the request's entry at the held version", i, e, held, err)
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

// A bulk write with an invalid entry, sent through a client to a routing
// tier, stores nothing on any shard: the Router refuses the batch whole, as
// an Instance does, and Merge reports that none of it was applied.
func TestInvalidBatchThroughRouterStoresNothing(t *testing.T) {
	for _, rep := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", rep), func(t *testing.T) {
			shards := make([]registry.API, 4)
			for i := range shards {
				shards[i] = registry.NewInstance(0, memcache.New(memcache.Config{}))
			}
			router, err := registry.NewRouter(0, shards, registry.WithRouterReplication(rep), registry.WithRouterMetrics(nil))
			if err != nil {
				t.Fatal(err)
			}
			client, err := Dial(tctx, tcpTransport.serve(t, NewServer(router, nil, WithServerMetrics(nil))), WithMetrics(nil))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			var batch []registry.Entry
			for i := range 8 {
				batch = append(batch, wireEntry(fmt.Sprintf("batch/%d", i)))
			}
			batch = append(batch[:4], append([]registry.Entry{{Size: 1}}, batch[4:]...)...)
			if out, err := client.PutMany(tctx, batch); !errors.Is(err, registry.ErrInvalidEntry) || out != nil {
				t.Errorf("PutMany = %d entries, %v; want none and ErrInvalidEntry", len(out), err)
			}
			if n, err := client.Merge(tctx, batch); !errors.Is(err, registry.ErrInvalidEntry) || n != 0 {
				t.Errorf("Merge = %d, %v; want 0 and ErrInvalidEntry", n, err)
			}
			for i, shard := range shards {
				if n := shard.Len(tctx); n != 0 {
					t.Errorf("shard %d stores %d entries of a refused batch", i, n)
				}
			}
		})
	}
}
