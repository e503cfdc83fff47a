package registry

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
)

// noopShard is an API that does no work: what a Router benchmark over it
// measures is the router's own routing, fan-out and bookkeeping.
type noopShard struct{}

func (noopShard) Site() cloud.SiteID                               { return 7 }
func (noopShard) Create(_ context.Context, e Entry) (Entry, error) { return e, nil }
func (noopShard) Put(_ context.Context, e Entry) (Entry, error)    { return e, nil }
func (noopShard) Get(_ context.Context, name string) (Entry, error) {
	return Entry{Name: name, Version: 1}, nil
}
func (noopShard) AddLocation(_ context.Context, name string, _ Location) (Entry, error) {
	return Entry{Name: name, Version: 1}, nil
}
func (noopShard) Delete(context.Context, string) error                      { return nil }
func (noopShard) Entries(context.Context) ([]Entry, error)                  { return nil, nil }
func (noopShard) GetMany(context.Context, []string) ([]Entry, error)        { return nil, nil }
func (noopShard) PutMany(_ context.Context, es []Entry) ([]Entry, error)    { return es, nil }
func (noopShard) DeleteMany(_ context.Context, names []string) (int, error) { return len(names), nil }
func (noopShard) Merge(_ context.Context, es []Entry) (int, error)          { return len(es), nil }
func (noopShard) Len(context.Context) int                                   { return 0 }

// newNoopRouter builds a router over four no-op shards at the given
// replication factor, instrumentation left at its default like a metaserver.
func newNoopRouter(tb testing.TB, rep int) *Router {
	tb.Helper()
	r, err := NewRouter(7, []API{noopShard{}, noopShard{}, noopShard{}, noopShard{}}, WithRouterReplication(rep))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	return r
}

// benchKeys is a fixed key set spread over the four shards.
func benchKeys() []string {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/key/%d", i)
	}
	return keys
}

// benchRouter runs op at R=1 and R=2 over no-op shards.
func benchRouter(b *testing.B, op func(r *Router, keys []string, i int)) {
	keys := benchKeys()
	for _, rep := range []int{1, 2} {
		b.Run(fmt.Sprintf("R=%d", rep), func(b *testing.B) {
			r := newNoopRouter(b, rep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(r, keys, i)
			}
		})
	}
}

// benchRouterParallel is benchRouter with GOMAXPROCS callers sharing one
// router: what it adds to the serial numbers is contention on the router's
// own locks.
func benchRouterParallel(b *testing.B, op func(r *Router, key string)) {
	keys := benchKeys()
	for _, rep := range []int{1, 2} {
		b.Run(fmt.Sprintf("R=%d", rep), func(b *testing.B) {
			r := newNoopRouter(b, rep)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					op(r, keys[i%len(keys)])
				}
			})
		})
	}
}

func BenchmarkRouterGet(b *testing.B) {
	ctx := context.Background()
	benchRouter(b, func(r *Router, keys []string, i int) {
		if _, err := r.Get(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkRouterPut(b *testing.B) {
	ctx := context.Background()
	e := testEntry("")
	benchRouter(b, func(r *Router, keys []string, i int) {
		e.Name = keys[i%len(keys)]
		if _, err := r.Put(ctx, e); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkRouterDelete(b *testing.B) {
	ctx := context.Background()
	benchRouter(b, func(r *Router, keys []string, i int) {
		if err := r.Delete(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkRouterPutParallel(b *testing.B) {
	ctx := context.Background()
	benchRouterParallel(b, func(r *Router, key string) {
		if _, err := r.Put(ctx, Entry{Name: key, Size: 1024}); err != nil {
			b.Error(err)
		}
	})
}

func BenchmarkRouterDeleteParallel(b *testing.B) {
	ctx := context.Background()
	benchRouterParallel(b, func(r *Router, key string) {
		if err := r.Delete(ctx, key); err != nil {
			b.Error(err)
		}
	})
}

func BenchmarkRouterPutMany16(b *testing.B) {
	ctx := context.Background()
	batch := make([]Entry, 16)
	benchRouter(b, func(r *Router, keys []string, i int) {
		for j := range batch {
			batch[j] = Entry{Name: keys[(i*16+j)%len(keys)], Size: 1024}
		}
		if _, err := r.PutMany(ctx, batch); err != nil {
			b.Fatal(err)
		}
	})
}

// TestRouterSingleHomeOpsStayCheap pins the cost of a replica set of one: an
// R=1 Get allocates only its resolved replica set, and an R=1 Put or Delete
// runs on the caller's goroutine — the goroutine, wait group and per-replica
// bookkeeping of a concurrent fan-out would push it past the bound.
func TestRouterSingleHomeOpsStayCheap(t *testing.T) {
	ctx := context.Background()
	r := newNoopRouter(t, 1)
	e := testEntry("cheap/key")

	for _, tc := range []struct {
		op  string
		max float64
		run func()
	}{
		{"Get", 2, func() { r.Get(ctx, e.Name) }},       //nolint:errcheck // no-op shards never fail
		{"Put", 4, func() { r.Put(ctx, e) }},            //nolint:errcheck // no-op shards never fail
		{"Delete", 4, func() { r.Delete(ctx, e.Name) }}, //nolint:errcheck // no-op shards never fail
	} {
		if got := testing.AllocsPerRun(200, tc.run); got > tc.max {
			t.Errorf("R=1 %s: %.0f allocs per call, want at most %.0f", tc.op, got, tc.max)
		}
	}
}

// newSnapshotTier builds a 4-shard tier of replication rep over feeding
// instances and writes n names through it, as geobench's durable_write
// preloads its server (R = 2) before its watch falls back to a snapshot.
func newSnapshotTier(tb testing.TB, n, rep int) *Router {
	tb.Helper()
	apis := make([]API, 4)
	for i := range apis {
		apis[i] = NewInstance(7, memcache.New(memcache.Config{}), WithChangeFeed())
	}
	r, err := NewRouter(7, apis, WithRouterReplication(rep), WithRouterMetrics(nil))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	batch := make([]Entry, 0, 256)
	for i := range n {
		batch = append(batch, NewEntry(fmt.Sprintf("data/f%07d", i), 1<<20, "bench", Location{Node: NoNode}))
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := r.PutMany(context.Background(), batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return r
}

// BenchmarkRouterFeedSnapshot times the tier's snapshot of 20k names at
// R = 2 over 4 shards, the watch fallback's whole-registry read;
// B/op over 20k is what TestRouterFeedSnapshotAllocations bounds.
func BenchmarkRouterFeedSnapshot(b *testing.B) {
	const n = 20_000
	r := newSnapshotTier(b, n, 2)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if events, _, err := r.FeedSnapshot(ctx); err != nil || len(events) != n {
			b.Fatalf("snapshot of %d events, %v; want %d", len(events), err, n)
		}
	}
}

// BenchmarkRouterLen times the tier's count of 20k names over 4 shards: the
// plain sum of the shard sizes at R = 1, the distinct names at R = 2, which
// durable_write's preload check reads through metaserver.
func BenchmarkRouterLen(b *testing.B) {
	const n = 20_000
	for _, rep := range []int{1, 2} {
		b.Run(fmt.Sprintf("R=%d", rep), func(b *testing.B) {
			r := newSnapshotTier(b, n, rep)
			ctx := context.Background()
			b.ReportAllocs()
			for b.Loop() {
				if got := r.Len(ctx); got != n {
					b.Fatalf("Len = %d, want %d", got, n)
				}
			}
		})
	}
}

// TestRouterFeedSnapshotAllocations bounds the bytes a tier's snapshot
// allocates per name: one result event and the shards' reads of their own
// stores, no per-shard event copies, merged copy, name set or formatted
// origin per name (about 1,100 B per name with those).
func TestRouterFeedSnapshotAllocations(t *testing.T) {
	const n, maxPerName = 5_000, 300
	r := newSnapshotTier(t, n, 2)
	ctx := context.Background()
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three: another goroutine's allocation only adds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events, _, err := r.FeedSnapshot(ctx)
		runtime.ReadMemStats(&after)
		if err != nil || len(events) != n {
			t.Fatalf("snapshot of %d events, %v; want %d", len(events), err, n)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if perName := least / n; perName > maxPerName {
		t.Errorf("FeedSnapshot allocated %d B per name, want at most %d", perName, maxPerName)
	}
}
