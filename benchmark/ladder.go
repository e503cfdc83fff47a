package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/dht"
	"geomds/internal/feed"
	"geomds/internal/latency"
	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/rpc"
	"geomds/internal/store"
)

// nullAPI is a registry.API that does no work: what remains when a layer is
// timed over it is that layer's own cost.
type nullAPI struct{ entry registry.Entry }

func (nullAPI) Site() cloud.SiteID { return 0 }
func (n nullAPI) Create(_ context.Context, e registry.Entry) (registry.Entry, error) {
	return e, nil
}
func (n nullAPI) Put(_ context.Context, e registry.Entry) (registry.Entry, error) { return e, nil }
func (n nullAPI) Get(context.Context, string) (registry.Entry, error)             { return n.entry, nil }
func (nullAPI) Contains(context.Context, string) bool                             { return true }
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

// timeCalls runs fn iters times on this goroutine, after a warm-up of a
// tenth as many calls, and returns the wall time and the heap allocations
// per timed call. fn receives the call's number, counted from the warm-up's
// first, so a caller can give every call its own key.
func timeCalls(iters int, fn func(i int)) (ns, allocs float64) {
	warm := iters / 10
	for i := 0; i < warm; i++ {
		fn(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := warm; i < warm+iters; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// runLadder times one public function of each layer, alone, with fixed
// iteration counts. The figures say what a layer costs when nothing else
// runs; the black-box deltas and the replay's self times say what it costs
// inside a request.
func runLadder(tmp string) (map[string]float64, error) {
	ctx := context.Background()
	out := make(map[string]float64)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = keyName(i)
	}
	key := func(i int) string { return keys[i%len(keys)] }
	var err error
	check := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	// registry: the entry codec every stored value and frame goes through.
	codec := registry.GobCodec{}
	sample := benchEntry(1, 1)
	encoded, e := codec.Encode(sample)
	check(e)
	out["registry.codec_bytes_per_entry"] = float64(len(encoded))
	out["registry.codec_encode_ns"], out["registry.codec_encode_allocs"] = timeCalls(5000, func(int) {
		_, e := codec.Encode(sample)
		check(e)
	})
	out["registry.codec_decode_ns"], out["registry.codec_decode_allocs"] = timeCalls(5000, func(int) {
		_, e := codec.Decode(encoded)
		check(e)
	})

	// memcache, then a registry.Instance over it: zero service time.
	cache := memcache.New(memcache.Config{})
	out["memcache.put_ns"], _ = timeCalls(200000, func(i int) {
		_, e := cache.Put(key(i), encoded, 0)
		check(e)
	})
	out["memcache.get_ns"], _ = timeCalls(200000, func(i int) {
		_, e := cache.Get(key(i))
		check(e)
	})
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	out["instance.put_ns"], out["instance.put_allocs"] = timeCalls(5000, func(i int) {
		_, e := inst.Put(ctx, benchEntry(i%len(keys), 1))
		check(e)
	})
	out["instance.get_ns"], out["instance.get_allocs"] = timeCalls(5000, func(i int) {
		_, e := inst.Get(ctx, key(i))
		check(e)
	})

	// dht and the Router's own routing, over shards that do nothing.
	shardIDs := []cloud.SiteID{0, 1, 2, 3}
	ring := dht.NewRingPlacer(shardIDs, 0)
	out["dht.ring_homes_ns"], out["dht.ring_homes_allocs"] = timeCalls(100000, func(i int) {
		ring.Homes(key(i), 2)
	})
	null := nullAPI{entry: sample}
	router, e := registry.NewRouter(0, []registry.API{null, null, null, null})
	check(e)
	if e == nil {
		out["router.get_ns_noop"], out["router.get_allocs_noop"] = timeCalls(50000, func(i int) {
			_, e := router.Get(ctx, key(i))
			check(e)
		})
		router.Close()
	}

	// limits: an admitted request, and one refused by a deny-all quota.
	var quota limits.Config
	quota, e = limits.ParseConfig([]byte(quotaConfig))
	check(e)
	admit := limits.New(quota, nil)
	out["limits.admit_ns"], out["limits.admit_allocs"] = timeCalls(200000, func(int) {
		finish, e := admit.Admit("", 1, 256)
		check(e)
		if e == nil {
			finish(0)
		}
	})
	deny := limits.New(limits.Config{Default: limits.TenantLimit{OpsPerSec: -1}}, nil)
	out["limits.reject_ns"], _ = timeCalls(200000, func(int) {
		if _, e := deny.Admit("", 1, 256); e == nil {
			check(fmt.Errorf("deny-all quota admitted a request"))
		}
	})

	// store: the WAL append, without and with an fsync per append.
	open := func(name string, policy store.FsyncPolicy) *store.Durable {
		d, e := store.Open(filepath.Join(tmp, name), memcache.New(memcache.Config{}), store.WithFsync(policy))
		check(e)
		return d
	}
	if d := open("ladder-never", store.FsyncNever); d != nil {
		out["store.put_ns_fsync_never"], _ = timeCalls(20000, func(i int) {
			_, e := d.Put(key(i), encoded, 0)
			check(e)
		})
		check(d.Close())
	}
	if d := open("ladder-always", store.FsyncAlways); d != nil {
		syncs := d.LogStats().Syncs
		out["store.put_ns_fsync_always"], _ = timeCalls(1000, func(i int) {
			_, e := d.Put(key(i), encoded, 0)
			check(e)
		})
		out["store.fsyncs_per_put"] = float64(d.LogStats().Syncs-syncs) / 1100 // 1000 timed calls and their warm-up
		batch := make([]memcache.KV, 64)
		perBatch, _ := timeCalls(100, func(i int) {
			for j := range batch {
				batch[j] = memcache.KV{Key: key(i*64 + j), Value: encoded}
			}
			_, e := d.PutBatch(batch)
			check(e)
		})
		out["store.putbatch64_ns_per_entry"] = perBatch / 64
		check(d.Close())
	}
	check(os.RemoveAll(filepath.Join(tmp, "ladder-never")))
	check(os.RemoveAll(filepath.Join(tmp, "ladder-always")))

	// feed: publishing with 0, 1 and 16 subscribers. Their buffers hold the
	// whole run, so no subscriber is dropped and nothing else needs to run.
	const publishes = 10000
	for _, subs := range []int{0, 1, 16} {
		log := feed.NewLog()
		for s := 0; s < subs; s++ {
			_, e := log.Subscribe(0, feed.WithBuffer(publishes*11/10))
			check(e)
		}
		out[fmt.Sprintf("feed.publish_ns_%dsub", subs)], _ = timeCalls(publishes, func(i int) {
			log.Append(feed.OpPut, key(i), encoded)
		})
		log.Close()
	}

	// readcache: a hit, and a miss that fills (and, past capacity, evicts).
	near := readcache.New(null, readcache.Options{MaxStaleness: time.Hour})
	_, e = near.Get(ctx, key(0))
	check(e)
	out["readcache.hit_ns"], out["readcache.hit_allocs"] = timeCalls(200000, func(int) {
		_, e := near.Get(ctx, keys[0])
		check(e)
	})
	fills := make([]string, 16500) // 4x the default 4096-entry capacity, each read once
	for i := range fills {
		fills[i] = keyName(100000 + i)
	}
	out["readcache.fill_ns"], _ = timeCalls(15000, func(i int) {
		_, e := near.Get(ctx, fills[i])
		check(e)
	})
	check(near.Close())

	// rpc: the pure transport, one connection, a server that does nothing.
	srv := rpc.NewServer(null, nil)
	addr, e := srv.Start("127.0.0.1:0")
	check(e)
	if e == nil {
		cl, e := rpc.Dial(ctx, addr, rpc.WithPoolSize(1))
		check(e)
		if e == nil {
			out["rpc.roundtrip_ns_null"], out["rpc.roundtrip_allocs_null"] = timeCalls(3000, func(i int) {
				_, e := cl.Get(ctx, key(i))
				check(e)
			})
			ops := make([]rpc.Request, 64)
			for i := range ops {
				ops[i] = rpc.Request{Op: rpc.OpGet, Name: key(i)}
			}
			perBatch, _ := timeCalls(100, func(int) {
				_, e := cl.Batch(ctx, ops)
				check(e)
			})
			out["rpc.batch64_ns_per_op_null"] = perBatch / 64
			cl.Close()
		}
		check(srv.Close())
	}

	// core: the hybrid strategy over an in-process fabric with no modelled
	// service time and no slept WAN delay.
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSleeper(func(time.Duration) {}))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0), core.WithMetricsRegistry(nil))
	svc, e := core.NewService(fabric, core.DecentralizedReplicated)
	check(e)
	if e == nil {
		sites := fabric.Sites()
		const creates = 3000
		out["core.dr_create_ns"], _ = timeCalls(creates, func(i int) {
			_, e := svc.Create(ctx, sites[i%len(sites)], geoEntry(i, sites[i%len(sites)]))
			check(e)
		})
		out["core.dr_lookup_local_ns"], _ = timeCalls(creates, func(i int) {
			_, e := svc.Lookup(ctx, sites[i%len(sites)], keyName(i))
			check(e)
		})
		check(svc.Close())
	}
	check(fabric.Close())
	return out, err
}
