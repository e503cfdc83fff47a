package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"geomds/internal/registry"
	"geomds/internal/rpc"
)

// singleSite describes a workload against one metaserver process.
type singleSite struct {
	name string
	keys int     // preloaded key space
	zipf float64 // Zipfian exponent of the key choice; 0 draws uniformly
	// getPct and putPct are the shares of Get and Put; the rest are Deletes.
	getPct, putPct int
	// flags are the server's flags; dir is a fresh directory for its data
	// and config files.
	flags func(dir string) ([]string, error)
	watch bool // hold one Client.Watch stream open and time event arrival
	crash bool // end with the SIGKILL-and-recover check
}

// quotaConfig admits everything but still charges every request against a
// token bucket, so limits.Admit does its real work.
const quotaConfig = `{"default": {"ops_per_sec": 1e9, "ops_burst": 1e9, "bytes_per_sec": 1e12, "bytes_burst": 1e12}, "max_inflight": 100000}`

var singleSites = []singleSite{
	{
		name: "point_mixed", keys: 20000, getPct: 90, putPct: 10,
		flags: func(string) ([]string, error) { return nil, nil },
	},
	{
		name: "durable_write", keys: 20000, getPct: 30, putPct: 65, watch: true, crash: true,
		flags: func(dir string) ([]string, error) {
			return []string{"-shards", "4", "-replication", "2", "-write-concern", "all",
				"-data-dir", filepath.Join(dir, "data"), "-fsync", "always", "-feed"}, nil
		},
	},
	{
		// 50k keys are 12x the near cache's 4096 entries: the Zipfian head
		// fits, the tail does not.
		name: "hot_read", keys: 50000, zipf: 0.99, getPct: 95, putPct: 5,
		flags: func(dir string) ([]string, error) {
			quota := filepath.Join(dir, "tenants.json")
			if err := os.WriteFile(quota, []byte(quotaConfig), 0o644); err != nil {
				return nil, err
			}
			return []string{"-shards", "4", "-feed", "-cache", "-tenant-config", quota}, nil
		},
	},
}

const (
	baseSize     = 2048 // entry Size is baseSize + the key's write version
	preloadFrame = 256  // entries per PutMany frame
)

func keyName(i int) string { return fmt.Sprintf("data/f%07d", i) }

func benchEntry(i int, version uint32) registry.Entry {
	return registry.NewEntry(keyName(i), baseSize+int64(version), "bench", registry.Location{Node: registry.NoNode})
}

// keyState is what the owning client knows about one of its keys: the last
// version it had acknowledged, and whether its last acknowledged write was a
// delete.
type keyState struct {
	version uint32
	deleted bool
}

// kvClient is one closed-loop client of a single-site workload. Write keys
// are partitioned by client (key i belongs to client i mod n), so a client
// knows exactly what every key it owns must read as.
type kvClient struct {
	w       *singleSite
	id, n   int
	api     registry.API
	r       *rng
	keys    keySampler
	own     []keyState // own[i/n] is key i's state, for i mod n == id
	deletes bool       // the workload deletes, so a foreign key may be absent
}

func newKVClients(w *singleSite, api registry.API, n int, seed int64) []*kvClient {
	var keys keySampler = uniformKeys{w.keys}
	if w.zipf > 0 {
		keys = newZipfKeys(w.keys, w.zipf)
	}
	cs := make([]*kvClient, n)
	for id := range cs {
		cs[id] = &kvClient{
			w: w, id: id, n: n, api: api, keys: keys,
			r:       newRNG(uint64(seed)*1000003 + uint64(id)),
			own:     make([]keyState, (w.keys+n-1)/n),
			deletes: w.getPct+w.putPct < 100,
		}
	}
	return cs
}

// owned moves a sampled key to the nearest key this client owns.
func (c *kvClient) owned(key int) int {
	key = key - key%c.n + c.id
	if key >= c.w.keys {
		key -= c.n
	}
	return key
}

func (c *kvClient) step(ctx context.Context) (opClass, bool) {
	roll, key := c.r.intn(100), c.keys.draw(c.r)
	switch {
	case roll < c.w.getPct:
		return readOp, c.get(ctx, key)
	case roll < c.w.getPct+c.w.putPct:
		return writeOp, c.put(ctx, c.owned(key))
	default:
		return writeOp, c.del(ctx, c.owned(key))
	}
}

func (c *kvClient) get(ctx context.Context, key int) bool {
	e, err := c.api.Get(ctx, keyName(key))
	mine := key%c.n == c.id
	if errors.Is(err, registry.ErrNotFound) {
		// Absent is right only for a key deleted by its owner.
		if mine {
			return c.own[key/c.n].deleted
		}
		return c.deletes
	}
	if err != nil || e.Name != keyName(key) || e.Size < baseSize {
		return false
	}
	if mine {
		st := c.own[key/c.n]
		return !st.deleted && e.Size == baseSize+int64(st.version)
	}
	return true
}

func (c *kvClient) put(ctx context.Context, key int) bool {
	st := &c.own[key/c.n]
	want := benchEntry(key, st.version+1)
	got, err := c.api.Put(ctx, want)
	if err != nil || got.Name != want.Name || got.Size != want.Size {
		return false
	}
	st.version, st.deleted = st.version+1, false
	return true
}

func (c *kvClient) del(ctx context.Context, key int) bool {
	st := &c.own[key/c.n]
	err := c.api.Delete(ctx, keyName(key))
	if st.deleted {
		return errors.Is(err, registry.ErrNotFound) // deleting twice must say so
	}
	if err != nil {
		return false
	}
	st.deleted = true
	return true
}

// setUp spawns the workload's server in dir, preloads the key space through
// PutMany frames and verifies the count. It returns how long that took,
// from the spawn to the verified Len.
func (w *singleSite) setUp(ctx context.Context, e *env, dir string, pool int) (*serverProc, *rpc.Client, time.Duration, error) {
	flags, err := w.flags(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := e.spawn(flags...)
	if err != nil {
		return nil, nil, 0, err
	}
	cl, err := rpc.Dial(ctx, srv.addr, rpc.WithPoolSize(pool))
	if err != nil {
		srv.kill()
		return nil, nil, 0, err
	}
	if err := preload(ctx, cl, w.keys); err != nil {
		cl.Close()
		srv.kill()
		return nil, nil, 0, err
	}
	return srv, cl, time.Since(srv.spawned), nil
}

// preload stores keys entries through PutMany frames and verifies the count.
func preload(ctx context.Context, api registry.API, keys int) error {
	batch := make([]registry.Entry, 0, preloadFrame)
	for i := 0; i < keys; i++ {
		batch = append(batch, benchEntry(i, 0))
		if len(batch) == preloadFrame || i == keys-1 {
			stored, err := api.PutMany(ctx, batch)
			if err == nil && len(stored) != len(batch) {
				err = fmt.Errorf("PutMany stored %d of %d", len(stored), len(batch))
			}
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			batch = batch[:0]
		}
	}
	if n := api.Len(ctx); n != keys {
		return fmt.Errorf("preload: server holds %d entries, want %d", n, keys)
	}
	return nil
}

// watcher holds the workload's one watch stream and keeps, for every event
// of a timed window, how long after its commit it reached the generator.
type watcher struct {
	stream *rpc.WatchStream
	done   chan struct{}
	mu     sync.Mutex
	lagNs  []int64
}

func startWatcher(ctx context.Context, cl *rpc.Client) (*watcher, error) {
	stream, err := cl.Watch(ctx, 0, rpc.WatchOptions{})
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	w := &watcher{stream: stream, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ev := range stream.Events() {
			lag := time.Now().UnixNano() - ev.Commit
			w.mu.Lock()
			w.lagNs = append(w.lagNs, lag)
			w.mu.Unlock()
		}
	}()
	return w, nil
}

// reset forgets the lags seen so far (the preload's and the warm-up's).
func (w *watcher) reset() {
	w.mu.Lock()
	w.lagNs = w.lagNs[:0]
	w.mu.Unlock()
}

// stop ends the stream and returns the median lag in ms and the event count.
func (w *watcher) stop() (float64, int) {
	w.stream.Close()
	<-w.done
	s := sortedCopy(w.lagNs)
	return percentile(s, 0.5) / 1e6, len(s)
}

// run measures the workload: set-ups, warm-up, timed windows, end checks.
func (w *singleSite) run(ctx context.Context, e *env, cfg runConfig) (*result, error) {
	res := newResult(w.name)
	var (
		srv    *serverProc
		cl     *rpc.Client
		dir    string
		setups []float64
	)
	// Set-up is measured several times, each from a fresh directory; the
	// last server stays up for the run.
	probe := newHostProbe()
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			cl.Close()
			srv.kill()
			os.RemoveAll(dir) //nolint:errcheck // scratch
		}
		dir = filepath.Join(e.tmp, fmt.Sprintf("%s-%d", w.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		deadline("set-up of "+w.name, 60*time.Second)
		took, err := probe.normalised(func() (took time.Duration, err error) {
			srv, cl, took, err = w.setUp(ctx, e, dir, cfg.clients)
			return took, err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer cl.Close()
	servers := []*serverProc{srv}
	defer killAll(servers)
	res.ServerArgv = [][]string{srv.argv}
	res.setMedian("setup_s", setups, 0)

	var watch *watcher
	if w.watch {
		var err error
		if watch, err = startWatcher(ctx, cl); err != nil {
			return nil, err
		}
	}
	clients := newKVClients(w, cl, cfg.clients, cfg.seed)
	steppers := make([]stepper, len(clients))
	for i, c := range clients {
		steppers[i] = c
	}
	dataDir := filepath.Join(dir, "data")
	var diskBefore int64
	d, err := measure(ctx, res, cfg, servers, steppers, func() {
		if watch != nil {
			watch.reset()
		}
		diskBefore = dirBytes(dataDir)
	}, nil)
	if err != nil {
		return nil, err
	}
	if watch != nil {
		lag, n := watch.stop()
		res.setWindows("feed.watch_lag_ms_p50", lag, nil, n)
	}
	if cfg.traced && w.crash { // the durable workload: it has a data directory
		ok, _ := d.totals()
		disk := dirBytes(dataDir)
		res.set("store.wal_bytes_per_put", float64(disk-diskBefore)/float64(max(ok[writeOp], 1)))
		res.set("store.disk_bytes_per_live_entry", float64(disk)/float64(max(cl.Len(ctx), 1)))
	}
	if w.crash {
		flags, err := w.flags(dir)
		if err != nil {
			return nil, err
		}
		cl.Close()
		srv.kill() // SIGKILL: nothing gets to flush
		restarted, err := e.spawn(flags...)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		servers[0] = restarted
		res.ServerArgv = append(res.ServerArgv, restarted.argv)
		res.set("store.recovery_s", restarted.ready.Sub(restarted.spawned).Seconds())
		if err := w.checkRecovered(ctx, res, restarted, clients); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// checkRecovered reads back, from the server restarted on the same data
// directory, every key the clients own: an acknowledged latest value that is
// missing or older, or an acknowledged delete that came back, is a failed
// operation.
func (w *singleSite) checkRecovered(ctx context.Context, res *result, srv *serverProc, clients []*kvClient) error {
	cl, err := rpc.Dial(ctx, srv.addr, rpc.WithPoolSize(1))
	if err != nil {
		return fmt.Errorf("dial restarted server: %w", err)
	}
	defer cl.Close()
	names := make([]string, 0, preloadFrame)
	got := make(map[string]registry.Entry, w.keys)
	for i := 0; i < w.keys; i++ {
		names = append(names, keyName(i))
		if len(names) == preloadFrame || i == w.keys-1 {
			entries, err := cl.GetMany(ctx, names)
			if err != nil {
				return fmt.Errorf("read back after recovery: %w", err)
			}
			for _, e := range entries {
				got[e.Name] = e
			}
			names = names[:0]
		}
	}
	var lost, resurrected int64
	for _, c := range clients {
		for slot, st := range c.own {
			key := slot*c.n + c.id
			if key >= w.keys {
				continue
			}
			e, present := got[keyName(key)]
			switch {
			case st.deleted && present:
				resurrected++
			case !st.deleted && (!present || e.Size < baseSize+int64(st.version)):
				lost++
			}
		}
	}
	res.Attempted += int64(w.keys)
	if lost > 0 {
		res.fail(lost, "crash check: %d acknowledged writes missing or older after SIGKILL and recovery", lost)
	}
	if resurrected > 0 {
		res.fail(resurrected, "crash check: %d acknowledged deletes resurrected after SIGKILL and recovery", resurrected)
	}
	return nil
}

// measure runs the clients through the warm-up and the timed windows and
// records what every workload reports of them: the client-side metrics, the
// servers' peak RSS and, in a traced run, the black-box figures from the
// servers' counters scraped at the windows' start and end. start and end (nil
// allowed) run at those two moments as well, for what only one workload reads.
func measure(ctx context.Context, res *result, cfg runConfig, servers []*serverProc, clients []stepper, start, end func()) (driveResult, error) {
	var before, after map[string]float64
	var scrapeErr error
	deadline("timed windows of "+res.Workload, cfg.timing.warmup+time.Duration(cfg.timing.windows)*cfg.timing.window+30*time.Second)
	d := drive(ctx, clients, servers, cfg.timing, func() {
		if start != nil {
			start()
		}
		if cfg.traced {
			before, scrapeErr = scrape(servers)
		}
	}, func() {
		if end != nil {
			end()
		}
		if cfg.traced && scrapeErr == nil {
			after, scrapeErr = scrape(servers)
		}
	})
	if scrapeErr != nil {
		return d, fmt.Errorf("scrape: %w", scrapeErr)
	}
	res.addDrive(d)
	deadline("end checks of "+res.Workload, 60*time.Second)
	rss, err := peakRSSMiB(servers)
	if err != nil {
		return d, err
	}
	res.set("server_rss_mb", rss)
	if cfg.traced {
		blackBox(res, delta(before, after), after, d)
	}
	return d, nil
}

// blackBox derives the per-layer figures of a run from the servers' own
// counters: d is their growth over the timed windows, total their value at
// the windows' end.
func blackBox(res *result, d, total map[string]float64, run driveResult) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ok, failed := run.totals()
	verified := float64(ok[readOp] + ok[writeOp])
	ops := verified + float64(failed)
	var rpcErrors float64
	for name, v := range d {
		if strings.HasPrefix(name, "rpc_server_errors_") {
			rpcErrors += v
		}
	}
	res.set("rpc.server_dispatch_us", ratio(d["rpc_server_latency_ns_sum"], d["rpc_server_latency_ns_count"])/1e3)
	// What the generator waited for, less what the servers spent
	// dispatching: frame codecs on both sides, syscalls, scheduling.
	res.set("rpc.wire_us", ratio(run.latencySum()-d["rpc_server_latency_ns_sum"], verified)/1e3)
	res.set("rpc.errors_share", ratio(rpcErrors, d["rpc_server_dispatched_total"]))
	res.set("limits.rejected_share", ratio(d["limits_rejected_total"], d["limits_admitted_total"]+d["limits_rejected_total"]))
	res.set("readcache.hit_ratio", ratio(d["readcache_hits_total"], d["readcache_hits_total"]+d["readcache_misses_total"]))
	res.set("readcache.evictions_per_kop", ratio(d["readcache_evictions_total"], ops)*1e3)
	res.set("readcache.invalidations_per_kop", ratio(d["readcache_invalidations_total"], ops)*1e3)
	res.set("readcache.flushes", d["readcache_flushes_total"])
	res.set("router.read_us", ratio(d["router_read_latency_ns_sum"], d["router_read_latency_ns_count"])/1e3)
	// The timed windows send no bulk frames; the preload's PutMany frames
	// are the bulk operations this ratio is taken over.
	res.set("router.subbatches_per_bulk", ratio(total["router_subbatches_total"], total["router_bulk_ops_total"]))
	res.set("router.failover_reads", d["router_failover_reads_total"])
	res.set("router.replica_write_errors", d["router_replica_write_errors_total"])
	res.set("memcache.gets_per_op", ratio(d["memcache_gets_total"], ops))
	res.set("memcache.hit_ratio", ratio(d["memcache_hits_total"], d["memcache_gets_total"]))
	res.set("memcache.slot_wait_us", ratio(d["memcache_slot_wait_ns_sum"], d["memcache_slot_wait_ns_count"])/1e3)
	res.set("feed.events_per_put", ratio(d["feed_events_total"], float64(ok[writeOp])))
}
