package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/rpc"
	"geomds/internal/store"
)

// The traced replay rebuilds a workload's stack inside this process from
// the public constructors cmd/metaserver uses, with a timing decorator at
// every boundary the types already expose, and replays the seeded op mix
// with ONE closed-loop client. With one client a span's children are exactly
// the deeper spans of the same request class its interval contains, so no
// identifier has to be threaded through the program. Spans inside the
// program are a later change.

// span is one timed call across a layer boundary.
type span struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`    // "get" (Get, Lookup) or "put" (Put, Create, Delete, CAS)
	Start int64  `json:"start"` // ns since the replay's epoch
	End   int64  `json:"end"`
}

// layerDepth orders the layers from the caller down.
var layerDepth = map[string]int{"core": 0, "rpc": 1, "readcache": 2, "router": 3, "instance": 4, "memcache": 5}

// tracer collects spans in memory.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(layer, op string, start time.Time) {
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{layer, op, int64(start.Sub(t.epoch)), int64(end)})
	t.mu.Unlock()
}

// tracedAPI times the single-key operations of a registry.API. It forwards
// the optional feed and recovery surfaces, which the Router, the near cache
// and the rpc server discover by type assertion.
type tracedAPI struct {
	registry.API
	t     *tracer
	layer string
}

// wrapAPI decorates api when tracing; an untraced replay runs the bare stack.
func wrapAPI(t *tracer, layer string, api registry.API) registry.API {
	if t == nil {
		return api
	}
	return tracedAPI{api, t, layer}
}

func (a tracedAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	defer a.t.record(a.layer, "get", time.Now())
	return a.API.Get(ctx, name)
}

func (a tracedAPI) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	defer a.t.record(a.layer, "put", time.Now())
	return a.API.Put(ctx, e)
}

func (a tracedAPI) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	defer a.t.record(a.layer, "put", time.Now())
	return a.API.Create(ctx, e)
}

func (a tracedAPI) Delete(ctx context.Context, name string) error {
	defer a.t.record(a.layer, "put", time.Now())
	return a.API.Delete(ctx, name)
}

func (a tracedAPI) ChangeFeed() *feed.Log {
	if f, ok := a.API.(registry.ChangeFeeder); ok {
		return f.ChangeFeed()
	}
	return nil
}

func (a tracedAPI) FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error) {
	return a.API.(registry.ChangeFeeder).FeedSnapshot(ctx)
}

func (a tracedAPI) FeedBarrier(ctx context.Context) (uint64, error) {
	return a.API.(registry.ChangeFeeder).FeedBarrier(ctx)
}

func (a tracedAPI) DurableSeq() (uint64, bool) {
	if r, ok := a.API.(registry.Recoverable); ok {
		return r.DurableSeq()
	}
	return 0, false
}

// tracedStore times the single-key operations of the cache tier below an
// Instance (and below its WAL, when it has one).
type tracedStore struct {
	registry.Store
	t *tracer
}

func wrapStore(t *tracer, s registry.Store) registry.Store {
	if t == nil {
		return s
	}
	return tracedStore{s, t}
}

func (s tracedStore) Get(key string) (memcache.Item, error) {
	defer s.t.record("memcache", "get", time.Now())
	return s.Store.Get(key)
}

func (s tracedStore) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	defer s.t.record("memcache", "put", time.Now())
	return s.Store.Put(key, value, ttl)
}

func (s tracedStore) CAS(key string, value []byte, ttl time.Duration, expected uint64) (memcache.Item, error) {
	defer s.t.record("memcache", "put", time.Now())
	return s.Store.CAS(key, value, ttl, expected)
}

func (s tracedStore) Delete(key string) error {
	defer s.t.record("memcache", "put", time.Now())
	return s.Store.Delete(key)
}

// tracedService times the generator's calls into the strategy.
type tracedService struct {
	core.MetadataService
	t *tracer
}

func (s tracedService) Create(ctx context.Context, from cloud.SiteID, e registry.Entry) (registry.Entry, error) {
	defer s.t.record("core", "put", time.Now())
	return s.MetadataService.Create(ctx, from, e)
}

func (s tracedService) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	defer s.t.record("core", "get", time.Now())
	return s.MetadataService.Lookup(ctx, from, name)
}

// stack is one in-process deployment: what the client calls, and how to
// take it down again.
type stack struct {
	closers []func()
}

func (s *stack) onClose(fn func()) { s.closers = append(s.closers, fn) }

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve puts api behind an rpc server on loopback, as cmd/metaserver does,
// and returns a one-connection client for it.
func (s *stack) serve(ctx context.Context, api registry.API, reg *metrics.Registry, opts ...rpc.ServerOption) (*rpc.Client, error) {
	opts = append([]rpc.ServerOption{rpc.WithMaxInflight(rpc.DefaultMaxInflight), rpc.WithServerMetrics(reg)}, opts...)
	srv := rpc.NewServer(api, nil, opts...)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.onClose(func() { srv.Close() }) //nolint:errcheck // teardown
	cl, err := rpc.Dial(ctx, addr, rpc.WithPoolSize(1))
	if err != nil {
		return nil, err
	}
	s.onClose(func() { cl.Close() })
	return cl, nil
}

// shards builds n traced registry instances as cmd/metaserver's newInstance
// does: memory-only, or journaling to dir/shard-<i> when dir is set.
func (s *stack) shards(t *tracer, reg *metrics.Registry, n int, dir string, feeds bool) ([]registry.API, error) {
	var instOpts []registry.InstanceOption
	if feeds {
		instOpts = append(instOpts, registry.WithChangeFeed(feed.WithCapacity(feed.DefaultCapacity), feed.WithLogMetrics(reg)))
	}
	out := make([]registry.API, n)
	for i := range out {
		backing := wrapStore(t, memcache.New(memcache.Config{Metrics: reg}))
		if dir == "" {
			out[i] = wrapAPI(t, "instance", registry.NewInstance(0, backing, instOpts...))
			continue
		}
		inst, err := registry.OpenInstance(0, backing, filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
			[]store.Option{store.WithFsync(store.FsyncAlways)}, instOpts...)
		if err != nil {
			return nil, err
		}
		s.onClose(func() { inst.Close() }) //nolint:errcheck // teardown
		out[i] = wrapAPI(t, "instance", inst)
	}
	return out, nil
}

// buildSingle assembles a single-site workload's stack and returns the API
// the replay's client calls.
func (s *stack) buildSingle(ctx context.Context, t *tracer, name, dir string) (registry.API, error) {
	reg := metrics.NewRegistry()
	switch name {
	case "point_mixed":
		insts, err := s.shards(t, reg, 1, "", false)
		if err != nil {
			return nil, err
		}
		cl, err := s.serve(ctx, insts[0], reg)
		return wrapAPI(t, "rpc", cl), err
	case "durable_write", "hot_read":
		durable := name == "durable_write"
		replication := 1
		if durable {
			replication = 2
		} else {
			dir = ""
		}
		insts, err := s.shards(t, reg, 4, dir, true)
		if err != nil {
			return nil, err
		}
		router, err := registry.NewRouter(0, insts, registry.WithRouterMetrics(reg),
			registry.WithRouterReplication(replication), registry.WithRouterWriteConcern(registry.WriteAll))
		if err != nil {
			return nil, err
		}
		s.onClose(router.Close)
		if durable {
			cl, err := s.serve(ctx, wrapAPI(t, "router", router), reg)
			return wrapAPI(t, "rpc", cl), err
		}
		near := readcache.New(wrapAPI(t, "router", router), readcache.Options{Metrics: reg})
		s.onClose(func() { near.Close() }) //nolint:errcheck // teardown
		near.AttachFeed(ctx, []feed.Source{{
			Name: "origin",
			Subscribe: func(_ context.Context, from uint64) (feed.Stream, error) {
				return router.ChangeFeed().Subscribe(from)
			},
			Snapshot: router.FeedSnapshot,
		}})
		quota, err := limits.ParseConfig([]byte(quotaConfig))
		if err != nil {
			return nil, err
		}
		cl, err := s.serve(ctx, wrapAPI(t, "readcache", near), reg, rpc.WithServerLimits(limits.New(quota, reg)))
		return wrapAPI(t, "rpc", cl), err
	}
	return nil, fmt.Errorf("no single-site stack for %q", name)
}

// buildGeo assembles the four-site deployment: per site an instance behind
// an rpc server, a fabric over the four clients, the hybrid strategy on top.
func (s *stack) buildGeo(ctx context.Context, t *tracer, seed int64) (*geoStack, error) {
	topo := cloud.Azure4DC()
	g := &geoStack{epoch: time.Now(), logs: []*createLog{newCreateLog(), newCreateLog()}}
	apis := make(map[cloud.SiteID]registry.API)
	for _, site := range topo.Sites() {
		reg := metrics.NewRegistry()
		backing := wrapStore(t, memcache.New(memcache.Config{Metrics: reg}))
		cl, err := s.serve(ctx, wrapAPI(t, "instance", registry.NewInstance(site.ID, backing)), reg)
		if err != nil {
			return nil, err
		}
		apis[site.ID] = wrapAPI(t, "rpc", cl)
		g.sites = append(g.sites, site.ID)
	}
	s.onClose(g.close) // the strategy and the fabric; the servers and clients are the stack's
	if err := g.deploy(topo, apis, seed); err != nil {
		return nil, err
	}
	svc := g.svc
	if t != nil {
		g.svc = tracedService{svc, t}
	}
	for i := 0; i < preloadFrame; i++ {
		site := g.sites[i%len(g.sites)]
		if _, err := svc.Create(ctx, site, geoEntry(i, site)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		g.logs[0].add(created{id: i, site: site, at: -geoSettle})
	}
	return g, svc.Flush(ctx)
}

// replayStats is what one replay saw from its single client.
type replayStats struct {
	ops, failed int64
	elapsed     time.Duration
	from, to    time.Duration // the measured interval, since the tracer's epoch
}

// replayOnce builds the workload's stack (traced when t is set), preloads
// it and runs one closed-loop client for d after a short warm-up.
func replayOnce(ctx context.Context, e *env, name string, seed int64, d time.Duration, t *tracer) (replayStats, error) {
	var s stack
	defer s.close()
	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return replayStats{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	var client stepper
	if name == "geo_hybrid" {
		g, err := s.buildGeo(ctx, t, seed)
		if err != nil {
			return replayStats{}, err
		}
		client = &geoClient{g: g, r: newRNG(uint64(seed)), settle: make([]int, 1)}
	} else {
		var w *singleSite
		for i := range singleSites {
			if singleSites[i].name == name {
				w = &singleSites[i]
			}
		}
		api, err := s.buildSingle(ctx, t, name, dir)
		if err != nil {
			return replayStats{}, err
		}
		if err := preload(ctx, api, w.keys); err != nil {
			return replayStats{}, err
		}
		client = newKVClients(w, api, 1, seed)[0]
	}
	var st replayStats
	begin := time.Now()
	for time.Since(begin) < 300*time.Millisecond { // warm-up
		client.step(ctx)
	}
	begin = time.Now()
	for time.Since(begin) < d {
		if _, ok := client.step(ctx); ok {
			st.ops++
		} else {
			st.failed++
		}
	}
	st.elapsed = time.Since(begin)
	if t != nil {
		st.from, st.to = begin.Sub(t.epoch), begin.Sub(t.epoch)+st.elapsed
	}
	return st, nil
}

// replay runs the workload untraced, traced and untraced again, each for d,
// and reports the traced run's mean self time per layer and op and what
// tracing cost: the traced rate against the mean of the untraced runs on
// either side of it, so that a drift over the three does not pass for
// overhead.
func replay(ctx context.Context, e *env, name string, cfg runConfig, d time.Duration, spanFile string, res *result) error {
	t := &tracer{epoch: time.Now()}
	var runs [3]replayStats
	for i, tr := range []*tracer{nil, t, nil} {
		var err error
		if runs[i], err = replayOnce(ctx, e, name, cfg.seed, d, tr); err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		res.Attempted += runs[i].ops + runs[i].failed
		if runs[i].failed > 0 {
			res.fail(runs[i].failed, "replay %d: %d wrong or failed replies", i, runs[i].failed)
		}
	}
	rate := func(r replayStats) float64 { return float64(r.ops) / r.elapsed.Seconds() }
	traced := runs[1]
	plainRate, tracedRate := (rate(runs[0])+rate(runs[2]))/2, rate(traced)
	res.set("trace.overhead_share", 1-tracedRate/plainRate)

	t.mu.Lock()
	var spans []span
	for _, s := range t.spans {
		if s.Start >= int64(traced.from) && s.End <= int64(traced.to) {
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	self, top := selfTimes(spans)
	var selfSum float64
	for key, st := range self {
		selfSum += st.sumNs
		metric := key.layer + ".self_us_" + key.op
		if _, declared := units[metric]; declared {
			res.set(metric, st.sumNs/float64(st.count)/1e3)
		}
	}
	if top.count > 0 {
		res.setWindows("trace.client_mean_us", top.sumNs/float64(top.count)/1e3, nil, top.count)
		res.Notes = append(res.Notes, fmt.Sprintf("replay: %d spans; self times sum to %.4f of the traced client time; untraced %.0f ops/s, traced %.0f ops/s",
			len(spans), selfSum/top.sumNs, plainRate, tracedRate))
	}
	res.finish()
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(spanFile, data, 0o644)
}

type layerOp struct{ layer, op string }

type selfStat struct {
	sumNs float64
	count int
}

// selfTimes attributes every span's time: a span's self time is its
// duration less the part of its interval its children cover (the union, so
// parallel replica writes are not counted twice). A span's parent is the
// deepest shallower span of the same op class whose interval contains it —
// the latest-started one when replicas overlap. It returns the totals per
// layer and op, and the totals of the outermost layer's spans: the client's
// view.
func selfTimes(spans []span) (map[layerOp]selfStat, selfStat) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return layerDepth[spans[i].Layer] < layerDepth[spans[j].Layer]
	})
	covered := make([]int64, len(spans)) // length of the union of a span's children so far
	reach := make([]int64, len(spans))   // where that union ends
	var open []int                       // earlier spans that have not ended yet, in start order
	outer := len(layerDepth)
	for i, c := range spans {
		depth := layerDepth[c.Layer]
		outer = min(outer, depth)
		reach[i] = c.Start
		parent, still := -1, open[:0]
		for _, j := range open {
			p := spans[j]
			if p.End < c.Start {
				continue
			}
			still = append(still, j)
			if pd := layerDepth[p.Layer]; p.Op == c.Op && pd < depth && p.End >= c.End &&
				(parent < 0 || pd >= layerDepth[spans[parent].Layer]) {
				parent = j
			}
		}
		open = append(still, i)
		// Children arrive in start order, so a parent's union grows rightwards.
		if parent >= 0 && c.End > reach[parent] {
			covered[parent] += c.End - max(c.Start, reach[parent])
			reach[parent] = c.End
		}
	}
	self := make(map[layerOp]selfStat)
	var top selfStat
	for i, s := range spans {
		st := self[layerOp{s.Layer, s.Op}]
		st.sumNs += float64(s.End - s.Start - covered[i])
		st.count++
		self[layerOp{s.Layer, s.Op}] = st
		if layerDepth[s.Layer] == outer {
			top.sumNs += float64(s.End - s.Start)
			top.count++
		}
	}
	return self, top
}
