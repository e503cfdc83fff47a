package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// Fabric is the substrate every strategy builds on: one metadata registry
// deployment per participating datacenter (backed by the in-memory cache
// tier) plus the latency model of the multi-site cloud. A site's deployment
// is whatever site.Build assembles from the WithSite configuration — a single
// instance by default; sharded, replicated, durable, feeding or near-cached
// on request — or an externally provided registry.API (an rpc.Client proxy,
// or a Router over proxies) under WithInstances; the strategies cannot tell
// the difference. The same fabric can back any strategy, which is what lets
// the Controller switch between them without redeploying anything.
type Fabric struct {
	topo *cloud.Topology
	lat  *latency.Model
	rec  *metrics.Recorder

	// metrics is the live-observability registry (nil = disabled); the
	// instruments below are resolved once here so the per-op path never
	// touches the registry's name map.
	metrics   *metrics.Registry
	opHists   [5]*metrics.Histogram // core_<kind>_latency_ns, indexed by OpKind
	opsTotal  *metrics.Counter      // core_ops_total
	remoteOps *metrics.Counter      // core_remote_ops_total
	trace     *metrics.TraceRing

	sites     []cloud.SiteID
	instances map[cloud.SiteID]registry.API

	// owned are the close functions of the sites the fabric built.
	// Externally provided instances (WithInstances) are never owned.
	owned []func() error

	// ackBytes is the modelled size of a small acknowledgement message.
	ackBytes int
	// queryBytes is the modelled size of a lookup request (key + framing).
	queryBytes int
}

// FabricOption configures a Fabric.
type FabricOption func(*fabricConfig)

type fabricConfig struct {
	sites        []cloud.SiteID
	site         site.Config
	rec          *metrics.Recorder
	metricsReg   *metrics.Registry
	cacheFactory func(cloud.SiteID) registry.Store
	instances    map[cloud.SiteID]registry.API
	serviceTime  time.Duration
	concurrency  int
}

// WithInstances backs specific sites with externally provided registry
// instances (typically rpc.Client proxies to registry servers running as
// separate processes). Sites not present in the map fall back to in-process
// instances built by the cache factory.
func WithInstances(instances map[cloud.SiteID]registry.API) FabricOption {
	return func(c *fabricConfig) { c.instances = instances }
}

// WithSites restricts the fabric to a subset of the topology's sites
// (default: every site).
func WithSites(sites ...cloud.SiteID) FabricOption {
	return func(c *fabricConfig) { c.sites = sites }
}

// WithRecorder attaches a metrics recorder; every metadata operation served
// through the fabric's strategies is recorded on it.
func WithRecorder(rec *metrics.Recorder) FabricOption {
	return func(c *fabricConfig) { c.rec = rec }
}

// WithMetricsRegistry selects the live-observability registry the fabric —
// and every strategy, propagator and sync agent built over it — reports to:
// per-kind latency histograms, operation counters, queue-depth gauges and
// the per-op trace ring. The default is metrics.Default; pass nil to disable
// instrumentation entirely.
func WithMetricsRegistry(reg *metrics.Registry) FabricOption {
	return func(c *fabricConfig) { c.metricsReg = reg }
}

// WithCacheFactory overrides how the per-site cache instances are built.
func WithCacheFactory(f func(cloud.SiteID) registry.Store) FabricOption {
	return func(c *fabricConfig) { c.cacheFactory = f }
}

// WithSite shapes the registry deployment the fabric builds in every site it
// does not receive via WithInstances: shard count, replication, persistence,
// change feeds and the near cache are the fields of site.Config, assembled by
// site.Build exactly as cmd/metaserver assembles its own. The fabric fills
// the per-site fields itself — Site, Metrics (WithMetricsRegistry), NewStore
// (WithCacheCapacity / WithCacheFactory) — so cfg must leave them, and Remote
// (one set of shards cannot be every site's), zero; NewFabric panics
// otherwise rather than overwrite them. Each site gets its own site-<id>
// subdirectory of DataDir. External instances keep their own persistence,
// feeds and caches.
//
// A fabric with a DataDir must be shut down with Close, which flushes and
// fsyncs every log. NewFabric panics when site.Build refuses the
// configuration or cannot open a data directory; callers that need the error
// call site.Config.Validate (and probe the directory) beforehand, as
// experiments.Config.Validate does.
func WithSite(cfg site.Config) FabricOption {
	return func(c *fabricConfig) { c.site = cfg }
}

// WithCacheCapacity tunes the modelled capacity of each per-site cache
// instance: the per-operation service time and the number of operations
// served concurrently. It is ignored when WithCacheFactory is used.
func WithCacheCapacity(serviceTime time.Duration, concurrency int) FabricOption {
	return func(c *fabricConfig) {
		c.serviceTime = serviceTime
		c.concurrency = concurrency
	}
}

// Default capacity of one registry cache instance, calibrated so that a
// single instance saturates around the throughput the paper reports for the
// centralized baseline (a few hundred operations per second) while the four
// instances of the decentralized strategies together scale towards the
// ~1150 ops/s the paper measures at 128 nodes.
const (
	DefaultServiceTime = 3 * time.Millisecond
	DefaultConcurrency = 2
)

// CapacityStore models the capacity of one managed-cache instance over s: at
// most concurrency operations (0 = unbounded) are served at once, and each
// holds its worker slot for serviceTime, slept through sleep. That bound is
// what makes a single centralized registry saturate under concurrency and
// produces the scaling of Figs. 5, 7 and 8.
//
// GetBatch, PutBatch and DeleteBatch are the bulk paths of the
// synchronization agent and lazy propagation: a batch of n items takes one
// slot for serviceTime·(1+n/16), far cheaper per item than the individual
// operations. Snapshot, Contains and Len are control-plane reads and
// pass through uncharged. The time spent queueing for a slot is observed as
// memcache_slot_wait_ns on reg (nil = not observed). With a zero serviceTime
// and concurrency, CapacityStore returns s itself.
func CapacityStore(s registry.Store, serviceTime time.Duration, concurrency int, sleep func(time.Duration), reg *metrics.Registry) registry.Store {
	if serviceTime <= 0 && concurrency <= 0 {
		return s
	}
	c := &capacityStore{Store: s, serviceTime: serviceTime, sleep: sleep, slotWait: reg.Histogram("memcache_slot_wait_ns")}
	if concurrency > 0 {
		c.slots = make(chan struct{}, concurrency)
	}
	return c
}

// capacityStore is CapacityStore's decorator: the data-plane calls are
// charged, the embedded store's control-plane reads are promoted as they are.
type capacityStore struct {
	registry.Store
	serviceTime time.Duration
	sleep       func(time.Duration)
	slots       chan struct{} // nil = unbounded
	slotWait    *metrics.Histogram
}

// enter takes a worker slot, waiting behind other calls if none is free.
func (c *capacityStore) enter() {
	if c.slots != nil {
		start := time.Now()
		c.slots <- struct{}{}
		c.slotWait.ObserveDuration(time.Since(start))
	}
}

// leave charges the service time of an n-item call (n = 0 for a single-key
// one) and releases the slot.
func (c *capacityStore) leave(n int) {
	if c.serviceTime > 0 {
		c.sleep(c.serviceTime + c.serviceTime*time.Duration(n)/16)
	}
	if c.slots != nil {
		<-c.slots
	}
}

func (c *capacityStore) Get(key string) (memcache.Item, error) {
	c.enter()
	defer c.leave(0)
	return c.Store.Get(key)
}

func (c *capacityStore) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	c.enter()
	defer c.leave(0)
	return c.Store.Put(key, value, ttl)
}

func (c *capacityStore) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error) {
	c.enter()
	defer c.leave(0)
	return c.Store.CAS(key, value, ttl, expectedVersion)
}

func (c *capacityStore) Delete(key string) error {
	c.enter()
	defer c.leave(0)
	return c.Store.Delete(key)
}

func (c *capacityStore) GetBatch(keys []string) ([]memcache.Item, []string, error) {
	c.enter()
	defer c.leave(len(keys))
	return c.Store.GetBatch(keys)
}

func (c *capacityStore) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	c.enter()
	defer c.leave(len(kvs))
	return c.Store.PutBatch(kvs)
}

func (c *capacityStore) DeleteBatch(keys []string) (int, error) {
	c.enter()
	defer c.leave(len(keys))
	return c.Store.DeleteBatch(keys)
}

// NewFabric builds the per-site registry deployments for the given topology
// and latency model.
func NewFabric(topo *cloud.Topology, lat *latency.Model, opts ...FabricOption) *Fabric {
	cfg := fabricConfig{
		serviceTime: DefaultServiceTime,
		concurrency: DefaultConcurrency,
		metricsReg:  metrics.Default,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.sites) == 0 {
		for _, s := range topo.Sites() {
			cfg.sites = append(cfg.sites, s.ID)
		}
	}
	if cfg.cacheFactory == nil {
		cfg.cacheFactory = func(cloud.SiteID) registry.Store {
			// The per-site caches aggregate into the fabric's registry (hit
			// rate, occupancy, slot wait), and the service time is slept
			// through the latency model so the experiment's time-compression
			// factor applies uniformly.
			cache := memcache.New(memcache.Config{Metrics: cfg.metricsReg})
			return CapacityStore(cache, cfg.serviceTime, cfg.concurrency, lat.Sleeper(), cfg.metricsReg)
		}
	}

	f := &Fabric{
		topo:       topo,
		lat:        lat,
		rec:        cfg.rec,
		metrics:    cfg.metricsReg,
		sites:      append([]cloud.SiteID(nil), cfg.sites...),
		instances:  make(map[cloud.SiteID]registry.API, len(cfg.sites)),
		ackBytes:   64,
		queryBytes: 128,
	}
	for _, kind := range []metrics.OpKind{metrics.OpRead, metrics.OpWrite, metrics.OpUpdate, metrics.OpSync} {
		f.opHists[kind] = f.metrics.Histogram("core_" + kind.String() + "_latency_ns")
	}
	f.opsTotal = f.metrics.Counter("core_ops_total")
	f.remoteOps = f.metrics.Counter("core_remote_ops_total")
	f.trace = f.metrics.Trace()
	if sc := cfg.site; sc.Site != 0 || len(sc.Remote) > 0 || sc.NewStore != nil || sc.Metrics != nil {
		panic("core: WithSite: Site, Remote, NewStore and Metrics are set per site by the fabric (WithSites, WithInstances, WithCacheFactory, WithMetricsRegistry); leave them zero")
	}
	for _, s := range cfg.sites {
		if ext, ok := cfg.instances[s]; ok && ext != nil {
			f.instances[s] = ext
			continue
		}
		sc := cfg.site
		sc.Site = s
		sc.Metrics = cfg.metricsReg
		sc.NewStore = func() registry.Store { return cfg.cacheFactory(s) }
		if sc.DataDir != "" {
			sc.DataDir = filepath.Join(sc.DataDir, fmt.Sprintf("site-%d", s))
		}
		api, closeSite, err := site.Build(sc)
		if err != nil {
			f.Close() //nolint:errcheck // the build error is the one to report
			panic(fmt.Sprintf("core: building the registry of site %d: %v", s, err))
		}
		f.instances[s] = api
		f.owned = append(f.owned, closeSite)
	}
	return f
}

// Close shuts down every site the fabric built (see site.Build for the order
// within a site), flushing and fsyncing each write-ahead log. A memory-only
// fabric closes trivially. Close is safe to call once per fabric; durable
// instances reject operations afterwards.
func (f *Fabric) Close() error {
	var errs []error
	for _, close := range f.owned {
		if err := close(); err != nil {
			errs = append(errs, err)
		}
	}
	f.owned = nil
	return errors.Join(errs...)
}

// Sites returns the datacenters participating in the fabric.
func (f *Fabric) Sites() []cloud.SiteID {
	out := make([]cloud.SiteID, len(f.sites))
	copy(out, f.sites)
	return out
}

// HasSite reports whether the given site participates in the fabric.
func (f *Fabric) HasSite(site cloud.SiteID) bool {
	_, ok := f.instances[site]
	return ok
}

// Instance returns the registry instance deployed in the given site.
func (f *Fabric) Instance(site cloud.SiteID) (registry.API, error) {
	inst, ok := f.instances[site]
	if !ok {
		return nil, fmt.Errorf("%w: site %d", ErrNoSuchSite, site)
	}
	return inst, nil
}

// TotalEntries sums the number of entries stored across every instance
// (entries replicated on k sites count k times).
func (f *Fabric) TotalEntries(ctx context.Context) int {
	total := 0
	for _, inst := range f.instances {
		total += inst.Len(ctx)
	}
	return total
}

// EntrySize returns the modelled wire size of an entry: the length of its
// encoding.
func (f *Fabric) EntrySize(e registry.Entry) int { return registry.EncodedSize(e) }

// call models one request/response exchange between the caller's site and the
// site hosting a registry instance, charging WAN latency when they differ.
// It returns whether the exchange was remote; a cancelled context aborts the
// modelled wait early and surfaces as the returned error.
func (f *Fabric) call(ctx context.Context, from, to cloud.SiteID, reqBytes, respBytes int) (bool, error) {
	_, err := f.lat.InjectRoundTrip(ctx, from, to, reqBytes, respBytes)
	return f.topo.DistanceClass(from, to).Remote(), err
}

// Metrics returns the fabric's live-observability registry (nil if
// disabled). Strategies, the propagator and the sync agent resolve their
// instruments here so everything built over one fabric reports to one place.
func (f *Fabric) Metrics() *metrics.Registry { return f.metrics }

// strategyOps returns the operation counter of one strategy
// (core_strategy_<abbrev>_ops_total), nil when instrumentation is off.
func (f *Fabric) strategyOps(k StrategyKind) *metrics.Counter {
	return f.metrics.Counter("core_strategy_" + strings.ToLower(k.Short()) + "_ops_total")
}

// traceNames holds each operation kind's name in the trace ring, indexed like
// Fabric.opHists and resolved once: building it per operation cost an
// allocation.
var traceNames = func() (names [5]string) {
	for kind := range names {
		names[kind] = "core." + metrics.OpKind(kind).String()
	}
	return names
}()

// record stores an operation sample on the fabric's recorder (if any) and
// feeds the live instruments: the per-kind latency histogram, the operation
// counters and the trace ring.
func (f *Fabric) record(kind metrics.OpKind, start time.Time, remote bool) {
	end := time.Now()
	elapsed := end.Sub(start)
	if f.rec != nil {
		f.rec.Record(kind, elapsed, remote)
	}
	if f.metrics == nil {
		return
	}
	f.opHists[kind].ObserveDuration(elapsed)
	f.opsTotal.Inc()
	if remote {
		f.remoteOps.Inc()
	}
	f.trace.Add(traceNames[kind], "", end, elapsed, "")
}
