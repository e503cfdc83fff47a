package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/store"
)

// Fabric is the substrate every strategy builds on: one metadata registry
// deployment per participating datacenter (backed by the in-memory cache
// tier) plus the latency model of the multi-site cloud. A site's deployment
// is a single instance by default, a registry.Router over several shard
// instances under WithShardsPerSite, or an externally provided registry.API
// (an rpc.Client proxy, or a Router over proxies) under WithInstances — the
// strategies cannot tell the difference. The same fabric can back any
// strategy, which is what lets the ArchitectureController switch between
// them without redeploying anything.
type Fabric struct {
	topo  *cloud.Topology
	lat   *latency.Model
	codec registry.Codec
	rec   *metrics.Recorder

	// metrics is the live-observability registry (nil = disabled); the
	// instruments below are resolved once here so the per-op path never
	// touches the registry's name map.
	metrics   *metrics.Registry
	opHists   [5]*metrics.Histogram // core_<kind>_latency_ns, indexed by OpKind
	opsTotal  *metrics.Counter      // core_ops_total
	remoteOps *metrics.Counter      // core_remote_ops_total
	trace     *metrics.TraceRing

	sites            []cloud.SiteID
	instances        map[cloud.SiteID]registry.API
	shardsPerSite    int
	shardReplication int

	// owned are the close functions of everything the fabric built and is
	// responsible for shutting down: shard routers, and the persistent
	// instances whose write-ahead logs need a final flush. Externally
	// provided instances (WithInstances) are never owned.
	owned []func() error

	// ackBytes is the modelled size of a small acknowledgement message.
	ackBytes int
	// queryBytes is the modelled size of a lookup request (key + framing).
	queryBytes int
}

// FabricOption configures a Fabric.
type FabricOption func(*fabricConfig)

type fabricConfig struct {
	sites            []cloud.SiteID
	codec            registry.Codec
	rec              *metrics.Recorder
	metricsReg       *metrics.Registry
	cacheFactory     func(cloud.SiteID) registry.Store
	instances        map[cloud.SiteID]registry.API
	serviceTime      time.Duration
	concurrency      int
	shardsPerSite    int
	shardReplication int
	dataDir          string
	storeOpts        []store.Option
	changeFeeds      bool
	feedOpts         []feed.LogOption
	nearCache        bool
	nearCacheOpts    readcache.Options
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

// WithFabricCodec selects the entry codec (default gob).
func WithFabricCodec(codec registry.Codec) FabricOption {
	return func(c *fabricConfig) { c.codec = codec }
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

// WithShardsPerSite backs every in-process site with a registry.Router over n
// shard instances instead of a single instance: single-key operations route
// to the shard owning the key and bulk operations split into one concurrent
// sub-batch per shard, so a site's metadata throughput scales with n instead
// of saturating at one cache instance's capacity. Each shard gets its own
// cache built by the cache factory; the shards report to the fabric's metrics
// registry, so cache occupancy and hit-rate series aggregate across the whole
// sharded tier. Sites provided externally via WithInstances are not wrapped —
// pass a Router there to shard a remote site. n <= 1 keeps the single-instance
// layout.
func WithShardsPerSite(n int) FabricOption {
	return func(c *fabricConfig) {
		if n > 1 {
			c.shardsPerSite = n
		}
	}
}

// WithShardReplication places every key of a sharded site on the first r
// distinct shards of its consistent-hash successor list instead of a single
// home shard: writes fan out to all r replicas, reads fail over down the
// list, and the router's health breaker takes crashed shards out of
// placement until they answer probes again — a site keeps serving its whole
// key range through the loss of any r-1 shards. It only takes effect
// together with WithShardsPerSite (replication needs a routed tier);
// r <= 1 keeps single-home placement.
func WithShardReplication(r int) FabricOption {
	return func(c *fabricConfig) {
		if r > 1 {
			c.shardReplication = r
		}
	}
}

// WithShardPersistence backs every in-process registry instance with an
// append-only write-ahead log under dir, so acknowledged metadata writes
// survive a process crash: each site recovers from dir/site-<id> (or
// dir/site-<id>/shard-<i> when the site is sharded) on the next start, and
// replicated shard tiers repair a restarted shard from its recovered state
// instead of re-syncing it from scratch. The strategies cannot tell the
// difference — durability sits entirely below the registry API. Pass store
// options to tune the fsync policy and compaction cadence. Sites provided
// externally via WithInstances keep their own persistence arrangements.
//
// A fabric with persistence must be shut down with Close, which flushes and
// fsyncs every log so a clean shutdown is lossless even under
// store.FsyncNever. NewFabric panics if a data directory cannot be opened
// (callers that need a recoverable error validate dir beforehand, as
// experiments.Config does).
func WithShardPersistence(dir string, opts ...store.Option) FabricOption {
	return func(c *fabricConfig) {
		c.dataDir = dir
		c.storeOpts = opts
	}
}

// WithChangeFeeds attaches a change feed to every in-process registry
// instance the fabric builds: each committed put and delete is published as a
// sequenced feed event (riding the WAL sequence when the site is persistent,
// so resume tokens survive restarts). Feeds are what the push-based
// replication modes (WithFeedSync on the replicated strategy, feed
// propagation on the hybrid strategy) and the workflow engine's reactive
// lookups consume instead of polling. Sharded sites expose their router's
// relay feed, which re-sequences the per-shard feeds into one ordered stream.
// Sites provided externally via WithInstances must bring their own feeds
// (e.g. an rpc.Client watch source). Extra log options tune capacity.
func WithChangeFeeds(opts ...feed.LogOption) FabricOption {
	return func(c *fabricConfig) {
		c.changeFeeds = true
		c.feedOpts = opts
	}
}

// WithNearCache fronts every site's registry deployment with a feed-coherent
// near cache (internal/readcache): repeated Gets of unchanged entries answer
// from local memory instead of paying the instance's service time (or the
// wire, for sites provided via WithInstances), and repeated not-founds are
// answered by negative entries. When the fabric was built with
// WithChangeFeeds the cache subscribes to each site's own feed and applies
// put events in place using the fabric codec (overridable via opts.Codec),
// so entries can be stale only within the feed-delivery window; a site
// without a feed falls back to the cache's max-staleness TTL. The zero
// Options value selects the defaults (capacity, shards, TTL policy); the
// cache reports readcache_* series to the fabric's metrics registry unless
// opts.Metrics overrides it. Strategies cannot tell a cached site from a raw
// one — the cache implements registry.API and forwards the feed surface.
func WithNearCache(opts readcache.Options) FabricOption {
	return func(c *fabricConfig) {
		c.nearCache = true
		c.nearCacheOpts = opts
	}
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

// NewFabric builds the per-site registry instances for the given topology and
// latency model.
func NewFabric(topo *cloud.Topology, lat *latency.Model, opts ...FabricOption) *Fabric {
	cfg := fabricConfig{
		codec:       registry.GobCodec{},
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
			return memcache.New(memcache.Config{
				ServiceTime: cfg.serviceTime,
				Concurrency: cfg.concurrency,
				// Route the service-time sleep through the latency model so
				// the experiment's time-compression factor applies uniformly.
				Sleep: lat.Sleeper(),
				// The per-site caches aggregate into the fabric's registry
				// (hit rate, occupancy, slot wait).
				Metrics: cfg.metricsReg,
			})
		}
	}

	f := &Fabric{
		topo:       topo,
		lat:        lat,
		codec:      cfg.codec,
		rec:        cfg.rec,
		metrics:    cfg.metricsReg,
		sites:      append([]cloud.SiteID(nil), cfg.sites...),
		instances:  make(map[cloud.SiteID]registry.API, len(cfg.sites)),
		ackBytes:   64,
		queryBytes: 128,
	}
	for _, kind := range []metrics.OpKind{metrics.OpRead, metrics.OpWrite, metrics.OpUpdate, metrics.OpDelete, metrics.OpSync} {
		f.opHists[kind] = f.metrics.Histogram("core_" + kind.String() + "_latency_ns")
	}
	f.opsTotal = f.metrics.Counter("core_ops_total")
	f.remoteOps = f.metrics.Counter("core_remote_ops_total")
	f.trace = f.metrics.Trace()
	f.shardsPerSite = cfg.shardsPerSite
	f.shardReplication = cfg.shardReplication
	// newInstance builds one shard instance, memory-only or recovered from
	// its own subdirectory of the data dir.
	newInstance := func(s cloud.SiteID, sub string) *registry.Instance {
		backing := cfg.cacheFactory(s)
		instOpts := []registry.InstanceOption{registry.WithCodec(cfg.codec)}
		if cfg.changeFeeds {
			feedOpts := append([]feed.LogOption{feed.WithLogMetrics(cfg.metricsReg)}, cfg.feedOpts...)
			instOpts = append(instOpts, registry.WithChangeFeed(feedOpts...))
		}
		if cfg.dataDir == "" {
			inst := registry.NewInstance(s, backing, instOpts...)
			if cfg.changeFeeds {
				// Feeding instances own a subscriber list that Close drains.
				f.owned = append(f.owned, inst.Close)
			}
			return inst
		}
		dir := filepath.Join(cfg.dataDir, sub)
		inst, err := registry.OpenInstance(s, backing, dir, cfg.storeOpts, instOpts...)
		if err != nil {
			panic(fmt.Sprintf("core: opening persistent registry at %s: %v", dir, err))
		}
		f.owned = append(f.owned, inst.Close)
		return inst
	}
	for _, s := range cfg.sites {
		siteDir := fmt.Sprintf("site-%d", s)
		if ext, ok := cfg.instances[s]; ok && ext != nil {
			f.instances[s] = ext
			continue
		}
		if cfg.shardsPerSite > 1 {
			shards := make([]registry.API, cfg.shardsPerSite)
			for i := range shards {
				shards[i] = newInstance(s, filepath.Join(siteDir, fmt.Sprintf("shard-%d", i)))
			}
			router, err := registry.NewRouter(s, shards,
				registry.WithRouterMetrics(cfg.metricsReg),
				registry.WithRouterReplication(cfg.shardReplication))
			if err != nil {
				// Unreachable: shardsPerSite > 1 guarantees a non-empty tier.
				panic(fmt.Sprintf("core: building shard router for site %d: %v", s, err))
			}
			// The router's sweeps must stop before the shard logs close.
			f.owned = append([]func() error{func() error { router.Close(); return nil }}, f.owned...)
			f.instances[s] = router
			continue
		}
		f.instances[s] = newInstance(s, siteDir)
	}
	if cfg.nearCache {
		for _, s := range cfg.sites {
			inst := f.instances[s]
			opts := cfg.nearCacheOpts
			if opts.Metrics == nil {
				opts.Metrics = cfg.metricsReg
			}
			if opts.Codec == nil {
				opts.Codec = cfg.codec
			}
			cache := readcache.New(inst, opts)
			if feeder, ok := inst.(registry.ChangeFeeder); ok && feeder.ChangeFeed() != nil {
				cache.AttachFeed(context.Background(), []feed.Source{{
					Name: fmt.Sprintf("site-%d", s),
					Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
						return feeder.ChangeFeed().Subscribe(from)
					},
					Snapshot: feeder.FeedSnapshot,
				}}, feed.WithCombinerMetrics(cfg.metricsReg))
			}
			f.instances[s] = cache
			// The cache's feed consumer must detach before the instance
			// feeds close.
			f.owned = append([]func() error{cache.Close}, f.owned...)
		}
	}
	return f
}

// Close shuts down everything the fabric owns: shard routers first (their
// re-sync sweeps must not race the logs closing), then the persistent
// instances, flushing and fsyncing each write-ahead log. A memory-only
// fabric closes trivially. Close is safe to call once per fabric; the
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

// ShardsPerSite returns how many registry shards back each in-process site
// (1 = the classic single-instance layout).
func (f *Fabric) ShardsPerSite() int {
	if f.shardsPerSite > 1 {
		return f.shardsPerSite
	}
	return 1
}

// ShardReplication returns the per-site shard replication factor
// (1 = single-home placement).
func (f *Fabric) ShardReplication() int {
	if f.shardReplication > 1 && f.shardsPerSite > 1 {
		return f.shardReplication
	}
	return 1
}

// Topology returns the cloud topology of the fabric.
func (f *Fabric) Topology() *cloud.Topology { return f.topo }

// Latency returns the latency model used for wide-area communication.
func (f *Fabric) Latency() *latency.Model { return f.lat }

// Recorder returns the attached metrics recorder (nil if none).
func (f *Fabric) Recorder() *metrics.Recorder { return f.rec }

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

// Codec returns the entry codec the fabric's instances encode with. Feed
// consumers use it to decode the entry payload carried by put events.
func (f *Fabric) Codec() registry.Codec { return f.codec }

// Feed returns the change-feed surface of the given site's registry
// deployment. It fails when the site does not participate in the fabric or
// its instance exposes no feed (the fabric was built without WithChangeFeeds,
// or an external instance does not implement registry.ChangeFeeder).
func (f *Fabric) Feed(site cloud.SiteID) (registry.ChangeFeeder, error) {
	inst, err := f.Instance(site)
	if err != nil {
		return nil, err
	}
	feeder, ok := inst.(registry.ChangeFeeder)
	if !ok || feeder.ChangeFeed() == nil {
		return nil, fmt.Errorf("core: site %d exposes no change feed (fabric built without WithChangeFeeds?): %w", site, ErrNoFeed)
	}
	return feeder, nil
}

// FeedSources returns one feed.Source per fabric site, named "site-<id>",
// ready to fan into a feed.Combiner: Subscribe tails the site's change feed
// from a cursor and Snapshot captures its current state for the
// cursor-too-old fallback. It fails if any site exposes no feed.
func (f *Fabric) FeedSources() ([]feed.Source, error) {
	sources := make([]feed.Source, 0, len(f.sites))
	for _, site := range f.sites {
		feeder, err := f.Feed(site)
		if err != nil {
			return nil, err
		}
		sources = append(sources, feed.Source{
			Name: fmt.Sprintf("site-%d", site),
			Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
				return feeder.ChangeFeed().Subscribe(from)
			},
			Snapshot: feeder.FeedSnapshot,
		})
	}
	return sources, nil
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

// EntrySize returns the modelled wire size of an entry.
func (f *Fabric) EntrySize(e registry.Entry) int {
	data, err := f.codec.Encode(e)
	if err != nil {
		return 256 // conservative fallback; encoding failures surface later
	}
	return len(data)
}

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

// record stores an operation sample on the fabric's recorder (if any) and
// feeds the live instruments: the per-kind latency histogram, the operation
// counters and the trace ring.
func (f *Fabric) record(kind metrics.OpKind, start time.Time, remote bool) {
	f.recordAt(kind, time.Since(start), remote)
}

// recordAt is like record for callers that already measured the duration.
func (f *Fabric) recordAt(kind metrics.OpKind, elapsed time.Duration, remote bool) {
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
	f.trace.Add("core."+kind.String(), "", elapsed, nil)
}
