// Package site assembles the paper's unit of deployment — one metadata
// registry per datacenter — from a plain Config: cache tier → registry
// instance(s) (+ write-ahead log, + change feed) → shard router → near cache.
// It is the one place that stack is put together and torn down:
// core.NewFabric builds one per emulated site, cmd/metaserver serves one over
// TCP, and both get the same validation, wiring and close order.
package site

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/store"
)

// Config describes one site's registry deployment. The zero value is a single
// memory-only instance on one cache.
type Config struct {
	// Site is the datacenter the deployment serves.
	Site cloud.SiteID
	// Shards is the number of in-process registry instances. Above 1 they
	// sit behind a consistent-hash router, each on its own cache (and, with
	// DataDir, its own shard-<i> log directory): single-key operations route
	// to the owning shard, bulk operations split into one concurrent
	// sub-batch per shard. 0 or 1 is a single instance.
	Shards int
	// Remote, when non-empty, makes the deployment a pure routing tier over
	// these already-dialed shard APIs (typically rpc.Clients; the caller
	// owns and closes them). It excludes Shards > 1, DataDir and Feed:
	// persistence and feeds live where the data lives.
	Remote []registry.API
	// Replication stores every key on this many shards of the tier: writes
	// fan out, reads fail over, and a crashed shard's range stays served.
	// 0 or 1 is single-home placement; more needs a sharded tier.
	Replication int
	// WriteConcern is the replicated-write acknowledgement rule (the zero
	// value is registry.WriteAll).
	WriteConcern registry.WriteConcern
	// DataDir, when set, backs every in-process instance with a write-ahead
	// log under it and recovers from it on the next Build, so acknowledged
	// writes survive a crash. Empty keeps the registry in memory.
	DataDir string
	// Fsync is the log's sync policy with DataDir (the zero value,
	// store.FsyncAlways, syncs every append).
	Fsync store.FsyncPolicy
	// Feed publishes every committed put and delete on a change feed
	// (riding the log's sequence numbers with DataDir, so resume tokens
	// survive restarts); a sharded tier relays its shards' feeds into one.
	Feed bool
	// FeedCapacity is the event window the feed retains for resuming
	// subscribers; 0 means feed.DefaultCapacity.
	FeedCapacity int
	// NearCache serves reads through a readcache in front of the
	// deployment: push-invalidated by the change feed with Feed, bounded by
	// MaxStaleness without it.
	NearCache bool
	// MaxStaleness is the near cache's TTL without a feed; 0 means
	// readcache.DefaultMaxStaleness. With Feed the feed is the bound.
	MaxStaleness time.Duration
	// NewStore builds the cache tier of one instance — where core.NewFabric
	// puts the emulated capacity (core.CapacityStore) and tests substitute
	// fakes. Nil means a plain memcache, as a served site has.
	NewStore func() registry.Store
	// Metrics receives the memcache, feed, router and readcache series; nil
	// disables them.
	Metrics *metrics.Registry
}

// Validate reports the combinations Build refuses, so a caller can reject a
// configuration before anything is opened.
func (c Config) Validate() error {
	remote := len(c.Remote) > 0
	switch {
	case remote && c.Shards > 1:
		return errors.New("site: in-process shards and remote shards are mutually exclusive")
	case c.Replication > 1 && c.Shards <= 1 && !remote:
		// Refuse rather than silently serve a single unreplicated instance
		// the operator believes is fault-tolerant.
		return errors.New("site: replication requires a sharded tier (more than one shard, or remote shards)")
	case remote && c.DataDir != "":
		return errors.New("site: a data dir applies to in-process instances; give each remote shard its own")
	case remote && c.Feed:
		return errors.New("site: a change feed applies to in-process instances; run each remote shard with its own and watch it directly")
	case c.MaxStaleness < 0:
		return errors.New("site: near-cache staleness must be >= 0 (0 selects the readcache default)")
	}
	return nil
}

// String renders the deployment Build assembles from c in one line, for
// startup banners.
func (c Config) String() string {
	var d string
	switch {
	case len(c.Remote) > 0:
		d = fmt.Sprintf("routing tier over %d remote shards", len(c.Remote))
	case c.Shards > 1:
		d = fmt.Sprintf("sharded tier of %d instances", c.Shards)
	default:
		d = "single instance"
	}
	if c.Replication > 1 {
		d += fmt.Sprintf(", %d-way replicated (%s)", c.Replication, c.WriteConcern)
	}
	if c.DataDir != "" {
		d += fmt.Sprintf(", durable in %s (fsync=%s)", c.DataDir, c.Fsync)
	}
	if c.Feed {
		d += fmt.Sprintf(", change feed (last %d events retained)", cmp.Or(c.FeedCapacity, feed.DefaultCapacity))
	}
	switch {
	case c.NearCache && c.Feed:
		d += ", near cache (feed-coherent)"
	case c.NearCache:
		d += fmt.Sprintf(", near cache (staleness <= %s; run -feed for push invalidation)",
			cmp.Or(c.MaxStaleness, readcache.DefaultMaxStaleness))
	}
	return d
}

// Build validates cfg and assembles the deployment it describes. The returned
// close function shuts it down in dependency order — the near cache's feed
// consumer, then the router (its sweeps must not race a closing log), then the
// instances, flushing and fsyncing each write-ahead log — so a close followed
// by a Build over the same DataDir is lossless. Remote shards are not closed.
func Build(cfg Config) (registry.API, func() error, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	// closers run last-built first.
	var closers []func() error
	closeAll := func() error {
		var errs []error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	var (
		api    registry.API
		feeder registry.ChangeFeeder
	)
	shards := cfg.Remote
	if len(shards) == 0 {
		n := max(cfg.Shards, 1)
		shards = make([]registry.API, n)
		for i := range shards {
			sub := ""
			if n > 1 {
				sub = fmt.Sprintf("shard-%d", i)
			}
			inst, err := cfg.newInstance(sub)
			if err != nil {
				return nil, nil, errors.Join(err, closeAll())
			}
			closers = append(closers, inst.Close)
			shards[i], api, feeder = inst, inst, inst
		}
	}
	if len(shards) > 1 || len(cfg.Remote) > 0 {
		router, err := registry.NewRouter(cfg.Site, shards,
			registry.WithRouterMetrics(cfg.Metrics),
			registry.WithRouterReplication(cfg.Replication),
			registry.WithRouterWriteConcern(cfg.WriteConcern))
		if err != nil {
			return nil, nil, errors.Join(fmt.Errorf("site: shard router: %w", err), closeAll())
		}
		closers = append(closers, func() error { router.Close(); return nil })
		api, feeder = router, router
	}
	if cfg.NearCache {
		// Invalidation only: feed events carry the entry as submitted,
		// before the store assigned its version, so there is nothing
		// servable to install from them.
		nc := readcache.New(api, readcache.Options{Metrics: cfg.Metrics, MaxStaleness: cfg.MaxStaleness})
		if cfg.Feed {
			nc.AttachFeed(context.Background(),
				[]feed.Source{registry.FeedSource("origin", feeder)},
				feed.WithCombinerMetrics(cfg.Metrics))
		}
		closers = append(closers, nc.Close)
		api = nc
	}
	return api, closeAll, nil
}

// newInstance builds one registry instance on its own cache, memory-only or
// recovered from (and journaling to) the sub directory of DataDir.
func (c Config) newInstance(sub string) (*registry.Instance, error) {
	var backing registry.Store
	if c.NewStore != nil {
		backing = c.NewStore()
	} else {
		backing = memcache.New(memcache.Config{Metrics: c.Metrics})
	}
	var opts []registry.InstanceOption
	if c.Feed {
		opts = append(opts, registry.WithChangeFeed(
			feed.WithCapacity(c.FeedCapacity), feed.WithLogMetrics(c.Metrics)))
	}
	if c.DataDir == "" {
		return registry.NewInstance(c.Site, backing, opts...), nil
	}
	return registry.OpenInstance(c.Site, backing, filepath.Join(c.DataDir, sub),
		[]store.Option{store.WithFsync(c.Fsync)}, opts...)
}
