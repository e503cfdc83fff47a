// Package site assembles the paper's unit of deployment — one metadata
// registry per datacenter — from a plain Config: cache tier → registry
// instance(s) (+ write-ahead log, + change feed) → shard router → near cache.
// It is the one place that stack is put together and torn down:
// core.NewFabric builds one per emulated site, cmd/metaserver serves one over
// TCP, and both get the same validation, wiring and close order.
package site

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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
	// DataDir, as its own member of the site's one log): single-key
	// operations route to the owning shard, bulk operations split into one
	// concurrent sub-batch per shard. 0 or 1 is a single instance.
	Shards int
	// Remote, when non-empty, makes the deployment a pure routing tier over
	// these already-dialed shard APIs (typically rpc.Clients; the caller
	// owns and closes them). It excludes Shards > 1, DataDir and Feed:
	// persistence and feeds live where the data lives. A nil element is a
	// shard that could not be dialed: it keeps its slot, since placement
	// follows the order, as a registry.Unavailable shard marked down, and its
	// replicas carry its range, so it needs Replication > 1.
	Remote []registry.API
	// Replication stores every key on this many shards of the tier: writes
	// fan out, reads fail over, and a crashed shard's range stays served.
	// 0 or 1 is single-home placement; more needs a sharded tier.
	Replication int
	// DataDir, when set, backs the in-process instances with one
	// write-ahead log in it, which they share (and its fsyncs: a write to
	// two replicas costs one), and recovers them from it on the next Build,
	// so acknowledged writes survive a crash. A directory holding the
	// shard-<i> log directories of storage generation 1 is refused
	// (store.ErrGeneration). Empty keeps the registry in memory.
	DataDir string
	// Fsync is the log's sync policy with DataDir (the zero value,
	// store.FsyncAlways, syncs every append).
	Fsync store.FsyncPolicy
	// Feed publishes every committed put and delete on a change feed, for
	// the near cache and for watchers; a sharded tier relays its shards'
	// feeds into one. A feed numbers its own
	// events: with DataDir it starts past the log's last record, so a cursor
	// from before a restart takes the snapshot fallback (feed.ErrCompacted).
	Feed bool
	// FeedCapacity is the event window the feed retains for resuming
	// subscribers; a sharded tier's relay holds its one window, and the
	// shards' own logs retain none. 0 means feed.DefaultCapacity.
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
	case remote && !slices.ContainsFunc(c.Remote, func(api registry.API) bool { return api != nil }):
		return errors.New("site: no remote shard could be dialed")
	case slices.Contains(c.Remote, nil) && c.Replication <= 1:
		return errors.New("site: an undialed remote shard needs replication > 1, so that its replicas carry its range")
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
	case c.FeedCapacity < 0:
		return errors.New("site: feed capacity must be >= 0 (0 selects the feed default)")
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
		d += fmt.Sprintf(", %d-way replicated", c.Replication)
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
	case c.NearCache && len(c.Remote) > 0: // Validate refuses Remote with Feed
		d += fmt.Sprintf(", near cache (staleness <= %s)", cmp.Or(c.MaxStaleness, readcache.DefaultMaxStaleness))
	case c.NearCache:
		d += fmt.Sprintf(", near cache (staleness <= %s; run -feed for push invalidation)",
			cmp.Or(c.MaxStaleness, readcache.DefaultMaxStaleness))
	}
	return d
}

// Build validates cfg and assembles the deployment it describes. The returned
// close function shuts it down in dependency order — the near cache's feed
// observer, then the router (its sweeps must not race a closing log), then the
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
	shards := slices.Clone(cfg.Remote)
	var down []cloud.SiteID
	for i, api := range shards {
		if api == nil {
			shards[i] = registry.Unavailable(cfg.Site)
			down = append(down, cloud.SiteID(i))
		}
	}
	if len(shards) == 0 {
		insts, err := cfg.newInstances()
		if err != nil {
			return nil, nil, err
		}
		shards = make([]registry.API, len(insts))
		for i, inst := range insts {
			closers = append(closers, inst.Close)
			shards[i], api, feeder = inst, inst, inst
		}
	}
	if len(shards) > 1 || len(cfg.Remote) > 0 {
		router, err := registry.NewRouter(cfg.Site, shards,
			registry.WithRouterMetrics(cfg.Metrics),
			registry.WithRouterReplication(cfg.Replication))
		if err != nil {
			return nil, nil, errors.Join(fmt.Errorf("site: shard router: %w", err), closeAll())
		}
		closers = append(closers, func() error { router.Close(); return nil })
		for _, id := range down {
			router.MarkShardDown(id)
		}
		api, feeder = router, router
	}
	if cfg.NearCache {
		// Invalidation only: feed events carry the entry as submitted,
		// before the store assigned its version, so there is nothing
		// servable to install from them.
		nc := readcache.New(api, readcache.Options{Metrics: cfg.Metrics, MaxStaleness: cfg.MaxStaleness})
		if cfg.Feed {
			nc.AttachLog(feeder.ChangeFeed())
		}
		closers = append(closers, nc.Close)
		api = nc
	}
	return api, closeAll, nil
}

// newInstances builds the site's instances, each on its own cache:
// memory-only, or the members of one write-ahead log in DataDir, recovered
// from it and journaling to it.
func (c Config) newInstances() ([]*registry.Instance, error) {
	backings := make([]registry.Store, max(c.Shards, 1))
	for i := range backings {
		if c.NewStore != nil {
			backings[i] = c.NewStore()
		} else {
			backings[i] = memcache.New(memcache.Config{Metrics: c.Metrics})
		}
	}
	if c.DataDir != "" {
		if old, _ := filepath.Glob(filepath.Join(c.DataDir, "shard-[0-9]*")); len(old) > 0 {
			return nil, fmt.Errorf("site: %s holds a log directory per shard (%s): %w", c.DataDir, filepath.Base(old[0]), store.ErrGeneration)
		}
		members, err := store.OpenShared(c.DataDir, backings, store.WithFsync(c.Fsync))
		if err != nil {
			return nil, fmt.Errorf("site: opening the log in %s: %w", c.DataDir, err)
		}
		for i, m := range members {
			backings[i] = m
		}
	}
	var opts []registry.InstanceOption
	if c.Feed {
		// Behind a router, watchers subscribe to its relay, which takes the
		// shards' window (theirs then retain nothing) and reports the feed
		// series itself: the shards' logs stay silent so that each event is
		// counted once.
		feedOpts := []feed.LogOption{feed.WithCapacity(c.FeedCapacity)}
		if len(backings) == 1 {
			feedOpts = append(feedOpts, feed.WithLogMetrics(c.Metrics))
		}
		opts = append(opts, registry.WithChangeFeed(feedOpts...))
	}
	insts := make([]*registry.Instance, len(backings))
	for i, b := range backings {
		insts[i] = registry.NewInstance(c.Site, b, opts...)
	}
	return insts, nil
}
