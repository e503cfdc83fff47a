package site

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/store"
)

var ctx = context.Background()

func entry(name string, size int64) registry.Entry {
	return registry.NewEntry(name, size, "site-test", registry.Location{Site: 1, Node: 1})
}

// TestBuild drives every shape of deployment through the same contract: the
// stack is of the expected type, a Get returns the version the last Put
// acknowledged (through a feed-invalidated near cache too), durable shapes
// recover after close, and the feed consumer's counters reach the registry.
func TestBuild(t *testing.T) {
	rows := []struct {
		name string
		cfg  Config
		want string // type of the served API
		says string // the end of the one-line description
	}{
		{"single", Config{}, "*registry.Instance", "single instance"},
		{"sharded", Config{Shards: 4}, "*registry.Router", "sharded tier of 4 instances"},
		{"sharded+replicated+durable+feed", Config{Shards: 4, Replication: 2, WriteConcern: registry.WriteAll,
			DataDir: "x", Fsync: store.FsyncAlways, Feed: true, FeedCapacity: 128}, "*registry.Router",
			"(fsync=always), change feed (last 128 events retained)"},
		{"sharded+replicated+durable+feed+near cache", Config{Shards: 4, Replication: 2,
			DataDir: "x", Feed: true, NearCache: true}, "*readcache.Cache", "near cache (feed-coherent)"},
		{"near cache without feed", Config{NearCache: true, MaxStaleness: time.Minute}, "*readcache.Cache",
			"near cache (staleness <= 1m0s; run -feed for push invalidation)"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Site = 7
			cfg.Metrics = metrics.NewRegistry()
			if cfg.DataDir != "" {
				cfg.DataDir = t.TempDir()
			}
			api, closeSite, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", api); got != row.want {
				t.Fatalf("Build served a %s, want %s", got, row.want)
			}
			if !strings.HasSuffix(cfg.String(), row.says) {
				t.Errorf("String() = %q, want it to end in %q", cfg.String(), row.says)
			}
			if api.Site() != 7 {
				t.Errorf("Site() = %d, want 7", api.Site())
			}
			if r, ok := api.(*registry.Router); ok && (len(r.Shards()) != cfg.Shards || r.Replication() != max(cfg.Replication, 1)) {
				t.Errorf("router has %d shards, replication %d; want %d, %d", len(r.Shards()), r.Replication(), cfg.Shards, cfg.Replication)
			}

			var acked uint64
			for i := int64(1); i <= 3; i++ {
				stored, err := api.Put(ctx, entry("k", i))
				if err != nil {
					t.Fatal(err)
				}
				acked = stored.Version
			}
			if cache, ok := api.(*readcache.Cache); ok && cfg.Feed {
				// Three write-through invalidations plus the three feed events.
				for deadline := time.Now().Add(5 * time.Second); cache.Stats().Invalidations < 6; {
					if time.Now().After(deadline) {
						t.Fatalf("feed did not drain: %d invalidations, want 6", cache.Stats().Invalidations)
					}
					time.Sleep(time.Millisecond)
				}
				if _, ok := cfg.Metrics.Snapshot().Counters["feed_resumes_total"]; !ok {
					t.Error("feed_resumes_total not reported to the given registry")
				}
			}
			for range 2 { // the second Get may be a near-cache hit
				got, err := api.Get(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if got.Version != acked || got.Size != 3 {
					t.Errorf("Get = version %d size %d, want the acknowledged version %d size 3", got.Version, got.Size, acked)
				}
			}
			if feeder, ok := api.(registry.ChangeFeeder); ok && (feeder.ChangeFeed() != nil) != cfg.Feed {
				t.Errorf("change feed present = %v, want %v", feeder.ChangeFeed() != nil, cfg.Feed)
			}
			if err := closeSite(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if cfg.DataDir == "" {
				return
			}
			if _, err := api.Put(ctx, entry("late", 1)); err == nil {
				t.Error("Put after close succeeded on a durable site")
			}
			api, closeSite, err = Build(cfg)
			if err != nil {
				t.Fatalf("rebuild over %s: %v", cfg.DataDir, err)
			}
			defer closeSite()
			if got, err := api.Get(ctx, "k"); err != nil || got.Size != 3 {
				t.Errorf("after restart Get = %+v, %v; want the size-3 entry recovered", got, err)
			}
			if n := api.Len(ctx); n != 1 {
				t.Errorf("after restart Len = %d, want 1", n)
			}
		})
	}
}

func TestBuildValidation(t *testing.T) {
	remote := []registry.API{registry.NewInstance(1, memcache.New(memcache.Config{}))}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"replication without shards", Config{Replication: 2}, "requires a sharded tier"},
		{"replication with one shard", Config{Shards: 1, Replication: 3}, "requires a sharded tier"},
		{"shards and remote", Config{Shards: 2, Remote: remote}, "mutually exclusive"},
		{"data dir with remote", Config{Remote: remote, DataDir: t.TempDir()}, "data dir"},
		{"feed with remote", Config{Remote: remote, Feed: true}, "change feed"},
		{"negative staleness", Config{NearCache: true, MaxStaleness: -time.Second}, "staleness"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			api, closeSite, err := Build(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build = %v, want an error mentioning %q", err, tc.want)
			}
			if api != nil || closeSite != nil {
				t.Error("a refused configuration still returned a deployment")
			}
		})
	}
	// An unopenable data dir is returned too, after closing what was built.
	if _, _, err := Build(Config{Shards: 2, DataDir: "/dev/null/not-a-dir"}); err == nil {
		t.Error("Build over an unusable data dir succeeded")
	}
}

// TestBuildRemoteTier routes over caller-owned shards: replication is allowed
// without in-process shards, and closing the site leaves the shards serving.
func TestBuildRemoteTier(t *testing.T) {
	var remote []registry.API
	for range 3 {
		remote = append(remote, registry.NewInstance(2, memcache.New(memcache.Config{})))
	}
	cfg := Config{Site: 2, Remote: remote, Replication: 2, NearCache: true}
	if want := "routing tier over 3 remote shards, 2-way replicated (all)"; !strings.HasPrefix(cfg.String(), want) {
		t.Errorf("String() = %q, want it to start with %q", cfg.String(), want)
	}
	api, closeSite, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.Create(ctx, entry("r", 1)); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, shard := range remote {
		copies += shard.Len(ctx)
	}
	if copies != 2 {
		t.Errorf("entry stored on %d remote shards, want 2", copies)
	}
	if err := closeSite(); err != nil {
		t.Fatal(err)
	}
	if _, err := remote[0].Put(ctx, entry("after-close", 1)); err != nil {
		t.Errorf("remote shard unusable after the site closed: %v", err)
	}
}

// TestBuildUsesStoreFactory pins the cache-tier seam: one store per shard,
// each from NewStore.
func TestBuildUsesStoreFactory(t *testing.T) {
	var built []*memcache.Cache
	api, closeSite, err := Build(Config{Site: cloud.SiteID(3), Shards: 3, NewStore: func() registry.Store {
		c := memcache.New(memcache.Config{})
		built = append(built, c)
		return c
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSite()
	if len(built) != 3 {
		t.Fatalf("NewStore called %d times, want once per shard (3)", len(built))
	}
	if _, err := api.Create(ctx, entry("s", 1)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range built {
		total += c.Len()
	}
	if total != 1 {
		t.Errorf("factory-built stores hold %d items, want 1", total)
	}
}
