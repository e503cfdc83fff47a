package site

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/rpc"
	"geomds/internal/store"
)

var ctx = context.Background()

func entry(name string, size int64) registry.Entry {
	return registry.NewEntry(name, size, "site-test", registry.Location{Site: 1, Node: 1})
}

// TestBuild drives every shape of deployment through the same contract: the
// stack is of the expected type, a Get returns the version the last Put
// acknowledged (through a feed-invalidated near cache too, whose feed
// invalidations are done when the write returns), and durable shapes recover
// after close.
func TestBuild(t *testing.T) {
	rows := []struct {
		name string
		cfg  Config
		want string // type of the served API
		says string // the end of the one-line description
	}{
		{"single", Config{}, "*registry.Instance", "single instance"},
		{"single+durable+feed", Config{DataDir: "x", Feed: true}, "*registry.Instance", "change feed (last 4096 events retained)"},
		{"sharded", Config{Shards: 4}, "*registry.Router", "sharded tier of 4 instances"},
		{"sharded+replicated+durable+feed", Config{Shards: 4, Replication: 2,
			DataDir: "x", Fsync: store.FsyncAlways, Feed: true, FeedCapacity: 128}, "*registry.Router",
			"(fsync=always), change feed (last 128 events retained)"},
		{"sharded+replicated+durable+feed+near cache", Config{Shards: 4, Replication: 2,
			DataDir: "x", Feed: true, NearCache: true}, "*readcache.Cache", "near cache (feed-coherent)"},
		{"near cache without feed", Config{NearCache: true, MaxStaleness: time.Minute}, "*readcache.Cache",
			"near cache (staleness <= 1m0s; run -feed for push invalidation)"},
		{"remote+near cache", Config{Remote: []registry.API{
			registry.NewInstance(7, memcache.New(memcache.Config{})),
			registry.NewInstance(7, memcache.New(memcache.Config{})),
		}, NearCache: true, MaxStaleness: time.Minute}, "*readcache.Cache",
			"routing tier over 2 remote shards, near cache (staleness <= 1m0s)"},
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
			if len(cfg.Remote) > 0 && strings.Contains(cfg.String(), "-feed") {
				t.Errorf("String() = %q advises -feed, which Validate refuses for a remote tier", cfg.String())
			}
			if api.Site() != 7 {
				t.Errorf("Site() = %d, want 7", api.Site())
			}
			if r, ok := api.(*registry.Router); ok && (len(r.Shards()) != cfg.Shards || r.Replication() != max(cfg.Replication, 1)) {
				t.Errorf("router has %d shards, replication %d; want %d, %d", len(r.Shards()), r.Replication(), cfg.Shards, cfg.Replication)
			}

			var acked uint64
			cache, _ := api.(*readcache.Cache)
			for i := int64(1); i <= 3; i++ {
				stored, err := api.Put(ctx, entry("k", i))
				if err != nil {
					t.Fatal(err)
				}
				acked = stored.Version
				if cache != nil && cfg.Feed {
					// The write-through invalidation and one feed event per
					// replica, all done when the write returned.
					if got, want := cache.Stats().Invalidations, i*int64(1+max(cfg.Replication, 1)); got != want {
						t.Errorf("after put %d: %d invalidations, want %d", i, got, want)
					}
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
		{"undialed remote shard without replication", Config{Remote: append(remote, nil)}, "needs replication > 1"},
		{"no remote shard dialed", Config{Remote: []registry.API{nil, nil}, Replication: 2}, "no remote shard"},
		{"negative staleness", Config{NearCache: true, MaxStaleness: -time.Second}, "staleness"},
		{"negative feed capacity", Config{Feed: true, FeedCapacity: -5}, "feed capacity"},
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
	// A data dir of storage generation 1 (a log directory per shard) is
	// refused before anything is opened.
	old := t.TempDir()
	if err := os.Mkdir(filepath.Join(old, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(Config{Shards: 2, DataDir: old}); !errors.Is(err, store.ErrGeneration) {
		t.Errorf("Build over a generation-1 data dir: err = %v, want store.ErrGeneration", err)
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
	if want := "routing tier over 3 remote shards, 2-way replicated, "; !strings.HasPrefix(cfg.String(), want) {
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

// TestBuildKeepsAnUndialedShardsSlot: a nil remote shard keeps its slot in
// the placement, marked down, and its replicas serve its range; the caller's
// slice is left as it was.
func TestBuildKeepsAnUndialedShardsSlot(t *testing.T) {
	remote := []registry.API{registry.NewInstance(2, memcache.New(memcache.Config{})), nil, registry.NewInstance(2, memcache.New(memcache.Config{}))}
	api, closeSite, err := Build(Config{Site: 2, Remote: remote, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSite() //nolint:errcheck // remote shards are the test's
	if down := api.(*registry.Router).DownShards(); fmt.Sprint(down) != "[1]" {
		t.Errorf("down shards %v, want [1]", down)
	}
	for i := range 8 {
		name := fmt.Sprintf("undialed/%d", i)
		if _, err := api.Create(ctx, entry(name, 1)); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := api.Get(ctx, name); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}
	if remote[1] != nil {
		t.Errorf("Build replaced the caller's nil shard with %T", remote[1])
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

// TestBuildShardedFeedHonoursCapacityAndMetrics: a sharded tier's watchers
// subscribe to the router's relay, so the relay is the log that retains
// FeedCapacity events and reports the feed series — each event once, and the
// watchers, not the shards' plumbing, as subscribers.
func TestBuildShardedFeedHonoursCapacityAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	api, closeSite, err := Build(Config{Site: 7, Shards: 4, Replication: 2, Feed: true, FeedCapacity: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSite()
	srv := rpc.NewServer(api, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	watcher, err := client.Watch(ctx, 0, rpc.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	const puts = 12
	for i := range puts {
		if _, err := client.Put(ctx, entry(fmt.Sprintf("k%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	head := api.(registry.ChangeFeeder).ChangeFeed().Seq()
	if head != 2*puts {
		t.Fatalf("relay head %d after %d acknowledged R=2 puts, want %d", head, puts, 2*puts)
	}
	if _, err := client.Watch(ctx, head-17, rpc.WatchOptions{NoFallback: true}); !errors.Is(err, feed.ErrCompacted) {
		t.Errorf("watch from 17 events back: err = %v, want feed.ErrCompacted (FeedCapacity 16)", err)
	}
	resumed, err := client.Watch(ctx, head-16, rpc.WatchOptions{NoFallback: true})
	if err != nil {
		t.Fatalf("watch from 16 events back: %v", err)
	}
	defer resumed.Close()
	snap := reg.Snapshot()
	if got := snap.Counters["feed_events_total"]; got != 2*puts {
		t.Errorf("feed_events_total = %d, want %d: one per replica, counted once", got, 2*puts)
	}
	if got := snap.Gauges["feed_subscribers"]; got != 2 {
		t.Errorf("feed_subscribers = %d, want the 2 watchers", got)
	}
}

// putManyFrames returns n bulk-write frames of 256 distinct entries each.
func putManyFrames(n int) [][]registry.Entry {
	out := make([][]registry.Entry, n)
	for f := range out {
		out[f] = make([]registry.Entry, 256)
		for i := range out[f] {
			out[f][i] = entry(fmt.Sprintf("data/f%07d", f*256+i), 1)
		}
	}
	return out
}

// TestNearCacheKeepsUpWithBulkLoad: a bulk load through a sharded, feeding,
// near-cached site ends with no flush and the cache caching: the cache
// observes the relay, so it opens no subscription that a burst could lag.
func TestNearCacheKeepsUpWithBulkLoad(t *testing.T) {
	reg := metrics.NewRegistry()
	api, closeSite, err := Build(Config{Site: 7, Shards: 4, Feed: true, NearCache: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSite()
	const frames = 64
	for _, frame := range putManyFrames(frames) {
		if _, err := api.PutMany(ctx, frame); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := api.Get(ctx, "data/f0000042"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["readcache_flushes_total"]; got != 0 {
		t.Errorf("readcache_flushes_total = %d after %d frames of 256, want 0", got, frames)
	}
	if got := snap.Counters["readcache_hits_total"]; got != 1 {
		t.Errorf("readcache_hits_total = %d after reading a key twice, want 1", got)
	}
	if got := snap.Gauges["feed_subscribers"]; got != 0 {
		t.Errorf("feed_subscribers = %d with no watcher, want 0", got)
	}
}

// TestNearCacheAndTailShareOneLog: a sharded, replicated, near-cached site's
// log has two observers, the near cache and a Tail observer attached after it
// (a served watch's). Each of 200 rewrites of one name reads back through the
// cache at its new version, and the tail has seen its event by the time the
// write returns: adding the second observer replaced neither.
func TestNearCacheAndTailShareOneLog(t *testing.T) {
	api, closeSite, err := Build(Config{Site: 7, Shards: 3, Replication: 2, Feed: true, NearCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSite()
	var tailed []int64
	detach, err := api.(registry.ChangeFeeder).ChangeFeed().Tail(0, func(ev *feed.Event) {
		if ev == nil || ev.Op != feed.OpPut {
			return
		}
		e, err := registry.DecodeEntry(ev.Value)
		if err != nil {
			t.Errorf("tailed event: %v", err)
			return
		}
		tailed = append(tailed, e.Size)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	for round := int64(1); round <= 200; round++ {
		stored, err := api.Put(ctx, entry("shared", round))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := api.Get(ctx, "shared"); err != nil || got.Version != stored.Version || got.Size != round {
			t.Fatalf("round %d: read version %d size %d (%v) right after writing version %d", round, got.Version, got.Size, err, stored.Version)
		}
		if n := len(tailed); n == 0 || tailed[n-1] != round {
			t.Fatalf("round %d: the tail has seen %d puts, the last of size %v", round, n, tailed[max(n-1, 0):])
		}
	}
}

// BenchmarkNearCachePutMany256 times a 256-entry bulk write through the
// 4-shard feeding, near-cached site hot_read serves, in ns per entry: the
// router's fan-out, the shards' stores and feeds, the relay and the near
// cache's invalidations. It cycles over 64 frames of distinct keys, so after
// the first pass each write replaces an entry.
func BenchmarkNearCachePutMany256(b *testing.B) {
	api, closeSite, err := Build(Config{Site: 7, Shards: 4, Feed: true, NearCache: true})
	if err != nil {
		b.Fatal(err)
	}
	defer closeSite()
	frames := putManyFrames(64)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := api.PutMany(ctx, frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/entry")
}
