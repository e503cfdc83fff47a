// Command metaserver runs one metadata registry deployment as a stand-alone
// TCP server — the per-datacenter registry of the paper, as a separate
// process. The deployment behind the served API is a site.Config filled from
// the flags and assembled by site.Build:
//
//   - the default is a single registry instance on one cache;
//   - -shards N serves a horizontally sharded tier: N instances, each on its
//     own cache, behind a consistent-hash router (single-key
//     operations route to the owning shard, bulk operations split into one
//     concurrent sub-batch per shard);
//   - -shard-addrs a,b,c serves a pure routing tier: the shards are other
//     metaserver processes (typically plain single-instance ones) reached
//     over RPC, so one site scales across machines;
//   - -replication R (with either tier) stores every key on R shards of the
//     tier: writes fan out to all R replicas (-write-concern all|quorum),
//     reads fail over down the replica list, and a per-shard health breaker
//     plus background probe keeps routing away from crashed shards until a
//     re-sync sweep repairs them — the site serves its whole key range
//     through the loss of any R-1 shards;
//   - -data-dir D persists the registry to a write-ahead log
//     under D (one shard-<i> subdirectory per shard with -shards) and
//     recovers it on the next start, so acknowledged writes survive a crash.
//     -fsync picks the log's sync policy: always (every append, the
//     default) or never (only at snapshot and shutdown). A replicated tier
//     repairs a restarted durable shard from its recovered state — only the
//     writes it missed are replayed, not the whole key range;
//   - -feed publishes every committed put and delete on a change feed that
//     clients stream with the Watch protocol (metactl watch). Durable
//     instances reuse the WAL's sequence numbers, so resume tokens survive
//     restarts; with -shards the per-shard feeds are relayed into one
//     combined feed. -feed-capacity bounds the retained event window a
//     disconnected watcher can resume inside before the snapshot fallback
//     kicks in. -feed does not compose with -shard-addrs: remote shard
//     processes own their feeds, watch them directly;
//   - -cache serves reads through a feed-coherent near cache
//     (internal/readcache) in front of the deployment, so hot keys skip the
//     registry instance and, behind a routing tier, the extra network hop.
//     With -feed the cache is push-invalidated by the change feed and serves
//     through (uncached, never stale) whenever its feed stream is down;
//     without -feed it bounds staleness by the -cache-staleness TTL instead. The readcache hit/miss/invalidation
//     counters and occupancy gauge report to -metrics-addr, so `metactl
//     stats` shows the hit ratio;
//   - -tenant-config F enforces multi-tenant admission control from the JSON
//     file F: per-tenant token-bucket quotas on operations and payload bytes,
//     plus a server-wide in-flight cap that sheds load before any work is
//     queued. Over-limit requests are refused at the frame-decode boundary
//     with the "overloaded" wire code and a retry-after hint; requests
//     without a tenant ID are charged to the "default" tenant.
//     SIGHUP reloads the file in place (a broken file keeps the previous
//     limits). Per-tenant admission counters report to -metrics-addr.
//
// Usage:
//
//	metaserver -addr :7070 -site 1 -name "West Europe"
//	metaserver -addr :7070 -site 1 -shards 4
//	metaserver -addr :7070 -site 1 -shards 4 -replication 2
//	metaserver -addr :7070 -site 1 -shards 4 -data-dir /var/lib/geomds
//	metaserver -addr :7070 -site 1 -shard-addrs 10.0.0.1:7071,10.0.0.2:7071
//	metaserver -addr :7070 -site 1 -metrics-addr :9090
//
// Clients (cmd/metactl, cmd/wfrun, or the core strategies via rpc.Dial)
// connect to the printed address and cannot tell the three deployments
// apart.
//
// With -metrics-addr the server additionally exposes its live metrics over
// HTTP: GET /metrics serves the Prometheus text format, GET /metrics.json a
// JSON snapshot, and GET /trace.json the most recent per-operation trace
// events. The exported series cover the RPC server (dispatched, abandoned,
// per-code error counts, in-flight requests) and the cache tier behind the
// registry (hit rate, occupancy, resident and dead bytes). `metactl stats
// -metrics-addr` renders the same data in the terminal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/metrics"
	"geomds/internal/rpc"
	"geomds/internal/site"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "metaserver: %v\n", err)
		os.Exit(1)
	}
}

// run serves one registry deployment until stop delivers SIGINT or SIGTERM
// (SIGHUP reloads -tenant-config). The two address lines go to stdout, logs
// to stderr.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	// The server process owns its registry of live instruments; the RPC
	// server, the router and the cache tier report to it, and -metrics-addr
	// exposes it.
	reg := metrics.NewRegistry()
	cfg := site.Config{Metrics: reg}

	fs := flag.NewFlagSet("metaserver", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7070", "address to listen on")
		siteID      = fs.Int("site", 0, "site ID this registry instance serves")
		name        = fs.String("name", "", "human-readable site name (informational)")
		shardAddrs  = fs.String("shard-addrs", "", "serve a routing tier over these comma-separated remote shard servers instead of local instances")
		inflight    = fs.Int("inflight", rpc.DefaultMaxInflight, "max pipelined requests one connection may execute concurrently")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus (/metrics) and JSON (/metrics.json, /trace.json) metrics on this address; empty disables")
		tenantCfg   = fs.String("tenant-config", "", "enforce per-tenant admission control from this JSON config (token-bucket quotas, load shedding); SIGHUP reloads it without dropping connections")
	)
	fs.IntVar(&cfg.Shards, "shards", 1, "serve a sharded tier of this many in-process registry instances behind a router (1 = single instance)")
	fs.IntVar(&cfg.Replication, "replication", 1, "store every key on this many shards of the tier (writes fan out, reads fail over; 1 = single-home placement)")
	fs.Var(&cfg.WriteConcern, "write-concern", "replicated-write acknowledgement rule: all (every replica, the default) or quorum (majority)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "persist the registry to a write-ahead log under this directory and recover from it on start; empty keeps the registry in memory")
	fs.Var(&cfg.Fsync, "fsync", "write-ahead log fsync policy with -data-dir: always (sync every append, the default) or never (sync only at snapshot and shutdown)")
	fs.BoolVar(&cfg.Feed, "feed", false, "publish every committed put and delete on a change feed served to Watch subscribers (metactl watch)")
	fs.IntVar(&cfg.FeedCapacity, "feed-capacity", feed.DefaultCapacity, "events the change feed retains for resuming watchers; older cursors take the snapshot fallback")
	fs.BoolVar(&cfg.NearCache, "cache", false, "serve reads through a feed-coherent near cache in front of the deployment; coherent via the change feed with -feed, TTL-bounded without it")
	fs.DurationVar(&cfg.MaxStaleness, "cache-staleness", 0, "max staleness the near cache may serve without a change feed (0 = the readcache default; ignored with -feed, where the feed is the bound)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Site = cloud.SiteID(*siteID)

	logger := log.New(os.Stderr, "metaserver: ", log.LstdFlags)

	for _, a := range strings.Split(*shardAddrs, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		// A fresh context per dial: a tier of many (or slow) shards must not
		// fail startup because earlier dials consumed one shared budget.
		dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		client, err := rpc.Dial(dialCtx, a, rpc.WithMetrics(reg))
		cancel()
		if err != nil {
			return fmt.Errorf("dial shard %s: %w", a, err)
		}
		defer client.Close()
		cfg.Remote = append(cfg.Remote, client)
	}
	if *shardAddrs != "" && len(cfg.Remote) == 0 {
		// A stray comma from templating must not turn a routing tier into
		// an empty local registry.
		return errors.New("-shard-addrs names no shard")
	}

	api, closeSite, err := site.Build(cfg)
	if err != nil {
		return err
	}
	// Registered first, so it runs after the RPC server has stopped: the
	// logs are flushed and fsynced even under -fsync=never.
	defer func() {
		if err := closeSite(); err != nil {
			logger.Printf("closing registry: %v", err)
		}
	}()
	if cfg.DataDir != "" {
		logger.Printf("recovered %d entries from %s", api.Len(context.Background()), cfg.DataDir)
	}
	deployment := cfg.String()

	// -tenant-config arms admission control: every request is charged against
	// its tenant's token buckets before any registry work, and SIGHUP swaps in
	// an edited config without restarting (accumulated tokens carry over).
	var limiter *limits.Limiter
	serverOpts := []rpc.ServerOption{rpc.WithMaxInflight(*inflight), rpc.WithServerMetrics(reg)}
	if *tenantCfg != "" {
		lcfg, err := limits.LoadConfig(*tenantCfg)
		if err != nil {
			return fmt.Errorf("-tenant-config: %w", err)
		}
		limiter = limits.New(lcfg, reg)
		serverOpts = append(serverOpts, rpc.WithServerLimits(limiter))
		deployment += ", admission control"
	}
	srv := rpc.NewServer(api, logger, serverOpts...)

	bound, err := srv.Start(*addr)
	if err != nil {
		return fmt.Errorf("start: %w", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
	}()
	label := *name
	if label == "" {
		label = fmt.Sprintf("site-%d", cfg.Site)
	}
	fmt.Fprintf(stdout, "metadata registry for %s (site %d, %s) listening on %s\n", label, cfg.Site, deployment, bound)

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		metricsSrv := &http.Server{Handler: metrics.Handler(reg)}
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server stopped: %v", err)
			}
		}()
		defer func() {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			metricsSrv.Shutdown(shutdownCtx) //nolint:errcheck // best effort during teardown
			cancel()
		}()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics (Prometheus), /metrics.json, /trace.json\n", ln.Addr())
	}

	// Periodically report the instance's size so operators can watch growth.
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			logger.Printf("entries=%d requests=%d abandoned=%d", api.Len(context.Background()), srv.Requests(), srv.Abandoned())
		case s := <-stop:
			if s != syscall.SIGHUP {
				logger.Printf("received %v, shutting down", s)
				return nil
			}
			// Reload the tenant config in place; a broken file keeps the
			// previous limits rather than dropping protection.
			if limiter == nil {
				logger.Printf("received SIGHUP, no -tenant-config to reload")
				continue
			}
			lcfg, err := limits.LoadConfig(*tenantCfg)
			if err != nil {
				logger.Printf("reload -tenant-config: %v (keeping previous limits)", err)
				continue
			}
			limiter.UpdateConfig(lcfg)
			logger.Printf("reloaded %s: %d tenant overrides, max inflight %d", *tenantCfg, len(lcfg.Tenants), lcfg.MaxInflight)
		}
	}
}
