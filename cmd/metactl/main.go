// Command metactl is a small client for a running metadata registry server
// (cmd/metaserver). It is the operator's tool for inspecting and manipulating
// registry entries.
//
// Usage:
//
//	metactl -addr 127.0.0.1:7070 put  <name> <size> <site> [node]
//	metactl -addr 127.0.0.1:7070 get  <name>
//	metactl -addr 127.0.0.1:7070 del  <name> [name...]
//	metactl -addr 127.0.0.1:7070 ls
//	metactl -addr 127.0.0.1:7070 stat
//	metactl -addr 127.0.0.1:7070 watch [prefix]
//	metactl -addr 127.0.0.1:7070 -from 1500 watch
//	metactl -metrics-addr 127.0.0.1:9090 stats
//	metactl -shard-addrs 127.0.0.1:7071,127.0.0.1:7072 ls
//
// The watch command streams the server's change feed: every committed put
// and delete, live, one line per event, until interrupted. -from resumes
// after a previous sequence number (the last printed seq is the resume
// token); a cursor older than the server's retained window is served by a
// state snapshot followed by the live tail, unless -no-fallback asks for a
// hard feed.ErrCompacted failure instead. The server must run with change
// feeds enabled (metaserver -feed). With -shard-addrs, every shard server is
// watched directly and the streams are merged (events of a replicated tier
// then appear once per replica).
//
// With -shard-addrs, metactl targets a sharded site directly: it builds the
// same client-side routing tier a metaserver -shard-addrs process would, so
// every command works against the shard servers without a routing process in
// between (single-key commands go to the owning shard, del with many names
// and ls fan out as one sub-batch per shard). Placement is derived from the
// listing order, so pass the addresses in the same order the site's routing
// tier uses — otherwise single-key commands consult the wrong shard. For a
// replicated tier, pass the deployment's -replication factor too so writes
// reach every replica and reads fail over the same way the server-side
// router does.
//
// Every invocation runs one command over one connection per server it dials;
// a watch stream rides a second connection of its own.
//
// The -timeout flag is a real per-operation deadline: it bounds the dial and
// each command's context, and the deadline is propagated over the wire so
// the server abandons work metactl has given up on. Exit codes distinguish
// the outcome: 0 success, 1 generic failure, 2 usage error, 3 entry not
// found, 4 deadline exceeded / cancelled, 5 overloaded (the server's
// admission control refused the request; the message carries the server's
// retry-after hint). The -tenant flag stamps every request with a tenant ID,
// charged against that tenant's budget on servers running -tenant-config.
//
// The stats command renders a running metaserver's live metrics — counters,
// gauges, latency histograms and the most recent per-operation trace events
// — by scraping the JSON endpoints the server exposes behind its
// -metrics-addr flag. It talks HTTP, not the registry RPC protocol, so it
// works (and exits with the usual codes) even when the registry port is
// saturated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/rpc"
	"geomds/internal/site"
)

// Exit codes; scripts branch on them instead of parsing messages.
const (
	exitUsage      = 2
	exitNotFound   = 3
	exitDeadline   = 4
	exitOverloaded = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one metactl invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("metactl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7070", "registry server address")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard server addresses; commands run against a client-side routing tier instead of -addr")
	replication := fs.Int("replication", 1, "replication factor of the sharded tier targeted via -shard-addrs (must match the deployment)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-operation deadline, propagated to the server")
	metricsAddr := fs.String("metrics-addr", "127.0.0.1:9090", "metaserver metrics endpoint (for the stats command)")
	traceN := fs.Int("trace", 15, "number of recent trace events the stats command renders (0 = none)")
	fromSeq := fs.Uint64("from", 0, "resume the watch command after this feed sequence number (0 = start of the retained window)")
	noFallback := fs.Bool("no-fallback", false, "fail the watch command when -from predates the retained window instead of falling back to snapshot+tail")
	tenant := fs.String("tenant", "", "tenant ID stamped on every request, charged against that tenant's admission budget on servers running -tenant-config (empty = the default tenant)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	args = fs.Args()
	if len(args) == 0 {
		return usage(stderr)
	}
	fail := func(err error) int { return report(stderr, err) }

	// opCtx returns a fresh deadline-bounded context per operation, so a slow
	// dial does not eat into the budget of the command that follows it.
	opCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), *timeout)
	}

	// stats talks HTTP to the metrics endpoint, not RPC to the registry; it
	// neither needs nor attempts the dial below.
	if args[0] == "stats" {
		ctx, cancel := opCtx()
		defer cancel()
		if err := renderStats(ctx, stdout, *metricsAddr, *traceN); err != nil {
			return fail(err)
		}
		return 0
	}

	// The context deadline is the per-operation bound; the transport timeout
	// stays strictly behind it so the deadline — with its precise error and
	// exit code — is what fires, and the transport backstop only catches a
	// truly hung connection. One command needs one connection: the pool's
	// others would only add dials.
	backstop := max(*timeout*2, 10*time.Second)
	dial := func(a string) (*rpc.Client, error) {
		dialCtx, cancel := opCtx()
		defer cancel()
		return rpc.Dial(dialCtx, a, rpc.WithPoolSize(1), rpc.WithTimeout(backstop), rpc.WithTenant(*tenant))
	}

	// The commands below run against one registry.API: a single server's
	// client, or — with -shard-addrs — a client-side routing tier over the
	// site's shard servers, as site.Build assembles it for metaserver.
	var (
		api     registry.API
		clients []*rpc.Client
		target  string
	)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	if *shardAddrs != "" {
		// Placement derives from the address order, so an undialable shard
		// keeps its slot: with replication Build marks it down and the
		// replicas carry its range; without replication there is nowhere
		// correct to re-route to, and the dial failure ends the command.
		cfg := site.Config{Replication: *replication}
		for _, a := range strings.Split(*shardAddrs, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			client, err := dial(a)
			if err != nil {
				if *replication > 1 {
					fmt.Fprintf(stderr, "metactl: shard %s unreachable, relying on its replicas: %v\n", a, err)
					cfg.Remote = append(cfg.Remote, nil)
					continue
				}
				return fail(err)
			}
			clients = append(clients, client)
			cfg.Remote = append(cfg.Remote, client)
		}
		if len(cfg.Remote) == 0 {
			fmt.Fprintln(stderr, "metactl: -shard-addrs contains no usable addresses")
			return exitUsage
		}
		if len(clients) > 0 {
			cfg.Site = clients[0].Site()
		}
		tier, closeTier, err := site.Build(cfg)
		if err != nil {
			return fail(err)
		}
		defer closeTier() //nolint:errcheck // a routing tier over remote shards closes nothing that can fail
		api, target = tier, cfg.String()
	} else {
		client, err := dial(*addr)
		if err != nil {
			return fail(err)
		}
		clients = []*rpc.Client{client}
		api = client
		target = client.Addr()
	}

	ctx, cancel := opCtx()
	defer cancel()

	switch args[0] {
	case "put":
		if len(args) < 4 {
			return usage(stderr)
		}
		size, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return fail(fmt.Errorf("size: %w", err))
		}
		site, err := strconv.Atoi(args[3])
		if err != nil {
			return fail(fmt.Errorf("site: %w", err))
		}
		node := int(registry.NoNode)
		if len(args) > 4 {
			if node, err = strconv.Atoi(args[4]); err != nil {
				return fail(fmt.Errorf("node: %w", err))
			}
		}
		e := registry.NewEntry(args[1], size, "metactl",
			registry.Location{Site: cloud.SiteID(site), Node: cloud.NodeID(node)})
		stored, err := api.Create(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "created %q version %d\n", stored.Name, stored.Version)

	case "get":
		if len(args) < 2 {
			return usage(stderr)
		}
		e, err := api.Get(ctx, args[1])
		if err != nil {
			return fail(err)
		}
		data, err := json.Marshal(e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(data))

	case "del":
		if len(args) < 2 {
			return usage(stderr)
		}
		if names := args[1:]; len(names) > 1 {
			// Many names travel as one DeleteMany frame (one sub-batch per
			// shard when targeting a sharded site).
			n, err := api.DeleteMany(ctx, names)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "deleted %d of %d entries\n", n, len(names))
		} else {
			if err := api.Delete(ctx, names[0]); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "deleted %q\n", names[0])
		}

	case "ls":
		entries, err := api.Entries(ctx)
		if err != nil {
			return fail(err)
		}
		for _, e := range entries {
			fmt.Fprintln(stdout, e.Name)
		}

	case "watch":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		if err := watchFeeds(stdout, stderr, clients, *fromSeq, prefix, *noFallback, opCtx); err != nil {
			return fail(err)
		}

	case "stat":
		// Ping first: Len is best-effort and reads 0 on failure, which must
		// not masquerade as an empty registry. Against a sharded site every
		// shard server is pinged and reported.
		for _, c := range clients {
			if err := c.Ping(ctx); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(stdout, "address: %s\nsite:    %d\nentries: %d\n", target, api.Site(), api.Len(ctx))
		if len(clients) > 1 {
			for _, c := range clients {
				fmt.Fprintf(stdout, "  shard %s: %d entries\n", c.Addr(), c.Len(ctx))
			}
		}

	default:
		return usage(stderr)
	}
	return 0
}

// watchFeeds opens one watch stream per client (one for -addr, one per shard
// for -shard-addrs), merges them, and prints each event as a line until the
// process is interrupted or every stream ends. The handshake is bounded by
// the per-operation deadline; the streams themselves live until interrupt.
func watchFeeds(stdout, stderr io.Writer, clients []*rpc.Client, from uint64, prefix string, noFallback bool, opCtx func() (context.Context, context.CancelFunc)) error {
	streams := make([]*rpc.WatchStream, 0, len(clients))
	defer func() {
		for _, s := range streams {
			s.Close()
		}
	}()
	for _, c := range clients {
		ctx, cancel := opCtx()
		stream, err := c.Watch(ctx, from, rpc.WatchOptions{Prefix: prefix, NoFallback: noFallback})
		cancel()
		if err != nil {
			return fmt.Errorf("watch %s: %w", c.Addr(), err)
		}
		streams = append(streams, stream)
		if stream.Fallback() {
			fmt.Fprintf(stderr, "metactl: cursor %d predates the retained window of %s; streaming a state snapshot before the live tail (resuming at seq %d)\n",
				from, c.Addr(), stream.StartSeq())
		}
	}

	type tagged struct {
		addr string
		ev   feed.Event
		live bool
		err  error
	}
	merged := make(chan tagged)
	for i, stream := range streams {
		go func(addr string, s *rpc.WatchStream) {
			for ev := range s.Events() {
				merged <- tagged{addr: addr, ev: ev, live: true}
			}
			merged <- tagged{addr: addr, err: s.Err()}
		}(clients[i].Addr(), stream)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(interrupt)
	shardTag := len(streams) > 1
	for remaining := len(streams); remaining > 0; {
		select {
		case <-interrupt:
			return nil
		case m := <-merged:
			if !m.live {
				remaining--
				if m.err != nil {
					return fmt.Errorf("watch %s: %w", m.addr, m.err)
				}
				continue
			}
			op := "put"
			if m.ev.Op == feed.OpDelete {
				op = "del"
			}
			var tags []string
			if shardTag {
				tags = append(tags, m.addr)
			}
			if m.ev.Origin != "" {
				tags = append(tags, m.ev.Origin)
			}
			if m.ev.Sync {
				tags = append(tags, "sync")
			}
			suffix := ""
			if len(tags) > 0 {
				suffix = "  (" + strings.Join(tags, ", ") + ")"
			}
			fmt.Fprintf(stdout, "%8d  %s  %s%s\n", m.ev.Seq, op, m.ev.Name, suffix)
		}
	}
	return nil
}

// renderStats scrapes the metaserver's metrics endpoint and renders the
// snapshot plus the most recent trace events.
func renderStats(ctx context.Context, stdout io.Writer, metricsAddr string, traceN int) error {
	base := "http://" + metricsAddr
	var snap metrics.Snapshot
	if err := getJSON(ctx, base+"/metrics.json", &snap); err != nil {
		return fmt.Errorf("scrape %s: %w (is metaserver running with -metrics-addr?)", base, err)
	}
	var events []metrics.TraceEvent
	if traceN > 0 {
		if err := getJSON(ctx, fmt.Sprintf("%s/trace.json?n=%d", base, traceN), &events); err != nil {
			return fmt.Errorf("scrape %s/trace.json: %w", base, err)
		}
	}
	fmt.Fprintf(stdout, "metrics from %s:\n%s", base, metrics.RenderReport(snap, events))
	// The near-cache counters render above with everything else; the ratio
	// operators actually watch is derived here so nobody does the division
	// in their head.
	hits, misses := snap.Counters["readcache_hits_total"], snap.Counters["readcache_misses_total"]
	if reads := hits + misses; reads > 0 {
		fmt.Fprintf(stdout, "near cache hit ratio: %.1f%% (%d of %d reads)\n",
			100*float64(hits)/float64(reads), hits, reads)
	}
	// Same derivation for admission control: the raw limits_* series render
	// above, the summary says at a glance whether tenants are being refused
	// and why.
	admitted, rejected := snap.Counters["limits_admitted_total"], snap.Counters["limits_rejected_total"]
	if total := admitted + rejected; total > 0 {
		fmt.Fprintf(stdout, "admission: %d of %d requests rejected (%.1f%%; rate %d, bytes %d, shed %d)\n",
			rejected, total, 100*float64(rejected)/float64(total),
			snap.Counters["limits_rejected_rate_total"],
			snap.Counters["limits_rejected_bytes_total"],
			snap.Counters["limits_rejected_inflight_total"])
	}
	return nil
}

// getJSON fetches one endpoint and decodes its JSON body into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// usage prints the command synopsis and returns the usage exit code.
func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: metactl [-addr host:port | -shard-addrs a,b,c [-replication r]] [-timeout d] <command>

commands:
  put <name> <size> <site> [node]   publish a metadata entry
  get <name>                        print an entry as JSON
  del <name> [name...]              delete entries (many names go as one batch)
  ls                                list entry names
  stat                              print server statistics
  watch [prefix]                    stream the change feed (requires
                                    metaserver -feed; see -from, -no-fallback)
  stats                             render live metrics from -metrics-addr
                                    (requires metaserver -metrics-addr; see
                                    also -trace to bound the event listing)

exit codes: 0 ok, 1 error, 2 usage, 3 not found, 4 deadline exceeded,
            5 overloaded (admission control refused the request)`)
	return exitUsage
}

// exitCodeFor maps a command failure to its exit code. Deadline beats
// overloaded: a request the server refused *and* the client gave up on is,
// to the script, a timeout first.
func exitCodeFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitDeadline
	case errors.Is(err, limits.ErrOverloaded):
		return exitOverloaded
	case errors.Is(err, registry.ErrNotFound):
		return exitNotFound
	default:
		return 1
	}
}

// report prints the failure and returns an exit code that tells "the entry is
// not there" apart from "the server did not answer in time" apart from "the
// server refused the request under admission control".
func report(stderr io.Writer, err error) int {
	code := exitCodeFor(err)
	switch code {
	case exitDeadline:
		fmt.Fprintf(stderr, "metactl: deadline exceeded: %v\n", err)
	case exitOverloaded:
		if d, ok := limits.RetryAfter(err); ok && d > 0 {
			fmt.Fprintf(stderr, "metactl: overloaded, retry in %s: %v\n", d, err)
		} else {
			fmt.Fprintf(stderr, "metactl: overloaded: %v\n", err)
		}
	case exitNotFound:
		fmt.Fprintf(stderr, "metactl: not found: %v\n", err)
	default:
		fmt.Fprintf(stderr, "metactl: %v\n", err)
	}
	return code
}
