// Package geomds is a Go reproduction of "Towards Multi-site Metadata
// Management for Geographically Distributed Cloud Workflows"
// (Pineda-Morales, Costan, Antoniu — IEEE CLUSTER 2015).
//
// The repository provides, under internal/, a multi-site cloud model with
// WAN latency injection (cloud, latency), an in-memory cache tier modelled
// after a managed cloud cache (memcache), a metadata registry built on it
// (registry, dht), the paper's four metadata management strategies and their
// supporting machinery (core), a TCP transport to run registry instances as
// separate processes — with connection pooling, request pipelining and batch
// frames that carry many registry operations per round trip (rpc; the frame
// spec lives in docs/WIRE.md) — a workflow DAG model and execution engine
// (workflow), the paper's synthetic and real-life workloads (workloads), and
// one harness per table and figure of the evaluation (experiments). The
// package map and layer diagram live in docs/ARCHITECTURE.md.
//
// # Sharded per-site registry tier
//
// A site's registry deployment is not limited to one instance: registry.Router
// implements registry.API over N shard instances — in-process or remote rpc
// proxies — routing single-key operations to the shard owning the key and
// splitting bulk operations into one concurrent sub-batch per shard over a
// shard set fixed at construction. A site — cache
// tier, instance(s) with their write-ahead log and change feed, router, near
// cache — is assembled in one place, site.Build, from one plain site.Config:
// core.WithSite shapes every fabric site with it, metaserver fills it from
// its flags (-shards / -shard-addrs serve a sharded tier over TCP), and
// metasim / wfrun decode their site flags onto the same struct
// (docs/ARCHITECTURE.md, "Assembling a site" and "The shard-router layer").
//
// Placement can be replicated: registry.WithRouterReplication(r)
// (site.Config.Replication, metaserver -replication) stores every key on
// the first r distinct shards of its consistent-hash successor list —
// a write succeeds only when all r replicas acknowledge it,
// reads fail over down the replica list, and a per-shard health breaker
// with a background probe routes around crashed shards until an automatic
// re-sync sweep repairs them, so a site serves its whole key range through
// the loss of any r-1 shards. registry.TestRouterReplicatedKillUnderLoad
// kills a shard under eight callers to check it: no read fails and no
// acknowledged write is lost.
//
// # Context-first API
//
// The metadata stack is context-first end to end: every operation on
// registry.API, core.MetadataService, the core.Client session wrapper and
// rpc.Client takes a context.Context as its first parameter. Deadlines and
// cancellation propagate through every layer — a cancelled caller unblocks
// from the modelled WAN sleeps of the latency model, retires its pipelined
// RPC without disturbing the other requests in flight on the same
// connection, and (via the relative time budget carried in the rpc frame
// header, Header.TimeoutNs) makes the remote server abandon work the client
// has given up on. Failures are typed: strategy operations return
// *core.OpError values wrapping sentinel causes (core.ErrNotFound,
// core.ErrExists, core.ErrClosed, core.ErrSiteUnreachable,
// context.DeadlineExceeded), so callers branch with errors.Is and recover
// structured detail with errors.As; over the wire the causes round-trip as
// structured code+message frames (docs/WIRE.md lists the code table), and
// cmd/metactl folds them into exit codes (0 ok, 1 error, 2 usage, 3 not
// found, 4 deadline exceeded).
//
// # Live observability
//
// Every hot path reports to a metrics.Registry of named counters, gauges
// and streaming histograms plus a bounded trace ring of recent per-op
// events: the rpc client and server, the cache tier, all four strategies
// (via their shared fabric), the lazy propagator, the synchronization agent
// and the workflow engine. cmd/metaserver exports the registry over HTTP
// (-metrics-addr: Prometheus text at /metrics, JSON at /metrics.json and
// /trace.json), cmd/metactl renders it in the terminal (the stats command),
// and cmd/metasim / cmd/wfrun print live statistics with -stats. See
// docs/ARCHITECTURE.md for the full series catalogue.
//
// Executables live under cmd/ (metasim, metaserver, metactl, wfrun), runnable
// examples under examples/, and the benchmark suite that regenerates every
// table and figure lives in bench_test.go at the repository root.
package geomds
