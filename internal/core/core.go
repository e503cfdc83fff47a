// Package core implements the paper's primary contribution: multi-site
// metadata management strategies for geographically distributed cloud
// workflows.
//
// The package offers a single client-facing abstraction, MetadataService,
// with four interchangeable implementations corresponding to the strategies
// of Section IV of the paper:
//
//   - Centralized — a single registry instance in one datacenter, the
//     state-of-the-art baseline (e.g. an HDFS-style central metadata server);
//   - Replicated — one registry instance per datacenter, all holding the full
//     metadata set, kept in sync by a single Synchronization Agent;
//   - Decentralized (non-replicated) — one instance per datacenter, every
//     entry stored only at the site selected by hashing its name (DHT-style
//     partitioning);
//   - DecentralizedReplicated — the hybrid strategy: the hashed home site
//     plus a replica in the writer's local site, with lazy (batched,
//     eventually consistent) propagation.
//
// Strategies are built over a Fabric: the set of per-site registry instances
// plus the latency model of the multi-site cloud. The Controller switches
// between strategies at run time, mirroring the plug-and-play architecture
// controller of the paper's middleware (§V).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"geomds/internal/cloud"
	"geomds/internal/registry"
)

// StrategyKind enumerates the four metadata management strategies.
type StrategyKind int

const (
	// Centralized is the single-site, single-instance baseline (Fig. 2a).
	Centralized StrategyKind = iota
	// Replicated places one instance per site, synchronized by a single
	// agent (Fig. 2b).
	Replicated
	// Decentralized partitions entries across per-site instances by hashing,
	// without replication (Fig. 2c).
	Decentralized
	// DecentralizedReplicated partitions entries by hashing and additionally
	// keeps a replica in the writer's local site (Fig. 2d).
	DecentralizedReplicated
)

// Strategies lists every strategy in presentation order (the order used by
// the paper's figures).
var Strategies = []StrategyKind{Centralized, Replicated, Decentralized, DecentralizedReplicated}

// String returns the strategy's display name.
func (k StrategyKind) String() string {
	switch k {
	case Centralized:
		return "centralized"
	case Replicated:
		return "replicated"
	case Decentralized:
		return "decentralized-nonrep"
	case DecentralizedReplicated:
		return "decentralized-rep"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(k))
	}
}

// Short returns the abbreviation used in the paper's figures (C, R, DN, DR).
func (k StrategyKind) Short() string {
	switch k {
	case Centralized:
		return "C"
	case Replicated:
		return "R"
	case Decentralized:
		return "DN"
	case DecentralizedReplicated:
		return "DR"
	default:
		return "?"
	}
}

// ParseStrategy converts a user-supplied name (full or abbreviated,
// case-insensitive) into a StrategyKind.
func ParseStrategy(s string) (StrategyKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "centralized", "c", "central":
		return Centralized, nil
	case "replicated", "r", "rep":
		return Replicated, nil
	case "decentralized", "decentralized-nonrep", "dn", "dec", "dec-nonrep":
		return Decentralized, nil
	case "decentralized-rep", "dr", "dec-rep", "hybrid":
		return DecentralizedReplicated, nil
	default:
		return Centralized, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// Errors shared by every strategy implementation. Strategy operations report
// failures as *OpError values wrapping one of these sentinel causes (or a
// context error), so callers branch with errors.Is / errors.As instead of
// string matching.
var (
	// ErrNotFound is returned when a looked-up entry does not exist anywhere
	// the strategy is able (or allowed) to look.
	ErrNotFound = registry.ErrNotFound
	// ErrExists is returned when creating an entry whose name is taken.
	ErrExists = registry.ErrExists
	// ErrClosed is returned by operations on a closed service.
	ErrClosed = errors.New("core: metadata service closed")
	// ErrNoSuchSite is returned when an operation names a site outside the
	// fabric.
	ErrNoSuchSite = errors.New("core: site not part of the metadata fabric")
	// ErrSiteUnreachable is returned when the registry instance of a site
	// cannot be reached at all — a partitioned or crashed remote deployment —
	// as opposed to answering with a per-entry error. It is the core-level
	// name of registry.ErrUnavailable (rpc proxies report that sentinel on
	// transport failures), so errors.Is matches either spelling.
	ErrSiteUnreachable = registry.ErrUnavailable
)

// OpError describes the failure of one metadata operation: which operation,
// issued from which site, on which entry, and the underlying cause. It
// implements the errors.Unwrap contract, so errors.Is(err, ErrNotFound),
// errors.Is(err, context.DeadlineExceeded) and friends see through it; use
// errors.As to recover the structured fields.
type OpError struct {
	// Op is the operation that failed ("create", "lookup", "addlocation",
	// "flush").
	Op string
	// Site is the datacenter the operation was issued from.
	Site cloud.SiteID
	// Name is the entry the operation targeted; empty when the operation has
	// no single target (e.g. flush).
	Name string
	// Err is the underlying cause — one of the sentinel errors, a context
	// error, or a transport failure.
	Err error
}

// Error implements the error interface.
func (e *OpError) Error() string {
	if e.Name == "" {
		return fmt.Sprintf("core: %s from site %d: %v", e.Op, e.Site, e.Err)
	}
	return fmt.Sprintf("core: %s %q from site %d: %v", e.Op, e.Name, e.Site, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *OpError) Unwrap() error { return e.Err }

// opErr wraps err in an *OpError unless it is nil or already one (the
// innermost operation wins: it knows the site and entry best).
func opErr(op string, site cloud.SiteID, name string, err error) error {
	if err == nil {
		return nil
	}
	var oe *OpError
	if errors.As(err, &oe) {
		return err
	}
	return &OpError{Op: op, Site: site, Name: name, Err: err}
}

// MetadataService is the client-facing API of the metadata middleware. Every
// operation is issued *from* a site: the datacenter hosting the execution
// node performing it. Implementations charge the appropriate wide-area
// latency for any communication that leaves that site.
//
// Every operation takes a context.Context first. Deadlines and cancellation
// propagate all the way down: through the fabric's modelled WAN sleeps,
// through the per-site registry instances, and — when a site is backed by an
// rpc proxy — over the wire to the remote server, which abandons work whose
// client has given up. Operations report failures as *OpError values
// wrapping the sentinel causes (ErrNotFound, ErrExists, ErrClosed,
// ErrSiteUnreachable, context.DeadlineExceeded, ...).
//
// Following the paper's terminology, a "write" (Create) consists of a look-up
// to verify the entry does not already exist followed by the actual write,
// and a "read" (Lookup) queries the registry for an entry.
type MetadataService interface {
	// Kind identifies the strategy implemented by this service.
	Kind() StrategyKind

	// Create publishes a new metadata entry. It fails with ErrExists if an
	// entry with the same name is already visible to the caller's site.
	Create(ctx context.Context, from cloud.SiteID, e registry.Entry) (registry.Entry, error)

	// Lookup retrieves the entry with the given name. Under eventually
	// consistent strategies a recently created entry may not yet be visible
	// from every site, in which case Lookup returns ErrNotFound.
	Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error)

	// AddLocation records an additional copy of the named file.
	AddLocation(ctx context.Context, from cloud.SiteID, name string, loc registry.Location) (registry.Entry, error)

	// Flush forces any pending asynchronous propagation (sync-agent rounds,
	// lazy batches, relayed feed events) to complete, bringing every site up
	// to date. It is a no-op for strategies without asynchronous machinery.
	// A nil error means every update committed before the call is visible
	// wherever the strategy replicates it. A site that could not be updated
	// (ErrSiteUnreachable) or a cancelled context, which aborts the round
	// mid-fan-out, fails the Flush; the updates that were not delivered stay
	// queued for the next round. On a closed service Flush returns an error
	// wrapping ErrClosed.
	Flush(ctx context.Context) error

	// Close releases background resources (agents, propagators). The service
	// must not be used afterwards. Close takes no context: it must always be
	// able to run to completion during teardown. A strategy that flushes on
	// close returns that flush's error: the updates it names were dropped.
	Close() error
}

// Client binds a MetadataService to one execution node, providing the
// node-local view used by workflow tasks: every operation is issued from the
// node's site.
type Client struct {
	svc  MetadataService
	node cloud.Node
}

// NewClient returns a client issuing operations from the given node.
func NewClient(svc MetadataService, node cloud.Node) *Client {
	return &Client{svc: svc, node: node}
}

// PublishFile creates a metadata entry for a file produced by the node.
func (c *Client) PublishFile(ctx context.Context, name string, size int64, producer string) (registry.Entry, error) {
	loc := registry.Location{Site: c.node.Site, Node: c.node.ID}
	return c.svc.Create(ctx, c.node.Site, registry.NewEntry(name, size, producer, loc))
}

// LocateFile looks up the metadata entry of a file.
func (c *Client) LocateFile(ctx context.Context, name string) (registry.Entry, error) {
	return c.svc.Lookup(ctx, c.node.Site, name)
}

// RegisterCopy records that this node now holds a copy of the file.
func (c *Client) RegisterCopy(ctx context.Context, name string) (registry.Entry, error) {
	loc := registry.Location{Site: c.node.Site, Node: c.node.ID}
	return c.svc.AddLocation(ctx, c.node.Site, name, loc)
}
