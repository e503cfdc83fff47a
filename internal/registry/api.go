package registry

import (
	"context"

	"geomds/internal/cloud"
)

// API is the operation set the multi-site metadata strategies require from a
// registry instance. It is satisfied both by the in-process *Instance (the
// instance co-located with the strategy logic, used by simulations and
// benchmarks) and by the rpc.Client remote proxy (a registry instance running
// as a separate process, reached over TCP), so the same strategy code drives
// either deployment.
//
// Every operation takes a context.Context as its first parameter. The context
// carries per-operation deadlines and cancellation: a caller that gives up —
// because its own client disconnected, its deadline passed, or its service is
// shutting down — unblocks immediately instead of waiting out a slow or
// partitioned instance. Implementations must return promptly with an error
// wrapping ctx.Err() once the context is done; the remote proxy additionally
// propagates the deadline over the wire so the server can abandon work whose
// client has given up. Site is exempt: it is a static attribute of the
// instance, resolved at construction (or dial) time, not an operation.
type API interface {
	// Site returns the datacenter this instance serves. It is a static
	// attribute, not a remote operation, and therefore takes no context.
	Site() cloud.SiteID
	// Create publishes a new entry, failing with ErrExists if the name is taken.
	Create(ctx context.Context, e Entry) (Entry, error)
	// Put stores the entry unconditionally (upsert).
	Put(ctx context.Context, e Entry) (Entry, error)
	// Get returns the entry stored under name, or ErrNotFound.
	Get(ctx context.Context, name string) (Entry, error)
	// AddLocation records an additional copy of the named file.
	AddLocation(ctx context.Context, name string, loc Location) (Entry, error)
	// Delete removes the entry stored under name.
	Delete(ctx context.Context, name string) error
	// Entries returns every stored entry.
	Entries(ctx context.Context) ([]Entry, error)
	// GetMany returns the entries stored under the given names, skipping
	// absent ones; it is the bulk pull used by the synchronization agent.
	GetMany(ctx context.Context, names []string) ([]Entry, error)
	// PutMany upserts the whole batch in one bulk operation, returning the
	// stored entries in input order; it is the bulk push used by the
	// synchronization agent.
	PutMany(ctx context.Context, entries []Entry) ([]Entry, error)
	// DeleteMany removes the named entries in one bulk operation, skipping
	// absent ones, and returns how many were present; it is how deletions
	// are propagated between sites.
	DeleteMany(ctx context.Context, names []string) (int, error)
	// Merge upserts a batch of entries, unioning locations, and returns how
	// many entries were applied.
	Merge(ctx context.Context, entries []Entry) (int, error)
	// Len returns the number of stored entries (best-effort: zero on a
	// cancelled context or transport failure).
	Len(ctx context.Context) int
}

// Instance implements API.
var _ API = (*Instance)(nil)
