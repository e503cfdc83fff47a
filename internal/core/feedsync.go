package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// feedApplyBatch bounds how many combined feed events one apply round drains:
// a burst of local commits reaches the remote sites as a handful of bulk
// Merge/DeleteMany frames instead of one WAN exchange per event.
const feedApplyBatch = 64

// applyFunc applies one micro-batch of committed mutations that originated at
// site from to wherever the strategy replicates them, and returns how many
// entry applications actually changed remote state. Within a batch each name
// appears on only one side (the later of its put/delete events wins), so the
// callee can apply puts then deletes in either bulk call order.
type applyFunc func(ctx context.Context, from cloud.SiteID, puts []registry.Entry, dels []string) int

// feedSyncer replaces a strategy's polling agent with a push pipeline: it
// fans every site's change feed into one feed.Combiner and applies each event
// to the strategy's replica set as it arrives, instead of waiting for the
// next polling round. Durable sites contribute WAL sequence numbers, so the
// combiner's resume tokens survive instance restarts; a cursor that falls out
// of a feed's retention window takes the snapshot+tail fallback inside the
// combiner.
//
// Echo safety: applying a batch at a remote site republishes the mutations on
// that site's feed, so the syncer would see its own writes come back. Those
// events carry the Sync mark (set by the bulk-apply store path under the same
// commit lock) and the syncer skips them outright — no echo traffic, and no
// resurrection race where a stale echoed put lands after a later delete.
type feedSyncer struct {
	fabric *Fabric
	comb   *feed.Combiner
	apply  applyFunc
	cancel context.CancelFunc
	done   chan struct{}

	// feeders and origin map a combiner source name back to the site feed it
	// tails: heads for Flush catch-up, origin site for WAN modelling.
	feeders map[string]registry.ChangeFeeder
	origin  map[string]cloud.SiteID

	mu      sync.Mutex
	applied map[string]uint64 // source name -> last applied sequence
	closed  bool

	// Live instruments (nil when the fabric's instrumentation is off).
	lag      *metrics.Histogram // replication_lag_ns: event commit -> remote apply
	appliedC *metrics.Counter   // feed_applied_total: entry applications pushed
}

// newFeedSyncer subscribes to every fabric site's change feed and starts the
// apply loop. It fails with ErrNoFeed when any site exposes no feed.
func newFeedSyncer(fabric *Fabric, apply applyFunc) (*feedSyncer, error) {
	sources, err := fabric.FeedSources()
	if err != nil {
		return nil, err
	}
	fs := &feedSyncer{
		fabric:   fabric,
		apply:    apply,
		done:     make(chan struct{}),
		feeders:  make(map[string]registry.ChangeFeeder, len(sources)),
		origin:   make(map[string]cloud.SiteID, len(sources)),
		applied:  make(map[string]uint64, len(sources)),
		lag:      fabric.Metrics().Histogram("replication_lag_ns"),
		appliedC: fabric.Metrics().Counter("feed_applied_total"),
	}
	for i, site := range fabric.Sites() {
		feeder, err := fabric.Feed(site)
		if err != nil {
			return nil, err
		}
		fs.feeders[sources[i].Name] = feeder
		fs.origin[sources[i].Name] = site
	}
	fs.comb = feed.NewCombiner(sources,
		feed.WithCombinerMetrics(fabric.Metrics()),
		feed.WithCombinerBuffer(feedApplyBatch))
	ctx, cancel := context.WithCancel(context.Background())
	fs.cancel = cancel
	fs.comb.Start(ctx)
	go fs.consume(ctx)
	return fs, nil
}

// consume drains the combiner: it blocks for the first event, opportunistically
// gathers whatever else is already pending (up to feedApplyBatch), and applies
// the micro-batch grouped by origin site.
func (fs *feedSyncer) consume(ctx context.Context) {
	defer close(fs.done)
	for {
		var batch []feed.SourceEvent
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-fs.comb.Events():
			if !ok {
				return
			}
			batch = append(batch, ev)
		}
	drain:
		for len(batch) < feedApplyBatch {
			select {
			case ev, ok := <-fs.comb.Events():
				if !ok {
					fs.applyBatch(ctx, batch)
					return
				}
				batch = append(batch, ev)
			default:
				break drain
			}
		}
		fs.applyBatch(ctx, batch)
	}
}

// applyBatch groups the drained events by source, collapses per-name
// put/delete pairs to the later operation, pushes each group through the
// strategy's apply function, and advances the per-source cursors.
func (fs *feedSyncer) applyBatch(ctx context.Context, batch []feed.SourceEvent) {
	type group struct {
		puts   []registry.Entry
		dels   []string
		oldest int64 // earliest commit nanos in the group, for the lag sample
		last   uint64
	}
	groups := make(map[string]*group)
	order := make([]string, 0, 2)
	for _, sev := range batch {
		g := groups[sev.Source]
		if g == nil {
			g = &group{oldest: sev.Event.Commit}
			groups[sev.Source] = g
			order = append(order, sev.Source)
		}
		if sev.Event.Commit < g.oldest {
			g.oldest = sev.Event.Commit
		}
		g.last = sev.Event.Seq
		if sev.Event.Sync {
			// A bulk-applied event: this is replication itself landing the
			// batch (ours or a migration sweep), not a primary write. Skip it
			// — re-broadcasting would echo around the mesh and can resurrect
			// a deleted name when the echo lands after a later delete — but
			// keep the cursor moving so Flush converges.
			continue
		}
		switch sev.Event.Op {
		case feed.OpPut:
			e, err := registry.GobCodec{}.Decode(sev.Event.Value)
			if err != nil {
				continue // undecodable payload; the snapshot fallback heals it
			}
			g.dels = deleteName(g.dels, e.Name)
			g.puts = upsertEntry(g.puts, e)
		case feed.OpDelete:
			g.puts = deleteEntry(g.puts, sev.Event.Name)
			g.dels = append(deleteName(g.dels, sev.Event.Name), sev.Event.Name)
		}
	}
	for _, source := range order {
		g := groups[source]
		applied := fs.apply(ctx, fs.origin[source], g.puts, g.dels)
		if applied > 0 {
			fs.appliedC.Add(int64(applied))
			// Echo batches apply zero entries and record no lag sample.
			fs.lag.ObserveDuration(time.Since(time.Unix(0, g.oldest)))
		}
		fs.mu.Lock()
		if g.last > fs.applied[source] {
			fs.applied[source] = g.last
		}
		fs.mu.Unlock()
	}
}

// Flush blocks until every event committed before the call has been applied:
// it captures each source feed's head once and waits for the apply cursors to
// reach them (echo events published later keep moving the heads, but only the
// captured values gate the return).
func (fs *feedSyncer) Flush(ctx context.Context) error {
	heads := make(map[string]uint64, len(fs.feeders))
	for name, feeder := range fs.feeders {
		// FeedBarrier, not ChangeFeed().Seq(): a sharded site's relay feed
		// lags its shards' commits until the asynchronous pumps absorb them.
		head, err := feeder.FeedBarrier(ctx)
		if err != nil {
			return err
		}
		heads[name] = head
	}
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		fs.mu.Lock()
		caught := true
		for name, head := range heads {
			if fs.applied[name] < head {
				caught = false
				break
			}
		}
		closed := fs.closed
		fs.mu.Unlock()
		if caught {
			return nil
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-fs.done:
			// The consumer exited (combiner closed); nothing more will apply.
			return fmt.Errorf("feed sync stopped before catching up: %w", ErrClosed)
		case <-ticker.C:
		}
	}
}

// Applied returns how many events from the given source ("site-<id>") have
// been applied, as the source's last applied sequence number.
func (fs *feedSyncer) Applied(source string) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.applied[source]
}

// Close stops the consumer and detaches every feed subscription. In-flight
// applications finish; events past the cursors stay on the source feeds.
func (fs *feedSyncer) Close() {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return
	}
	fs.closed = true
	fs.mu.Unlock()
	fs.cancel()
	fs.comb.Close()
	<-fs.done
}

// upsertEntry replaces the entry with e's name or appends e, keeping one
// pending state per name within a micro-batch.
func upsertEntry(entries []registry.Entry, e registry.Entry) []registry.Entry {
	for i := range entries {
		if entries[i].Name == e.Name {
			entries[i] = e
			return entries
		}
	}
	return append(entries, e)
}

// deleteEntry removes the entry with the given name, if present.
func deleteEntry(entries []registry.Entry, name string) []registry.Entry {
	for i := range entries {
		if entries[i].Name == name {
			return append(entries[:i], entries[i+1:]...)
		}
	}
	return entries
}

// deleteName removes name from the slice, if present.
func deleteName(names []string, name string) []string {
	for i := range names {
		if names[i] == name {
			return append(names[:i], names[i+1:]...)
		}
	}
	return names
}
