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

// feedRelayBatch bounds how many combined feed events one relay round drains:
// a burst of local commits reaches the remote sites as a handful of bulk
// Merge/DeleteMany frames instead of one WAN exchange per event.
const feedRelayBatch = 64

// feedSyncer turns a strategy's convergence from polled into pushed: it fans
// every site's change feed into one feed.Combiner and, as events arrive,
// enqueues each committed mutation into the strategy's propagator for the
// sites route names, flushing at once — instead of waiting for the next agent
// round or flush tick. It carries no pipeline of its own: batching, shipping
// and the retry of a destination that could not be reached are the
// propagator's. A durable site's feed restarts at the last sequence number
// its log member wrote, which no earlier cursor passes, so a cursor from
// before a restart, like one that falls out of a feed's retention window,
// takes the snapshot+tail fallback inside the combiner unless it missed
// nothing.
//
// Echo safety: applying a batch at a remote site republishes the mutations on
// that site's feed, so the syncer would see its own writes come back. Those
// events carry the Sync mark (set as the cache applies a batch) and the
// syncer skips them outright — no echo traffic, and no
// resurrection race where a stale echoed put lands after a later delete.
type feedSyncer struct {
	comb *feed.Combiner
	out  *Propagator
	// route names the sites a mutation of name committed at site origin must
	// reach.
	route  func(origin cloud.SiteID, name string) []cloud.SiteID
	cancel context.CancelFunc
	done   chan struct{}

	// feeders and origin map a combiner source name back to the site feed it
	// tails: heads for Flush catch-up, origin site for routing.
	feeders map[string]registry.ChangeFeeder
	origin  map[string]cloud.SiteID

	mu sync.Mutex
	// cursor is, per source, the sequence of the last event relayed: every
	// event at or below it has been applied or sits in the propagator.
	cursor map[string]uint64
	closed bool

	// Live instruments (nil when the fabric's instrumentation is off).
	lag      *metrics.Histogram // replication_lag_ns: event commit -> remote apply
	appliedC *metrics.Counter   // feed_applied_total: entry applications pushed
}

// newFeedSyncer subscribes to every fabric site's change feed and starts
// relaying into out. It fails with ErrNoFeed when any site exposes no feed.
func newFeedSyncer(fabric *Fabric, out *Propagator, route func(origin cloud.SiteID, name string) []cloud.SiteID) (*feedSyncer, error) {
	sources, err := fabric.FeedSources()
	if err != nil {
		return nil, err
	}
	fs := &feedSyncer{
		out:      out,
		route:    route,
		done:     make(chan struct{}),
		feeders:  make(map[string]registry.ChangeFeeder, len(sources)),
		origin:   make(map[string]cloud.SiteID, len(sources)),
		cursor:   make(map[string]uint64, len(sources)),
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
		feed.WithCombinerBuffer(feedRelayBatch))
	ctx, cancel := context.WithCancel(context.Background())
	fs.cancel = cancel
	fs.comb.Start(ctx)
	go fs.consume(ctx)
	return fs, nil
}

// consume drains the combiner: it blocks for the first event, opportunistically
// gathers whatever else is already pending (up to feedRelayBatch), and relays
// the micro-batch.
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
		for len(batch) < feedRelayBatch {
			select {
			case ev, ok := <-fs.comb.Events():
				if !ok {
					fs.relay(ctx, batch)
					return
				}
				batch = append(batch, ev)
			default:
				break drain
			}
		}
		fs.relay(ctx, batch)
	}
}

// relay enqueues the micro-batch's primary mutations into the propagator,
// flushes, and moves the cursors past them.
func (fs *feedSyncer) relay(ctx context.Context, batch []feed.SourceEvent) {
	last := make(map[string]uint64, 2)
	var oldest int64 // earliest commit nanos among the enqueued events, for the lag sample
	for _, sev := range batch {
		last[sev.Source] = sev.Event.Seq
		if sev.Event.Sync {
			// A bulk-applied event: this is replication itself landing a
			// batch (ours or a migration sweep), not a primary write. Relaying
			// it would echo around the mesh and can resurrect a deleted name
			// when the echo lands after a later delete.
			continue
		}
		origin := fs.origin[sev.Source]
		enqueued := false
		switch sev.Event.Op {
		case feed.OpPut:
			e, err := registry.DecodeEntry(sev.Event.Value)
			if err != nil {
				// DecodeEntry reads what this release and older ones stored, so
				// only corruption in flight, or a source running a newer
				// release than this consumer (docs/WIRE.md, upgrade order),
				// gets here, and there is no entry to ship.
				continue
			}
			for _, to := range fs.route(origin, e.Name) {
				fs.out.Enqueue(origin, to, e)
				enqueued = true
			}
		case feed.OpDelete:
			for _, to := range fs.route(origin, sev.Event.Name) {
				fs.out.EnqueueDelete(origin, to, sev.Event.Name)
				enqueued = true
			}
		}
		if enqueued && (oldest == 0 || sev.Event.Commit < oldest) {
			oldest = sev.Event.Commit
		}
	}
	if oldest != 0 {
		applied, err := fs.out.flush(ctx)
		fs.appliedC.Add(int64(applied))
		if err == nil && applied > 0 {
			fs.lag.ObserveDuration(time.Since(time.Unix(0, oldest)))
		}
	}
	// The cursors move once this relay's flush is over, applied or not: a
	// shipment that failed stays pending in the propagator, and Flush reports
	// it. Moving them earlier would let a Flush drain the events first, so
	// it returned before their lag sample, or with none taken.
	fs.mu.Lock()
	for source, seq := range last {
		if seq > fs.cursor[source] {
			fs.cursor[source] = seq
		}
	}
	fs.mu.Unlock()
}

// Flush blocks until every event committed before the call has been applied:
// it captures each source feed's head once, waits for the relay cursors to
// reach them (echo events published later keep moving the heads, but only the
// captured values gate the return), and then flushes the propagator. It
// returns the propagator's error when a destination could not be updated; the
// batch stays pending and the next Flush tries again.
func (fs *feedSyncer) Flush(ctx context.Context) error {
	heads := make(map[string]uint64, len(fs.feeders))
	for name, feeder := range fs.feeders {
		// FeedBarrier is the ChangeFeeder's promise that everything
		// committed before the call is at or below the head it returns.
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
			if fs.cursor[name] < head {
				caught = false
				break
			}
		}
		closed := fs.closed
		fs.mu.Unlock()
		if caught {
			return fs.out.FlushNow(ctx)
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-fs.done:
			// The consumer exited (combiner closed); nothing more will relay.
			return fmt.Errorf("feed sync stopped before catching up: %w", ErrClosed)
		case <-ticker.C:
		}
	}
}

// Close stops the consumer and detaches every feed subscription. A relay in
// flight finishes; events past the cursors stay on the source feeds.
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
