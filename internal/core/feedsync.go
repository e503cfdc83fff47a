package core

import (
	"context"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// feedSyncer turns a strategy's convergence from polled into pushed: it
// observes every site's change feed log and, as each mutation commits,
// enqueues it into the strategy's propagator for the sites route names and
// wakes its flusher — instead of waiting for the next agent round or flush
// tick. It carries no pipeline of its own: batching, shipping and the retry of
// a destination that could not be reached are the propagator's. Every fabric
// site is in-process, so its log is observed on the committing goroutine: no
// event can be missed, lagged or resumed, and a write that has returned is
// already enqueued.
//
// Echo safety: applying a batch at a remote site republishes the mutations on
// that site's feed, so the syncer would see its own writes come back. Those
// events carry the Sync mark (set as the cache applies a batch) and the
// syncer skips them outright — no echo traffic, and no
// resurrection race where a stale echoed put lands after a later delete.
type feedSyncer struct {
	out *Propagator
	// route names the sites a mutation of name committed at site origin must
	// reach.
	route func(origin cloud.SiteID, name string) []cloud.SiteID

	detach []func() // one per observed site log
	// wake holds at most one pending wake-up of the flusher: events enqueued
	// while a round runs are shipped by the next one.
	wake   chan struct{}
	cancel context.CancelFunc
	done   chan struct{} // closed when the flusher has exited
	// oldest is the commit time, in Unix nanoseconds, of the first event
	// enqueued since the last lag sample (0: none).
	oldest atomic.Int64

	// Live instruments (nil when the fabric's instrumentation is off).
	lag      *metrics.Histogram // replication_lag_ns: event commit -> remote apply
	appliedC *metrics.Counter   // feed_applied_total: entry applications pushed
}

// newFeedSyncer observes every fabric site's change feed log and starts the
// flusher that ships into out. It fails with ErrNoFeed when any site exposes
// no feed.
func newFeedSyncer(fabric *Fabric, out *Propagator, route func(origin cloud.SiteID, name string) []cloud.SiteID) (*feedSyncer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	fs := &feedSyncer{
		out:      out,
		route:    route,
		wake:     make(chan struct{}, 1),
		cancel:   cancel,
		done:     make(chan struct{}),
		lag:      fabric.Metrics().Histogram("replication_lag_ns"),
		appliedC: fabric.Metrics().Counter("feed_applied_total"),
	}
	go fs.flusher(ctx)
	for _, site := range fabric.Sites() {
		feeder, err := fabric.Feed(site)
		if err != nil {
			fs.Close()
			return nil, err
		}
		fs.detach = append(fs.detach, feeder.ChangeFeed().Observe(func(ev *feed.Event) { fs.observe(site, ev) }))
	}
	return fs, nil
}

// observe runs on the goroutine that committed ev at site origin, under the
// site log's lock: it enqueues a primary mutation for every site route names
// and wakes the flusher. It writes to no site.
func (fs *feedSyncer) observe(origin cloud.SiteID, ev *feed.Event) {
	if ev == nil || ev.Sync {
		// A closing log, or a bulk-applied event: replication itself landing
		// a batch (ours or a migration sweep), not a primary write. Relaying
		// it would echo around the mesh and can resurrect a deleted name
		// when the echo lands after a later delete.
		return
	}
	var to []cloud.SiteID
	switch ev.Op {
	case feed.OpPut:
		e, err := registry.DecodeEntry(ev.Value)
		if err != nil {
			// DecodeEntry reads what this release and older ones stored, so
			// only corruption, or a source running a newer release than this
			// consumer (docs/WIRE.md, upgrade order), gets here, and there is
			// no entry to ship.
			return
		}
		to = fs.route(origin, e.Name)
		for _, site := range to {
			fs.out.Enqueue(origin, site, e)
		}
	case feed.OpDelete:
		to = fs.route(origin, ev.Name)
		for _, site := range to {
			fs.out.EnqueueDelete(origin, site, ev.Name)
		}
	}
	if len(to) > 0 {
		fs.oldest.CompareAndSwap(0, ev.Commit)
		select {
		case fs.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// flusher runs one Flush per wake-up until ctx ends.
func (fs *feedSyncer) flusher(ctx context.Context) {
	defer close(fs.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-fs.wake:
		}
		fs.Flush(ctx) //nolint:errcheck // a failed shipment keeps its batch for the next round
	}
}

// Flush runs one propagator round, which returns once every mutation
// committed before the call has been applied at the sites it routes to: each
// was enqueued before its write returned, and the round waits for one in
// flight. When the round applied something it samples the replication lag
// from the first event enqueued since the last sample. It returns the
// propagator's error when a destination could not be updated; the batch stays
// pending and the next round tries again.
func (fs *feedSyncer) Flush(ctx context.Context) error {
	applied, err := fs.out.flush(ctx)
	fs.appliedC.Add(int64(applied))
	if err == nil && applied > 0 {
		if oldest := fs.oldest.Swap(0); oldest != 0 {
			fs.lag.ObserveDuration(time.Since(time.Unix(0, oldest)))
		}
	}
	return err
}

// Close detaches the observers, then stops the flusher; a round in flight is
// cancelled, and what it could not ship stays in the propagator.
func (fs *feedSyncer) Close() {
	for _, detach := range fs.detach {
		detach()
	}
	fs.cancel()
	<-fs.done
}
