package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// Propagator implements the lazy metadata update scheme of the paper
// (§III-D): instead of eagerly updating remote replicas on every file
// operation, updates for multiple files are batched and asynchronously
// propagated to their destination sites. Writers therefore observe only the
// local write latency, and the system converges to a consistent state
// eventually.
//
// Updates are enqueued per destination by the hybrid strategy's lazy mode; a
// flush fans out across the destinations concurrently and ships each one its
// whole batch as one Merge, never per-entry calls. A destination whose
// shipment fails, because the site is unreachable or the flush context was
// cancelled, keeps its batch for the next round and the flush reports the
// failure.
type Propagator struct {
	fabric *Fabric
	// maxBatch flushes a destination's batch once it holds this many
	// entries, even before the interval elapses: flushBatch, unless a test
	// needs another trigger.
	maxBatch int
	rounds   *rounds[destination]

	// Live instruments (nil when the fabric's instrumentation is off).
	flushLatency *metrics.Histogram // propagator_flush_latency_ns
	flushesC     *metrics.Counter   // propagator_flushes_total
	propagatedC  *metrics.Counter   // propagator_propagated_total
}

// destination identifies one pending propagation stream: updates produced at
// site From that must be applied to the registry instance at site To.
type destination struct {
	From cloud.SiteID
	To   cloud.SiteID
}

// pendingSet holds at most one pending entry per name: the destination
// converges on the last update applied at the origin, so a later entry
// replaces an earlier one and a backlog is bounded by the distinct names
// touched.
type pendingSet map[string]registry.Entry

// pendingQueue holds the pending sets of a propagation path, keyed by where
// they are headed (the propagator's destinations) or where they come from (the
// synchronization agent's sites).
type pendingQueue[K comparable] map[K]pendingSet

// rounds is the engine both propagation paths run on: the pending queue, one
// round at a time, a round every interval of simulated time, and the rule by
// which a round puts back what it could not deliver. The owner supplies the
// round body; a round holds only the slot, never a mutex, across its
// exchanges.
type rounds[K comparable] struct {
	// round ships drained and returns the sets it could not deliver, with
	// the error that stopped them.
	round func(ctx context.Context, drained pendingQueue[K]) (failed pendingQueue[K], err error)
	// interval is the period of the loop's rounds, in simulated time.
	interval time.Duration

	mu      sync.Mutex
	pending pendingQueue[K]
	closed  bool

	// slot holds the one round in progress; a round waiting for it gives up
	// when its context ends.
	slot chan struct{}

	// life is cancelled by close, stopping the loop and aborting a
	// background round in flight.
	life context.Context
	stop context.CancelFunc
	done chan struct{} // closed when the loop has exited

	depth    *metrics.Gauge   // <path>_queue_depth: names awaiting a round
	requeued *metrics.Counter // <path>_requeued_total: names put back by a failed round
}

// newRounds builds the engine of the propagation path named path and starts
// its loop, which runs a round every interval of simulated time until close.
// The loop may run round before newRounds returns, so round must not reach
// the engine through its owner.
func newRounds[K comparable](f *Fabric, path string, interval time.Duration, round func(context.Context, pendingQueue[K]) (pendingQueue[K], error)) *rounds[K] {
	life, stop := context.WithCancel(context.Background())
	r := &rounds[K]{
		round:    round,
		interval: interval,
		pending:  make(pendingQueue[K]),
		slot:     make(chan struct{}, 1),
		life:     life,
		stop:     stop,
		done:     make(chan struct{}),
		depth:    f.Metrics().Gauge(path + "_queue_depth"),
		requeued: f.Metrics().Counter(path + "_requeued_total"),
	}
	wallInterval := f.lat.ToWall(r.interval)
	if wallInterval <= 0 {
		wallInterval = time.Millisecond
	}
	go func() {
		defer close(r.done)
		timer := time.NewTimer(wallInterval)
		defer timer.Stop()
		for {
			select {
			case <-life.Done():
				return
			case <-timer.C:
				r.run(life) //nolint:errcheck // a failed round re-queues its work
				timer.Reset(wallInterval)
			}
		}
	}()
	return r
}

// put makes e the pending entry of its name under key, unless the engine is
// closed, and returns the size of key's set.
func (r *rounds[K]) put(key K, e registry.Entry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	set := r.pending[key]
	if set == nil {
		set = make(pendingSet)
		r.pending[key] = set
	}
	if _, had := set[e.Name]; !had {
		r.depth.Add(1)
	}
	set[e.Name] = e
	return len(set)
}

// size returns the number of pending entries across all keys.
func (r *rounds[K]) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending.size()
}

func (q pendingQueue[K]) size() int {
	n := 0
	for _, set := range q {
		n += len(set)
	}
	return n
}

// run runs one round: it waits for the slot, or returns ctx's error at once
// if ctx ends first, drains the queue, and hands it to the round body. What
// the body could not deliver goes back into the queue, except names for which
// a newer entry was queued meanwhile, so a re-queue never displaces a newer
// entry. It ignores the closed flag: a final round after close must still see
// what a cancelled round had drained.
func (r *rounds[K]) run(ctx context.Context) error {
	select {
	case r.slot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-r.slot }()
	if err := ctx.Err(); err != nil {
		return err
	}

	r.mu.Lock()
	drained := r.pending
	r.pending = make(pendingQueue[K])
	r.mu.Unlock()
	r.depth.Add(-int64(drained.size()))

	failed, err := r.round(ctx, drained)
	if len(failed) == 0 {
		return err
	}
	restored := 0
	r.mu.Lock()
	for key, set := range failed {
		cur := r.pending[key]
		if cur == nil {
			r.pending[key] = set
			restored += len(set)
			continue
		}
		for name, e := range set {
			if _, newer := cur[name]; !newer {
				cur[name] = e
				restored++
			}
		}
	}
	r.mu.Unlock()
	r.depth.Add(int64(restored))
	r.requeued.Add(int64(restored))
	return err
}

// close refuses further entries and stops the loop, aborting a background
// round in flight. It reports whether this call closed the engine.
func (r *rounds[K]) close() bool {
	r.mu.Lock()
	first := !r.closed
	r.closed = true
	r.mu.Unlock()
	if first {
		r.stop()
		<-r.done
	}
	return first
}

// DefaultFlushInterval is the default lazy-propagation period (simulated).
const DefaultFlushInterval = 500 * time.Millisecond

// flushBatch is the number of entries that triggers an early flush of one
// destination's batch.
const flushBatch = 64

// NewPropagator starts a lazy-update propagator over the fabric: an update
// waits at most flushInterval of simulated time (DefaultFlushInterval when
// zero), or until its destination's batch holds flushBatch entries, before
// being pushed. It runs until Close.
func NewPropagator(fabric *Fabric, flushInterval time.Duration) *Propagator {
	if flushInterval <= 0 {
		flushInterval = DefaultFlushInterval
	}
	p := &Propagator{
		fabric:       fabric,
		maxBatch:     flushBatch,
		flushLatency: fabric.Metrics().Histogram("propagator_flush_latency_ns"),
		flushesC:     fabric.Metrics().Counter("propagator_flushes_total"),
		propagatedC:  fabric.Metrics().Counter("propagator_propagated_total"),
	}
	p.rounds = newRounds(fabric, "propagator", flushInterval, p.flush)
	return p
}

// Enqueue schedules the entry, produced at site from, for application at site
// to. The call returns immediately; the transfer happens asynchronously. It
// replaces any entry still pending for the same name and destination, so the
// destination converges on the last local update.
func (p *Propagator) Enqueue(from, to cloud.SiteID, e registry.Entry) {
	if p.rounds.put(destination{From: from, To: to}, e) >= p.maxBatch {
		go p.rounds.run(p.rounds.life) //nolint:errcheck // a failed shipment keeps its batch for the next round
	}
}

// Pending returns the number of updates waiting to be propagated.
func (p *Propagator) Pending() int { return p.rounds.size() }

// FlushNow pushes every pending batch to its destination, concurrently, and
// returns when all of them have answered. A destination that could not be
// updated — its site is unreachable, or ctx was cancelled mid-flight — keeps
// its batch for the next round and is reported in the returned error, an
// *OpError{Op: "flush"} per failed destination; bulk application is idempotent,
// so a destination that applied part of a batch tolerates seeing it again.
// A nil error means everything enqueued before the call has been applied.
// Rounds run one at a time; a call whose ctx ends while it waits for another
// round to finish returns ctx's error at once and ships nothing.
func (p *Propagator) FlushNow(ctx context.Context) error { return p.rounds.run(ctx) }

// flush is the propagator's round body: one shipment per destination, all of
// them concurrent.
func (p *Propagator) flush(ctx context.Context, drained pendingQueue[destination]) (failed pendingQueue[destination], err error) {
	flushStart := time.Now()
	var (
		applied atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex // guards failed and errs
		errs    []error
	)
	for d, set := range drained {
		wg.Add(1)
		go func(d destination, set pendingSet) {
			defer wg.Done()
			puts := slices.Collect(maps.Values(set))
			changed, err := p.fabric.ship(ctx, d.From, d.To, puts, p.fabric.batchBytes(puts))
			applied.Add(int64(changed))
			if err != nil {
				mu.Lock()
				if failed == nil {
					failed = make(pendingQueue[destination])
				}
				failed[d] = set
				errs = append(errs, &OpError{Op: "flush", Site: d.From, Err: fmt.Errorf("to site %d: %w", d.To, err)})
				mu.Unlock()
			}
		}(d, set)
	}
	wg.Wait()

	p.flushesC.Inc()
	p.propagatedC.Add(applied.Load())
	p.flushLatency.ObserveDuration(time.Since(flushStart))
	return failed, errors.Join(errs...)
}

// batchBytes is the modelled wire size of one shipment: every entry in full.
func (f *Fabric) batchBytes(puts []registry.Entry) int {
	n := 0
	for _, e := range puts {
		n += f.EntrySize(e)
	}
	return n
}

// ship is the only place in the package that writes to another site's
// registry in bulk: one modelled exchange carrying the batch (bytes, as
// computed by batchBytes) from site from to site to, then one Merge of the
// entries at to's instance. It returns how many entries changed the
// destination's state and the first failure of the instance lookup, the
// exchange or the Merge; the caller keeps the batch for another round on any
// of them.
func (f *Fabric) ship(ctx context.Context, from, to cloud.SiteID, puts []registry.Entry, bytes int) (int, error) {
	inst, err := f.Instance(to)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	remote, err := f.call(ctx, from, to, bytes, f.ackBytes)
	if err != nil {
		return 0, err
	}
	applied, err := inst.Merge(ctx, puts)
	if err != nil {
		return applied, err
	}
	f.record(metrics.OpSync, start, remote)
	return applied, nil
}

// Close stops the propagator after one last flush, whose error — updates that
// could not be delivered and are now dropped — it returns. The final flush
// runs under a fresh background context — closing must still drain what it
// can — while the cancelled life context aborts any round that was already in
// flight.
func (p *Propagator) Close() error {
	if !p.rounds.close() {
		return nil
	}
	return p.FlushNow(context.Background())
}
