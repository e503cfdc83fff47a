package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// Propagator implements the lazy metadata update scheme of the paper
// (§III-D): instead of eagerly updating remote replicas on every file
// operation, updates — and deletions — for multiple files are batched and
// asynchronously propagated to their destination sites. Writers therefore
// observe only the local write latency, and the system converges to a
// consistent state eventually.
//
// Operations are enqueued per destination by the hybrid strategy's lazy
// mode; a flush fans out across the destinations concurrently and ships each
// one its whole batch as bulk operations — one Merge for the upserts and one
// DeleteMany for the deletions, never per-entry calls. A destination whose
// shipment fails, because the site is unreachable or the flush context was
// cancelled, keeps its batch for the next round and the flush reports the
// failure.
type Propagator struct {
	fabric *Fabric
	// interval is the flush period, in simulated time.
	interval time.Duration
	// maxBatch flushes a destination's batch once it holds this many
	// operations, even before the interval elapses: flushBatch, unless a test
	// needs another trigger.
	maxBatch int

	// life is cancelled when the propagator closes, stopping the flush loop
	// and aborting an in-flight background round.
	life     context.Context
	lifeStop context.CancelFunc

	mu      sync.Mutex
	pending pendingQueue[destination]
	closed  bool

	// flushSlot serializes flush rounds: a round holds its one slot across
	// the shipments, and a round waiting for it gives up when its context
	// ends.
	flushSlot chan struct{}

	done chan struct{} // closed when the flush loop has exited

	// Live instruments (nil when the fabric's instrumentation is off).
	queueDepth   *metrics.Gauge     // propagator_queue_depth: operations awaiting a flush
	flushLatency *metrics.Histogram // propagator_flush_latency_ns
	flushesC     *metrics.Counter   // propagator_flushes_total
	propagatedC  *metrics.Counter   // propagator_propagated_total
	requeuedC    *metrics.Counter   // propagator_requeued_total: operations put back by a failed shipment
}

// destination identifies one pending propagation stream: updates produced at
// site From that must be applied to the registry instance at site To.
type destination struct {
	From cloud.SiteID
	To   cloud.SiteID
}

// pendingOp is one operation awaiting propagation: the entry state to upsert,
// or — with del set — the deletion of entry.Name.
type pendingOp struct {
	entry registry.Entry
	del   bool
}

// pendingSet holds at most one pending operation per name: the destination
// converges on the last operation applied at the origin, so a later operation
// replaces an earlier one and a backlog is bounded by the distinct names
// touched.
type pendingSet map[string]pendingOp

// split returns the set as the two bulk-call arguments.
func (s pendingSet) split() (puts []registry.Entry, dels []string) {
	for name, op := range s {
		if op.del {
			dels = append(dels, name)
		} else {
			puts = append(puts, op.entry)
		}
	}
	return puts, dels
}

// pendingQueue holds the pending sets of a propagation path, keyed by where
// they are headed (the propagator's destinations) or where they come from (the
// synchronization agent's sites).
type pendingQueue[K comparable] map[K]pendingSet

// put makes op the pending operation of its name under key. It returns the
// size of key's set and whether the name had no pending operation before.
func (q pendingQueue[K]) put(key K, op pendingOp) (n int, added bool) {
	set := q[key]
	if set == nil {
		set = make(pendingSet)
		q[key] = set
	}
	_, had := set[op.entry.Name]
	set[op.entry.Name] = op
	return len(set), !had
}

// restore puts back under key the operations of old, drained by a round that
// could not deliver them, except where a newer operation on the same name has
// been enqueued since — a re-queued update never displaces a newer deletion,
// nor the reverse. It returns how many went back.
func (q pendingQueue[K]) restore(key K, old pendingSet) (restored int) {
	cur := q[key]
	if cur == nil {
		q[key] = old
		return len(old)
	}
	for name, op := range old {
		if _, newer := cur[name]; !newer {
			cur[name] = op
			restored++
		}
	}
	return restored
}

// size returns the number of pending operations across all keys.
func (q pendingQueue[K]) size() int {
	n := 0
	for _, set := range q {
		n += len(set)
	}
	return n
}

// DefaultFlushInterval is the default lazy-propagation period (simulated).
const DefaultFlushInterval = 500 * time.Millisecond

// flushBatch is the number of operations that triggers an early flush of one
// destination's batch.
const flushBatch = 64

// NewPropagator starts a lazy-update propagator over the fabric: an update
// waits at most flushInterval of simulated time (DefaultFlushInterval when
// zero), or until its destination's batch holds flushBatch operations, before
// being pushed. It runs until Close.
func NewPropagator(fabric *Fabric, flushInterval time.Duration) *Propagator {
	if flushInterval <= 0 {
		flushInterval = DefaultFlushInterval
	}
	life, lifeStop := context.WithCancel(context.Background())
	p := &Propagator{
		fabric:       fabric,
		interval:     flushInterval,
		maxBatch:     flushBatch,
		life:         life,
		lifeStop:     lifeStop,
		pending:      make(pendingQueue[destination]),
		flushSlot:    make(chan struct{}, 1),
		done:         make(chan struct{}),
		queueDepth:   fabric.Metrics().Gauge("propagator_queue_depth"),
		flushLatency: fabric.Metrics().Histogram("propagator_flush_latency_ns"),
		flushesC:     fabric.Metrics().Counter("propagator_flushes_total"),
		propagatedC:  fabric.Metrics().Counter("propagator_propagated_total"),
		requeuedC:    fabric.Metrics().Counter("propagator_requeued_total"),
	}
	go func() {
		defer close(p.done)
		fabric.every(p.interval, life.Done(), func() {
			p.FlushNow(p.life) //nolint:errcheck // a failed shipment keeps its batch for the next round
		})
	}()
	return p
}

// Enqueue schedules the entry, produced at site from, for application at site
// to. The call returns immediately; the transfer happens asynchronously. It
// replaces any operation still pending for the same name and destination, so
// the destination converges on the last local operation.
func (p *Propagator) Enqueue(from, to cloud.SiteID, e registry.Entry) {
	p.enqueue(destination{From: from, To: to}, pendingOp{entry: e})
}

// EnqueueDelete schedules the deletion of name, performed at site from, for
// application at site to. Deletions ride the same flush rounds as updates
// and reach the destination as one DeleteMany batch.
func (p *Propagator) EnqueueDelete(from, to cloud.SiteID, name string) {
	p.enqueue(destination{From: from, To: to}, pendingOp{entry: registry.Entry{Name: name}, del: true})
}

func (p *Propagator) enqueue(d destination, op pendingOp) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	n, added := p.pending.put(d, op)
	p.mu.Unlock()
	if added {
		p.queueDepth.Add(1)
	}
	if n >= p.maxBatch {
		go p.FlushNow(p.life) //nolint:errcheck // a failed shipment keeps its batch for the next round
	}
}

// Pending returns the number of updates and deletions waiting to be
// propagated.
func (p *Propagator) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending.size()
}

// FlushNow pushes every pending batch to its destination, concurrently, and
// returns when all of them have answered. A destination that could not be
// updated — its site is unreachable, or ctx was cancelled mid-flight — keeps
// its batch for the next round and is reported in the returned error, an
// *OpError{Op: "flush"} per failed destination; bulk application is idempotent,
// so a destination that applied part of a batch tolerates seeing it again.
// A nil error means everything enqueued before the call has been applied.
// Rounds run one at a time; a call whose ctx ends while it waits for another
// round to finish returns ctx's error at once and ships nothing.
func (p *Propagator) FlushNow(ctx context.Context) error {
	select {
	case p.flushSlot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.flushSlot }()

	if err := ctx.Err(); err != nil {
		return err
	}

	flushStart := time.Now()

	p.mu.Lock()
	drained := p.pending
	p.pending = make(pendingQueue[destination])
	p.mu.Unlock()

	p.queueDepth.Add(-int64(drained.size()))

	var (
		applied atomic.Int64
		wg      sync.WaitGroup
		errMu   sync.Mutex
		errs    []error
	)
	for d, set := range drained {
		wg.Add(1)
		go func(d destination, set pendingSet) {
			defer wg.Done()
			puts, dels := set.split()
			changed, err := p.fabric.ship(ctx, d.From, d.To, puts, dels, p.fabric.batchBytes(puts, dels))
			applied.Add(int64(changed))
			if err != nil {
				p.requeue(d, set)
				errMu.Lock()
				errs = append(errs, &OpError{Op: "flush", Site: d.From, Err: fmt.Errorf("to site %d: %w", d.To, err)})
				errMu.Unlock()
			}
		}(d, set)
	}
	wg.Wait()

	p.flushesC.Inc()
	p.propagatedC.Add(applied.Load())
	p.flushLatency.ObserveDuration(time.Since(flushStart))
	return errors.Join(errs...)
}

// requeue puts a batch that could not be delivered back into d's pending set.
// It ignores the closed flag on purpose: Close's final drain must still see
// batches a cancelled in-flight round had grabbed.
func (p *Propagator) requeue(d destination, set pendingSet) {
	p.mu.Lock()
	restored := p.pending.restore(d, set)
	p.mu.Unlock()
	p.queueDepth.Add(int64(restored))
	p.requeuedC.Add(int64(restored))
}

// batchBytes is the modelled wire size of one shipment: every entry in full,
// a key per deletion.
func (f *Fabric) batchBytes(puts []registry.Entry, dels []string) int {
	n := len(dels) * f.queryBytes
	for _, e := range puts {
		n += f.EntrySize(e)
	}
	return n
}

// ship is the only place in the package that writes to another site's
// registry in bulk: one modelled exchange carrying the batch (bytes, as
// computed by batchBytes) from site from to site to, then one Merge of the
// upserts and one DeleteMany of the deletions at to's instance. It returns how
// many operations changed the destination's state and the first failure of the
// instance lookup, the exchange, the Merge or the DeleteMany; the caller keeps
// the batch for another round on any of them. Merge runs even for a batch
// without upserts — the call sequence every propagation path has always
// produced, which TestStrategyTrafficCharacterisation pins.
func (f *Fabric) ship(ctx context.Context, from, to cloud.SiteID, puts []registry.Entry, dels []string, bytes int) (int, error) {
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
	if len(dels) > 0 {
		n, err := inst.DeleteMany(ctx, dels)
		applied += n
		if err != nil {
			return applied, err
		}
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
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.lifeStop()
	<-p.done
	return p.FlushNow(context.Background())
}

// every runs round once per interval of simulated time until stop is closed:
// the loop of the lazy propagator and of the synchronization agent.
func (f *Fabric) every(interval time.Duration, stop <-chan struct{}, round func()) {
	wallInterval := f.lat.ToWall(interval)
	if wallInterval <= 0 {
		wallInterval = time.Millisecond
	}
	timer := time.NewTimer(wallInterval)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
			round()
			timer.Reset(wallInterval)
		}
	}
}
