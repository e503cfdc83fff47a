package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"geomds/internal/metrics"
)

// This file holds the Router's tail-latency machinery: hedged single-key
// reads on the replicated tier (WithRouterHedgedReads) and singleflight
// coalescing of concurrent identical Gets (WithRouterReadCoalescing).
//
// Hedging: a replicated Get normally waits for the primary and only fails
// over on a transport error, so one slow-but-alive replica sets the read's
// latency. With hedging armed, a primary that has not answered within a
// threshold derived from the router's streaming read-latency histogram (the
// observed p95, clamped to the configured [min, max] band) gets a second
// chance fired at the next healthy replica; the first usable answer wins and
// the loser is cancelled through its context. The replica set already
// excludes breaker-open shards, so a hedge can never target a shard known to
// be down. An answering replica's ErrNotFound stays authoritative, exactly
// as on the failover path.
//
// Coalescing: concurrent Gets for the same name collapse into one downstream
// read whose result fans out to every waiter. The flight runs under its own
// context — detached from any single caller — so one waiter's cancellation
// cannot poison the answer for the rest; only when every waiter has given up
// is the downstream read cancelled.

// Default clamp band for the hedge threshold: the p95 estimate is not
// trusted below min (hedging every read would double tier load) nor above
// max (a cold histogram or a latency collapse must not disarm hedging).
const (
	DefaultHedgeMin = time.Millisecond
	DefaultHedgeMax = 25 * time.Millisecond
)

// hedgeMinSamples is how many recorded reads the threshold derivation needs
// before the p95 is meaningful; colder histograms use the max clamp.
const hedgeMinSamples = 32

// hedgeSettings is the resolved hedging configuration.
type hedgeSettings struct {
	enabled  bool
	min, max time.Duration
}

// hedgeThreshold derives the current hedge-fire delay: the read-latency
// histogram's p95 clamped into [min, max], or 0 when hedging is off.
func (r *Router) hedgeThreshold() time.Duration {
	if !r.hedge.enabled {
		return 0
	}
	snap := r.readLat.Snapshot()
	if snap.Count < hedgeMinSamples {
		return r.hedge.max
	}
	th := time.Duration(snap.Quantile(95))
	if th < r.hedge.min {
		th = r.hedge.min
	}
	if th > r.hedge.max {
		th = r.hedge.max
	}
	return th
}

// hedgeAnswer is one leg's outcome in a hedged read.
type hedgeAnswer struct {
	e      Entry
	err    error
	ref    shardRef
	hedged bool // this leg was the timer-fired hedge
}

// getHedged races the primary against a deferred hedge at the next healthy
// replica. It is only entered with at least two healthy replicas resolved
// and no sweep active (mid-sweep reads keep the full-tier fallback path).
func (r *Router) getHedged(ctx context.Context, name string, refs []shardRef, threshold time.Duration) (Entry, error) {
	pctx, pcancel := context.WithCancel(ctx)
	hctx, hcancel := context.WithCancel(ctx)
	defer pcancel()
	defer hcancel()

	answers := make(chan hedgeAnswer, 2)
	launch := func(legCtx context.Context, ref shardRef, hedged bool) {
		go func() {
			e, err := ref.api.Get(legCtx, name)
			r.report(ref.id, err)
			answers <- hedgeAnswer{e: e, err: err, ref: ref, hedged: hedged}
		}()
	}
	launch(pctx, refs[0], false)

	timer := time.NewTimer(threshold)
	defer timer.Stop()

	var (
		launched = 1
		pending  = 1
		errs     []error
	)
	// fireSecond starts the read at refs[1]: as a counted hedge when the
	// timer expired with the primary still silent, or as plain failover when
	// the primary already failed outright.
	fireSecond := func(asHedge bool) {
		if launched > 1 {
			return
		}
		launched++
		pending++
		if asHedge {
			r.obs.hedged.Inc()
		}
		launch(hctx, refs[1], asHedge)
	}

	for {
		select {
		case <-timer.C:
			fireSecond(true)
		case <-ctx.Done():
			return Entry{}, ctx.Err()
		case a := <-answers:
			pending--
			switch {
			case a.err == nil:
				pcancel()
				hcancel()
				if a.hedged {
					r.obs.hedgeWins.Inc()
				}
				if a.ref.id != refs[0].id {
					r.obs.failovers.Inc()
				}
				return a.e, nil
			case errors.Is(a.err, ErrNotFound):
				// The answering replica's miss is authoritative (no sweep was
				// active when this path was entered).
				pcancel()
				hcancel()
				if a.hedged {
					r.obs.hedgeWins.Inc()
				}
				return Entry{}, a.err
			case errors.Is(a.err, context.Canceled), errors.Is(a.err, context.DeadlineExceeded):
				// A cancelled loser draining, or the caller giving up — the
				// ctx.Done case answers for the latter.
				if pending == 0 && ctx.Err() != nil {
					return Entry{}, ctx.Err()
				}
			default:
				errs = append(errs, fmt.Errorf("shard %d: %w", a.ref.id, a.err))
				// A failed primary needs no timer: go to the replica now.
				fireSecond(false)
				if pending == 0 {
					return r.getHedgeRemainder(ctx, name, refs[2:], errs)
				}
			}
		}
	}
}

// getHedgeRemainder walks the replicas beyond the hedge pair serially after
// both raced legs failed, mirroring the classic failover loop.
func (r *Router) getHedgeRemainder(ctx context.Context, name string, rest []shardRef, errs []error) (Entry, error) {
	for _, ref := range rest {
		e, gerr := ref.api.Get(ctx, name)
		r.report(ref.id, gerr)
		if gerr == nil {
			r.obs.failovers.Inc()
			return e, nil
		}
		if errors.Is(gerr, ErrNotFound) {
			return Entry{}, gerr
		}
		errs = append(errs, fmt.Errorf("shard %d: %w", ref.id, gerr))
	}
	return Entry{}, r.shardErr("get", errs)
}

// flight is one in-progress coalesced read.
type flight struct {
	done     chan struct{}
	e        Entry
	err      error
	waiters  int
	finished bool
	cancel   context.CancelFunc
}

// flightGroup is a hand-rolled singleflight keyed by entry name. joined
// counts callers that piggybacked on a flight another caller started
// (router_coalesced_reads_total), recorded at join time.
type flightGroup struct {
	mu     sync.Mutex
	m      map[string]*flight
	joined *metrics.Counter
}

func newFlightGroup(joined *metrics.Counter) *flightGroup {
	return &flightGroup{m: make(map[string]*flight), joined: joined}
}

// do runs fn once per name across concurrent callers and fans the result out
// to every waiter. The flight executes under its own detached context so one
// caller's cancellation cannot poison the shared answer; a caller that gives
// up gets its own ctx.Err() while the flight carries on for the rest, and
// only the last waiter leaving cancels the downstream read.
func (g *flightGroup) do(ctx context.Context, name string, fn func(context.Context, string) (Entry, error)) (Entry, error) {
	g.mu.Lock()
	if f, ok := g.m[name]; ok {
		f.waiters++
		g.mu.Unlock()
		g.joined.Inc()
		return g.wait(ctx, name, f)
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.m[name] = f
	g.mu.Unlock()
	go func() {
		fe, ferr := fn(fctx, name)
		g.mu.Lock()
		f.e, f.err, f.finished = fe, ferr, true
		if g.m[name] == f {
			delete(g.m, name)
		}
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return g.wait(ctx, name, f)
}

// wait blocks until the flight completes or the caller's context ends.
func (g *flightGroup) wait(ctx context.Context, name string, f *flight) (Entry, error) {
	select {
	case <-f.done:
		return f.e, f.err
	case <-ctx.Done():
		g.abandon(name, f)
		return Entry{}, ctx.Err()
	}
}

// abandon records one waiter giving up. The last waiter out cancels the
// downstream read and unmaps the flight so the next Get starts fresh instead
// of joining a read that is being torn down.
func (g *flightGroup) abandon(name string, f *flight) {
	g.mu.Lock()
	f.waiters--
	if f.waiters == 0 && !f.finished {
		if g.m[name] == f {
			delete(g.m, name)
		}
		f.cancel()
	}
	g.mu.Unlock()
}

// getTimed wraps the routed read with the streaming latency observation the
// hedge threshold derives from. Only answered reads (a hit or an
// authoritative miss) are recorded: a dead shard's timeout must not inflate
// the p95 the hedge clamp is protecting.
func (r *Router) getTimed(ctx context.Context, name string) (Entry, error) {
	start := time.Now()
	e, err := r.getRouted(ctx, name)
	if err == nil || errors.Is(err, ErrNotFound) {
		r.readLat.ObserveDuration(time.Since(start))
	}
	return e, err
}
