package registry

import (
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
)

// healthTracker is the router's per-shard circuit breaker. Every routed
// operation reports its outcome for the shard it touched; a run of
// consecutive transport failures (errors wrapping ErrUnavailable) opens the
// shard's breaker, and from that moment routing skips the shard — replica
// sets are drawn from the healthy successors instead, so a crashed shard
// costs at most `threshold` failed calls, not an error storm for its whole
// key range. A background probe re-checks down shards and, when one answers
// again, closes its breaker and notifies the router so a re-sync sweep can
// reconcile what the shard missed while it was away.
//
// Responses that carry application errors (ErrNotFound, ErrExists) count as
// successes: the shard answered, it is the data that disagreed.
//
// A healthTracker is safe for concurrent use.
type healthTracker struct {
	threshold     int           // consecutive failures that open a breaker
	probeInterval time.Duration // how often down shards are re-probed

	// probe asks one down shard whether it is answering again; healthy
	// means the breaker may close. The recover hooks bracket a breaker
	// closing (all run outside the tracker's locks): preRecover runs before
	// the shard re-enters routing (the router raises its sweep flag here, so
	// mitigations are armed before the shard can be handed operations),
	// postRecover after (the router spawns the re-sync sweep), and
	// abortRecover balances a preRecover whose CAS lost a markUp race.
	probe        func(id cloud.SiteID) bool
	preRecover   func(id cloud.SiteID)
	abortRecover func()
	postRecover  func(id cloud.SiteID)

	// breakers holds one breaker per shard, indexed by shard ID; the slice
	// is fixed at construction, so lookups take no lock.
	breakers []shardBreaker

	// mu guards the prober lifecycle fields below.
	mu       sync.Mutex
	proberUp bool
	stop     chan struct{}
	closed   bool

	// nDown counts currently-open breakers so the routing hot path can ask
	// "is anything down?" with one atomic load.
	nDown atomic.Int32

	obs healthObs
}

// shardBreaker is the breaker state of one shard.
type shardBreaker struct {
	fails atomic.Int32 // consecutive transport failures
	down  atomic.Bool  // breaker open: routing skips this shard
}

// healthObs holds the tracker's observability instruments. All fields
// tolerate being nil (instrumentation disabled).
type healthObs struct {
	downG      *metrics.Gauge   // router_shards_down: breakers currently open
	downC      *metrics.Counter // router_shard_down_total: breakers opened
	upC        *metrics.Counter // router_shard_up_total: breakers closed by a successful probe
	probes     *metrics.Counter // router_probes_total: health probes issued
	probeFails *metrics.Counter // router_probe_failures_total: probes the down shard failed
}

func newHealthObs(reg *metrics.Registry) healthObs {
	return healthObs{
		downG:      reg.Gauge("router_shards_down"),
		downC:      reg.Counter("router_shard_down_total"),
		upC:        reg.Counter("router_shard_up_total"),
		probes:     reg.Counter("router_probes_total"),
		probeFails: reg.Counter("router_probe_failures_total"),
	}
}

// Default breaker tuning: a shard is marked down after three consecutive
// transport failures and re-probed four times a second. Both are modest — the
// cost of a too-eager breaker is a spurious re-sync sweep, the cost of a
// too-lazy one is `threshold` extra failed calls per shard death.
const (
	defaultHealthThreshold = 3
	defaultProbeInterval   = 250 * time.Millisecond
)

// newHealthTracker returns a tracker over shards 0..shards-1, every breaker
// closed.
func newHealthTracker(shards, threshold int, probeInterval time.Duration, reg *metrics.Registry) *healthTracker {
	if threshold <= 0 {
		threshold = defaultHealthThreshold
	}
	if probeInterval <= 0 {
		probeInterval = defaultProbeInterval
	}
	return &healthTracker{
		threshold:     threshold,
		probeInterval: probeInterval,
		breakers:      make([]shardBreaker, shards),
		stop:          make(chan struct{}),
		obs:           newHealthObs(reg),
	}
}

// breaker returns the shard's breaker, nil for an ID outside the tier.
func (h *healthTracker) breaker(id cloud.SiteID) *shardBreaker {
	if id < 0 || int(id) >= len(h.breakers) {
		return nil
	}
	return &h.breakers[id]
}

// anyDown reports whether at least one breaker is open; the routing hot path
// uses it to keep the all-healthy case free of health bookkeeping.
func (h *healthTracker) anyDown() bool { return h.nDown.Load() > 0 }

// isDown reports whether the shard's breaker is open.
func (h *healthTracker) isDown(id cloud.SiteID) bool {
	b := h.breaker(id)
	return b != nil && b.down.Load()
}

// downShards returns the shards whose breakers are currently open, in ID
// order.
func (h *healthTracker) downShards() []cloud.SiteID {
	var out []cloud.SiteID
	for i := range h.breakers {
		if h.breakers[i].down.Load() {
			out = append(out, cloud.SiteID(i))
		}
	}
	return out
}

// reportSuccess records that an operation on the shard got an answer (even an
// application error), resetting its consecutive-failure count.
func (h *healthTracker) reportSuccess(id cloud.SiteID) {
	b := h.breaker(id)
	if b == nil || b.fails.Load() == 0 {
		return // fast path: healthy shard, nothing to reset
	}
	b.fails.Store(0)
}

// reportFailure records one transport failure on the shard; reaching the
// threshold opens the breaker and starts the probe loop.
func (h *healthTracker) reportFailure(id cloud.SiteID) {
	b := h.breaker(id)
	if b == nil {
		return
	}
	if b.fails.Add(1) >= int32(h.threshold) {
		h.markDown(id)
	}
}

// markDown opens the shard's breaker immediately, regardless of the failure
// count, and ensures the probe loop is running.
func (h *healthTracker) markDown(id cloud.SiteID) {
	b := h.breaker(id)
	if b == nil || !b.down.CompareAndSwap(false, true) {
		return
	}
	h.nDown.Add(1)
	h.obs.downG.Add(1)
	h.obs.downC.Inc()
	h.ensureProber()
}

// markUp closes the shard's breaker and notifies the router (re-sync sweep).
// It is the probe loop's recovery path and the manual override for tests and
// operators.
func (h *healthTracker) markUp(id cloud.SiteID) {
	b := h.breaker(id)
	if b == nil || !b.down.Load() {
		return
	}
	if h.preRecover != nil {
		h.preRecover(id)
	}
	if !b.down.CompareAndSwap(true, false) {
		// Lost a race against another markUp; undo our preRecover.
		if h.abortRecover != nil {
			h.abortRecover()
		}
		return
	}
	b.fails.Store(0)
	h.nDown.Add(-1)
	h.obs.downG.Add(-1)
	h.obs.upC.Inc()
	if h.postRecover != nil {
		h.postRecover(id)
	}
}

// ensureProber starts the background probe loop if it is not already
// running. The loop lives only while breakers are open: it exits once every
// shard is healthy again, so routers in healthy tiers own no goroutine.
func (h *healthTracker) ensureProber() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.proberUp || h.closed || h.probe == nil {
		return
	}
	h.proberUp = true
	go h.probeLoop()
}

// probeLoop re-probes down shards every probeInterval, closing breakers of
// shards that answer. It exits when no breaker is open or the tracker is
// closed; the exit check holds the lifecycle lock so a markDown racing the
// exit starts a fresh loop instead of being missed.
func (h *healthTracker) probeLoop() {
	ticker := time.NewTicker(h.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			h.mu.Lock()
			h.proberUp = false
			h.mu.Unlock()
			return
		case <-ticker.C:
		}
		for _, id := range h.downShards() {
			h.obs.probes.Inc()
			if h.probe(id) {
				h.markUp(id)
			} else {
				h.obs.probeFails.Inc()
			}
		}
		h.mu.Lock()
		if h.nDown.Load() == 0 || h.closed {
			h.proberUp = false
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
	}
}

// close stops the probe loop. Idempotent.
func (h *healthTracker) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	close(h.stop)
}
