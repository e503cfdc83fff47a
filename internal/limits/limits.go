// Package limits implements per-tenant admission control for the metadata
// tier: token-bucket rate limiting over operations and bytes, a bounded
// tenant table with idle eviction, and in-flight load shedding that rejects
// cheap-to-reject work before any shard is touched.
//
// The server asks the Limiter for admission once per decoded frame, before
// dispatching to the registry. Rejections carry a typed *Overload error (a
// wrapper around ErrOverloaded) with a retry-after hint so clients can back
// off instead of retrying into the same overload. Tenants are identified by
// opaque string IDs propagated in the wire frame header; an empty ID maps to
// DefaultTenant.
package limits

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/metrics"
)

// DefaultTenant is the tenant that requests without an explicit tenant ID
// are accounted against. Clients that predate the tenant header field always
// map here.
const DefaultTenant = "default"

type tenantCtxKey struct{}

// WithTenant returns a context carrying the given tenant ID. Clients read it
// back with TenantFromContext when stamping outgoing frame headers, so a
// per-call tenant overrides any client-wide default.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext returns the tenant ID carried by ctx, or "" when none
// was attached.
func TenantFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}

// ErrOverloaded is the sentinel matched by errors.Is for any admission
// rejection — rate limit, byte quota, or load shed. It is distinct from
// context.DeadlineExceeded: the request was never started, so retrying after
// the hint in RetryAfter is safe and will not duplicate work.
var ErrOverloaded = errors.New("overloaded")

// Reason classifies why admission was refused.
type Reason string

const (
	// ReasonRate means the tenant's operation token bucket was empty.
	ReasonRate Reason = "rate"
	// ReasonBytes means the tenant's byte quota bucket was empty.
	ReasonBytes Reason = "bytes"
	// ReasonInflight means the server-wide in-flight ceiling was reached
	// (load shedding; independent of any single tenant's behaviour).
	ReasonInflight Reason = "inflight"
)

// Overload is the typed admission failure. It wraps ErrOverloaded so both
// errors.Is(err, ErrOverloaded) and errors.As(err, *Overload) work, and it
// carries the retry-after hint that crosses the wire alongside the
// "overloaded" error code.
type Overload struct {
	Tenant     string
	Reason     Reason
	RetryAfter time.Duration
}

func (o *Overload) Error() string {
	if o.Tenant == "" {
		return fmt.Sprintf("overloaded (%s): retry after %v", o.Reason, o.RetryAfter)
	}
	return fmt.Sprintf("tenant %q overloaded (%s): retry after %v", o.Tenant, o.Reason, o.RetryAfter)
}

func (o *Overload) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the backoff hint from any error chain containing an
// *Overload. ok is false when err carries no hint.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var o *Overload
	if errors.As(err, &o) {
		return o.RetryAfter, true
	}
	return 0, false
}

// TokenBucket is a classic token bucket: it holds up to burst tokens and
// refills at rate tokens per second. Take is safe for concurrent use.
//
// A rate of 0 means unlimited (Take always succeeds); a negative rate means
// deny everything (Take always fails). A burst of 0 with a positive rate
// defaults to one second's worth of tokens.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket with the given refill rate
// (tokens/second) and capacity.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	b := &TokenBucket{}
	b.SetLimit(rate, burst)
	return b
}

// SetLimit replaces the bucket's rate and burst, clamping the current token
// count to the new capacity. Used by config reload.
func (b *TokenBucket) SetLimit(rate, burst float64) {
	if burst <= 0 && rate > 0 {
		burst = rate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate = rate
	b.burst = burst
	if b.last.IsZero() {
		b.tokens = burst
	} else if b.tokens > burst {
		b.tokens = burst
	}
}

// Take removes n tokens if available and reports success. On failure it
// returns how long the caller should wait for n tokens to accrue (capped at
// the time to refill the full burst, so a request larger than the burst gets
// a finite hint rather than "never").
func (b *TokenBucket) Take(n float64) (bool, time.Duration) {
	return b.take(time.Now(), n)
}

func (b *TokenBucket) take(now time.Time, n float64) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate == 0 {
		return true, 0
	}
	if b.rate < 0 {
		return false, time.Second
	}
	b.refill(now)
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	if need > b.burst {
		need = b.burst
	}
	wait := time.Duration(need / b.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return false, wait
}

// give returns tokens taken optimistically (e.g. the ops cost of a request
// whose byte quota then failed), without exceeding capacity.
func (b *TokenBucket) give(n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return
	}
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// refill credits the time elapsed since the last refill. Take reads the clock
// before it gets the lock, so now may be older than last when a later caller
// won the race; last never moves backwards, or the next caller would be
// credited the same interval twice.
func (b *TokenBucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Tokens reports the current token count after refilling to now. For gauges
// and tests.
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate > 0 {
		b.refill(time.Now())
	}
	return b.tokens
}

// Limiter makes admission decisions for a server. One Limiter guards one
// listener; all its methods are safe for concurrent use and a nil *Limiter
// admits everything (so the server's enforcement hook needs no branching).
type Limiter struct {
	reg      *metrics.Registry
	inflight atomic.Int64

	// Shed parameters live outside cfg/mu so the load-shedding fast path
	// (and its race against SIGHUP reloads) stays lock-free.
	maxInflight    atomic.Int64
	shedRetryAfter atomic.Int64 // nanoseconds

	admitted      *metrics.Counter
	rejected      *metrics.Counter
	rejectedByWhy map[Reason]*metrics.Counter
	evictions     *metrics.Counter
	tenantsGauge  *metrics.Gauge
	inflightGauge *metrics.Gauge

	mu      sync.Mutex
	cfg     Config
	tenants map[string]*tenantState
}

// tenantState is the lazily created per-tenant record: buckets, last-use
// time for idle eviction, and cached per-tenant instruments.
type tenantState struct {
	id       string
	ops      *TokenBucket
	bytes    *TokenBucket
	lastUsed time.Time

	admitted *metrics.Counter
	rejected *metrics.Counter
	tokens   *metrics.Gauge
	latency  *metrics.Histogram
}

// New returns a Limiter enforcing cfg (normalized via cfg.withDefaults) and
// reporting to reg. reg may be nil; metrics become no-ops.
func New(cfg Config, reg *metrics.Registry) *Limiter {
	l := &Limiter{
		reg:           reg,
		admitted:      reg.Counter("limits_admitted_total"),
		rejected:      reg.Counter("limits_rejected_total"),
		evictions:     reg.Counter("limits_evicted_tenants_total"),
		tenantsGauge:  reg.Gauge("limits_tenants"),
		inflightGauge: reg.Gauge("limits_inflight"),
		rejectedByWhy: map[Reason]*metrics.Counter{
			ReasonRate:     reg.Counter("limits_rejected_rate_total"),
			ReasonBytes:    reg.Counter("limits_rejected_bytes_total"),
			ReasonInflight: reg.Counter("limits_rejected_inflight_total"),
		},
		cfg:     cfg.withDefaults(),
		tenants: make(map[string]*tenantState),
	}
	l.maxInflight.Store(int64(l.cfg.MaxInflight))
	l.shedRetryAfter.Store(int64(l.cfg.ShedRetryAfter))
	return l
}

// UpdateConfig swaps in a new configuration (SIGHUP reload). Existing
// tenants get their bucket limits rewritten in place so accumulated tokens
// and in-flight accounting survive the reload.
func (l *Limiter) UpdateConfig(cfg Config) {
	if l == nil {
		return
	}
	cfg = cfg.withDefaults()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cfg = cfg
	l.maxInflight.Store(int64(cfg.MaxInflight))
	l.shedRetryAfter.Store(int64(cfg.ShedRetryAfter))
	for id, t := range l.tenants {
		lim := cfg.limitFor(id)
		t.ops.SetLimit(lim.OpsPerSec, lim.OpsBurst)
		t.bytes.SetLimit(lim.BytesPerSec, lim.BytesBurst)
	}
}

// Config returns a copy of the active configuration.
func (l *Limiter) Config() Config {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg
}

// Inflight reports the number of currently admitted, unfinished requests.
func (l *Limiter) Inflight() int64 {
	if l == nil {
		return 0
	}
	return l.inflight.Load()
}

// Admit decides whether a request of ops operations and bytes payload bytes
// from the given tenant (empty = DefaultTenant) may proceed. On success it
// returns a finish func that the caller MUST invoke exactly once when the
// request completes, passing the observed service latency (0 if not
// measured); finish releases the in-flight slot and records the per-tenant
// latency. On failure it returns a *Overload error and no work may be done.
//
// The in-flight ceiling is checked first: shedding must stay cheap when the
// server is drowning, so it touches no per-tenant state.
func (l *Limiter) Admit(tenant string, ops int, bytes int) (finish func(time.Duration), err error) {
	if l == nil {
		return func(time.Duration) {}, nil
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	if ops < 1 {
		ops = 1
	}

	if max := l.maxInflight.Load(); max > 0 && l.inflight.Load() >= max {
		l.reject(nil, tenant, ReasonInflight)
		return nil, &Overload{Tenant: tenant, Reason: ReasonInflight, RetryAfter: time.Duration(l.shedRetryAfter.Load())}
	}

	t := l.tenant(tenant)
	now := time.Now()
	if ok, wait := t.ops.take(now, float64(ops)); !ok {
		l.reject(t, tenant, ReasonRate)
		return nil, &Overload{Tenant: tenant, Reason: ReasonRate, RetryAfter: wait}
	}
	if bytes > 0 {
		if ok, wait := t.bytes.take(now, float64(bytes)); !ok {
			t.ops.give(float64(ops)) // byte quota refused; undo the ops debit
			l.reject(t, tenant, ReasonBytes)
			return nil, &Overload{Tenant: tenant, Reason: ReasonBytes, RetryAfter: wait}
		}
	}

	n := l.inflight.Add(1)
	l.inflightGauge.Set(n)
	l.admitted.Inc()
	t.admitted.Inc()
	t.tokens.Set(int64(t.ops.Tokens()))
	return func(elapsed time.Duration) {
		l.inflightGauge.Set(l.inflight.Add(-1))
		if elapsed > 0 {
			t.latency.ObserveDuration(elapsed)
		}
	}, nil
}

func (l *Limiter) reject(t *tenantState, tenant string, why Reason) {
	l.rejected.Inc()
	l.rejectedByWhy[why].Inc()
	if t != nil {
		t.rejected.Inc()
	} else if l.reg != nil {
		// Shed before the tenant table was touched; still attribute it.
		l.reg.Counter("limits_tenant_" + tenant + "_rejected_total").Inc()
	}
}

// tenant returns the state for id, creating it on first use. When the table
// is full, idle tenants (unused for cfg.IdleAfter) are evicted first; if
// none are idle the least recently used tenant goes, so a new tenant can
// always be admitted and accounted.
func (l *Limiter) tenant(id string) *tenantState {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tenants[id]
	if t == nil {
		if len(l.tenants) >= l.cfg.MaxTenants {
			l.evictLocked()
		}
		lim := l.cfg.limitFor(id)
		t = &tenantState{
			id:       id,
			ops:      NewTokenBucket(lim.OpsPerSec, lim.OpsBurst),
			bytes:    NewTokenBucket(lim.BytesPerSec, lim.BytesBurst),
			admitted: l.reg.Counter("limits_tenant_" + id + "_admitted_total"),
			rejected: l.reg.Counter("limits_tenant_" + id + "_rejected_total"),
			tokens:   l.reg.Gauge("limits_tenant_" + id + "_tokens"),
			latency:  l.reg.Histogram("limits_tenant_" + id + "_latency_ns"),
		}
		l.tenants[id] = t
		l.tenantsGauge.Set(int64(len(l.tenants)))
	}
	t.lastUsed = time.Now()
	return t
}

// evictLocked frees at least one table slot: every tenant idle longer than
// IdleAfter goes; if that frees nothing, the least recently used tenant
// does. Caller holds l.mu.
func (l *Limiter) evictLocked() {
	now := time.Now()
	idle := l.cfg.IdleAfter.D()
	var oldest *tenantState
	evicted := 0
	for _, t := range l.tenants {
		if now.Sub(t.lastUsed) >= idle {
			delete(l.tenants, t.id)
			evicted++
			continue
		}
		if oldest == nil || t.lastUsed.Before(oldest.lastUsed) {
			oldest = t
		}
	}
	if evicted == 0 && oldest != nil {
		delete(l.tenants, oldest.id)
		evicted++
	}
	l.evictions.Add(int64(evicted))
	l.tenantsGauge.Set(int64(len(l.tenants)))
}

// Tenants reports the number of tenants currently tracked. For tests and
// the stats renderer.
func (l *Limiter) Tenants() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tenants)
}
