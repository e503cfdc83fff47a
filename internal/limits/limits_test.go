package limits

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"geomds/internal/metrics"
)

func TestTenantContext(t *testing.T) {
	ctx := context.Background()
	if got := TenantFromContext(ctx); got != "" {
		t.Fatalf("empty context tenant = %q, want \"\"", got)
	}
	ctx = WithTenant(ctx, "acme")
	if got := TenantFromContext(ctx); got != "acme" {
		t.Fatalf("tenant = %q, want acme", got)
	}
	// Empty tenant attaches nothing and keeps the existing value.
	if got := TenantFromContext(WithTenant(ctx, "")); got != "acme" {
		t.Fatalf("tenant after empty WithTenant = %q, want acme", got)
	}
	if got := TenantFromContext(nil); got != "" { //nolint:staticcheck // nil-tolerance is the contract under test
		t.Fatalf("nil context tenant = %q, want \"\"", got)
	}
}

func TestOverloadError(t *testing.T) {
	err := error(&Overload{Tenant: "acme", Reason: ReasonRate, RetryAfter: 250 * time.Millisecond})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("Overload does not wrap ErrOverloaded")
	}
	if !strings.Contains(err.Error(), "acme") || !strings.Contains(err.Error(), "rate") {
		t.Fatalf("error text %q missing tenant/reason", err)
	}
	if d, ok := RetryAfter(err); !ok || d != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v,%v; want 250ms,true", d, ok)
	}
	anon := error(&Overload{Reason: ReasonInflight, RetryAfter: time.Millisecond})
	if strings.Contains(anon.Error(), "tenant") {
		t.Fatalf("anonymous overload text %q should not name a tenant", anon)
	}
	if _, ok := RetryAfter(errors.New("other")); ok {
		t.Fatal("RetryAfter matched a non-overload error")
	}
}

func TestTokenBucketTake(t *testing.T) {
	b := NewTokenBucket(10, 5)
	now := time.Now()
	for i := 0; i < 5; i++ {
		if ok, _ := b.take(now, 1); !ok {
			t.Fatalf("take %d of burst failed", i)
		}
	}
	ok, wait := b.take(now, 1)
	if ok {
		t.Fatal("take beyond burst succeeded")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s]", wait)
	}
	// After 100ms one token (rate 10/s) has refilled.
	if ok, _ := b.take(now.Add(100*time.Millisecond), 1); !ok {
		t.Fatal("take after refill failed")
	}
	// A request larger than the burst gets a finite hint capped at the
	// full-burst refill time.
	_, wait = b.take(now.Add(100*time.Millisecond), 100)
	if wait > 500*time.Millisecond+time.Millisecond {
		t.Fatalf("oversized take hint = %v, want <= burst/rate = 500ms", wait)
	}
}

// TestTokenBucketStaleClockIsNotCreditedTwice replays the interleaving of two
// concurrent Takes whose clock readings reach the lock out of order: the
// stale reading must not move the refill mark backwards, or the interval
// between the two readings is handed out a second time.
func TestTokenBucketStaleClockIsNotCreditedTwice(t *testing.T) {
	b := NewTokenBucket(1000, 1000)
	t0 := time.Now()
	if ok, _ := b.take(t0, 1000); !ok { // drain the initial burst
		t.Fatal("draining take failed")
	}
	for _, step := range []struct {
		at   time.Duration
		want float64 // tokens in the bucket after refilling at t0+at
	}{
		{10 * time.Millisecond, 10},
		{5 * time.Millisecond, 10}, // lost the lock race: already paid for
		{10 * time.Millisecond, 10},
	} {
		b.take(t0.Add(step.at), 0)
		if got := b.tokens; got < step.want-1e-6 || got > step.want+1e-6 {
			t.Fatalf("after take at t0+%v the bucket holds %.3f tokens, want %.0f", step.at, got, step.want)
		}
	}
}

func TestTokenBucketUnlimitedAndDeny(t *testing.T) {
	unlimited := NewTokenBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := unlimited.Take(1); !ok {
			t.Fatal("unlimited bucket refused a take")
		}
	}
	deny := NewTokenBucket(-1, 0)
	if ok, wait := deny.Take(1); ok || wait <= 0 {
		t.Fatalf("deny bucket: ok=%v wait=%v, want refusal with positive hint", ok, wait)
	}
	// give on a non-refilling bucket is a no-op.
	deny.give(5)
	if deny.Tokens() != 0 {
		t.Fatal("give on deny bucket changed tokens")
	}
}

func TestTokenBucketBurstDefaultAndClamp(t *testing.T) {
	b := NewTokenBucket(7, 0) // burst defaults to one second's worth
	if got := b.Tokens(); got != 7 {
		t.Fatalf("default burst tokens = %v, want 7", got)
	}
	b.SetLimit(7, 3) // clamp accumulated tokens down to new capacity
	if got := b.Tokens(); got > 3 {
		t.Fatalf("tokens after clamp = %v, want <= 3", got)
	}
	b.give(100)
	if got := b.Tokens(); got > 3 {
		t.Fatalf("tokens after give = %v, want capped at 3", got)
	}
}

func TestLimiterAdmitAndFinish(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Config{Default: TenantLimit{OpsPerSec: 1000, OpsBurst: 10}}, reg)
	finish, err := l.Admit("", 1, 100)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if got := l.Inflight(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	finish(3 * time.Millisecond)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after finish = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["limits_admitted_total"] != 1 {
		t.Fatalf("limits_admitted_total = %d, want 1", snap.Counters["limits_admitted_total"])
	}
	// Empty tenant maps to DefaultTenant.
	if snap.Counters["limits_tenant_default_admitted_total"] != 1 {
		t.Fatal("empty tenant was not accounted as default")
	}
	if h, ok := snap.Histograms["limits_tenant_default_latency_ns"]; !ok || h.Count != 1 {
		t.Fatal("finish did not record per-tenant latency")
	}
}

func TestLimiterRateRejection(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Config{
		Default: TenantLimit{OpsPerSec: 1000},
		Tenants: map[string]TenantLimit{"abuser": {OpsPerSec: 0.001, OpsBurst: 2}},
	}, reg)
	for i := 0; i < 2; i++ {
		finish, err := l.Admit("abuser", 1, 0)
		if err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
		finish(0)
	}
	_, err := l.Admit("abuser", 1, 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit admit error = %v, want ErrOverloaded", err)
	}
	var o *Overload
	if !errors.As(err, &o) || o.Reason != ReasonRate || o.Tenant != "abuser" || o.RetryAfter <= 0 {
		t.Fatalf("overload = %+v, want rate/abuser with positive retry-after", o)
	}
	snap := reg.Snapshot()
	if snap.Counters["limits_rejected_total"] != 1 || snap.Counters["limits_rejected_rate_total"] != 1 {
		t.Fatalf("rejection counters = %v", snap.Counters)
	}
	if snap.Counters["limits_tenant_abuser_rejected_total"] != 1 {
		t.Fatal("per-tenant rejection not counted")
	}
	// Other tenants are unaffected.
	if _, err := l.Admit("good", 1, 0); err != nil {
		t.Fatalf("well-behaved tenant rejected: %v", err)
	}
}

func TestLimiterBytesRejectionRefundsOps(t *testing.T) {
	l := New(Config{
		Tenants: map[string]TenantLimit{
			"t": {OpsPerSec: 0.001, OpsBurst: 1, BytesPerSec: 0.001, BytesBurst: 10},
		},
	}, nil)
	_, err := l.Admit("t", 1, 100) // bytes over burst; ops token must be refunded
	var o *Overload
	if !errors.As(err, &o) || o.Reason != ReasonBytes {
		t.Fatalf("err = %v, want bytes overload", err)
	}
	// The single ops token was given back, so a small request still fits.
	if _, err := l.Admit("t", 1, 5); err != nil {
		t.Fatalf("ops token was not refunded: %v", err)
	}
}

func TestLimiterInflightShedding(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Config{MaxInflight: 2, ShedRetryAfter: Duration(20 * time.Millisecond)}, reg)
	f1, err1 := l.Admit("a", 1, 0)
	_, err2 := l.Admit("b", 1, 0)
	if err1 != nil || err2 != nil {
		t.Fatalf("admits under ceiling failed: %v %v", err1, err2)
	}
	_, err := l.Admit("c", 1, 0)
	var o *Overload
	if !errors.As(err, &o) || o.Reason != ReasonInflight {
		t.Fatalf("err = %v, want inflight shed", err)
	}
	if o.RetryAfter != 20*time.Millisecond {
		t.Fatalf("shed retry-after = %v, want configured 20ms", o.RetryAfter)
	}
	// Shedding is attributed to the tenant without creating table state.
	if l.Tenants() != 2 {
		t.Fatalf("tenants = %d, want 2 (shed must not grow the table)", l.Tenants())
	}
	if reg.Snapshot().Counters["limits_tenant_c_rejected_total"] != 1 {
		t.Fatal("shed rejection not attributed to tenant")
	}
	f1(0)
	if _, err := l.Admit("c", 1, 0); err != nil {
		t.Fatalf("admit after slot freed: %v", err)
	}
}

func TestLimiterOpsFloor(t *testing.T) {
	// ops < 1 is clamped to 1 so malformed frames still pay admission:
	// with a single-token burst and negligible refill, the second
	// zero-op admit must fail.
	l := New(Config{Default: TenantLimit{OpsPerSec: 0.0001, OpsBurst: 1}}, nil)
	finish, err := l.Admit("t", 0, 0)
	if err != nil {
		t.Fatalf("first zero-op admit: %v", err)
	}
	finish(0)
	if _, err := l.Admit("t", 0, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second zero-op admit = %v, want overloaded (ops not clamped?)", err)
	}
}

// mustTenant exposes table state for tests.
func (l *Limiter) mustTenant(id string) *tenantState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tenants[id]
}

func TestLimiterIdleEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Config{MaxTenants: 2, IdleAfter: Duration(time.Minute)}, reg)
	l.Admit("old", 1, 0)
	l.Admit("fresh", 1, 0)
	// Backdate "old" past the idle horizon.
	l.mu.Lock()
	l.tenants["old"].lastUsed = time.Now().Add(-2 * time.Minute)
	l.mu.Unlock()
	l.Admit("new", 1, 0)
	if l.mustTenant("old") != nil {
		t.Fatal("idle tenant survived eviction")
	}
	if l.mustTenant("fresh") == nil || l.mustTenant("new") == nil {
		t.Fatal("active tenants evicted")
	}
	if reg.Snapshot().Counters["limits_evicted_tenants_total"] != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestLimiterLRUEvictionWhenNoneIdle(t *testing.T) {
	l := New(Config{MaxTenants: 2, IdleAfter: Duration(time.Hour)}, nil)
	l.Admit("first", 1, 0)
	time.Sleep(time.Millisecond)
	l.Admit("second", 1, 0)
	time.Sleep(time.Millisecond)
	l.Admit("third", 1, 0) // nobody idle: the least recently used goes
	if l.mustTenant("first") != nil {
		t.Fatal("LRU tenant survived full-table admit")
	}
	if l.Tenants() != 2 {
		t.Fatalf("tenants = %d, want 2", l.Tenants())
	}
}

func TestLimiterUpdateConfig(t *testing.T) {
	l := New(Config{Tenants: map[string]TenantLimit{"t": {OpsPerSec: 0.001, OpsBurst: 1}}}, nil)
	finish, err := l.Admit("t", 1, 0)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	finish(0)
	if _, err := l.Admit("t", 1, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("pre-reload admit = %v, want overloaded", err)
	}
	// Reload with a generous budget: the existing tenant's buckets are
	// rewritten in place. Accumulated tokens survive the reload, so give
	// the new 1000/s rate a few ms to refill before admitting.
	l.UpdateConfig(Config{Tenants: map[string]TenantLimit{"t": {OpsPerSec: 1000, OpsBurst: 100}}})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := l.Admit("t", 1, 0); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("post-reload admit still failing: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := l.Config().Tenants["t"].OpsPerSec; got != 1000 {
		t.Fatalf("Config().Tenants[t].OpsPerSec = %v, want 1000", got)
	}
	var nilL *Limiter
	nilL.UpdateConfig(Config{}) // must not panic
}

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	finish, err := l.Admit("anyone", 1000, 1<<30)
	if err != nil {
		t.Fatalf("nil limiter rejected: %v", err)
	}
	finish(time.Second)
	if l.Inflight() != 0 || l.Tenants() != 0 {
		t.Fatal("nil limiter reported state")
	}
}
