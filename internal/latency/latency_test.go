package latency

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"geomds/internal/cloud"
)

// recordingSleeper captures requested sleep durations instead of waiting.
type recordingSleeper struct {
	slept []time.Duration
}

func (r *recordingSleeper) sleep(d time.Duration) { r.slept = append(r.slept, d) }

func newTestModel(opts ...Option) (*Model, *recordingSleeper) {
	rec := &recordingSleeper{}
	base := []Option{WithSeed(7), WithSleeper(rec.sleep)}
	return New(cloud.Azure4DC(), append(base, opts...)...), rec
}

func TestOneWayHierarchy(t *testing.T) {
	m, _ := newTestModel()
	topo := cloud.Azure4DC()
	weu, _ := topo.SiteByName(cloud.SiteWestEU)
	neu, _ := topo.SiteByName(cloud.SiteNorthEU)
	scus, _ := topo.SiteByName(cloud.SiteSouthCentralUS)

	local := m.RoundTrip(weu.ID, weu.ID, 0, 0)
	regional := m.RoundTrip(weu.ID, neu.ID, 0, 0)
	wan := m.RoundTrip(weu.ID, scus.ID, 0, 0)
	if !(local < regional && regional < wan) {
		t.Errorf("latency hierarchy violated: local=%v regional=%v wan=%v", local, regional, wan)
	}
}

func TestRoundTripAtLeastRTTMinusJitter(t *testing.T) {
	m, _ := newTestModel()
	topo := cloud.Azure4DC()
	weu, _ := topo.SiteByName(cloud.SiteWestEU)
	eus, _ := topo.SiteByName(cloud.SiteEastUS)
	link := topo.Link(weu.ID, eus.ID)
	for i := 0; i < 100; i++ {
		rt := m.RoundTrip(weu.ID, eus.ID, 0, 0)
		if rt < link.RTT-link.Jitter || rt > link.RTT+link.Jitter {
			t.Fatalf("round trip %v outside [RTT-jitter, RTT+jitter] = [%v, %v]", rt, link.RTT-link.Jitter, link.RTT+link.Jitter)
		}
	}
}

func TestBandwidthTermGrowsWithSize(t *testing.T) {
	m, _ := newTestModel(WithSeed(3))
	small := m.RoundTrip(0, 2, 1<<10, 0)
	large := m.RoundTrip(0, 2, 64<<20, 0)
	if large <= small {
		t.Errorf("64MB transfer (%v) should take longer than 1KB (%v)", large, small)
	}
}

func TestInjectAppliesScale(t *testing.T) {
	m, rec := newTestModel(WithScale(0.5))
	d, err := m.InjectRoundTrip(context.Background(), 0, 2, 0, 0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if len(rec.slept) != 1 {
		t.Fatalf("expected 1 sleep, got %d", len(rec.slept))
	}
	want := time.Duration(float64(d) * 0.5)
	got := rec.slept[0]
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("slept %v, want about %v", got, want)
	}
}

func TestInjectDuration(t *testing.T) {
	ctx := context.Background()
	m, rec := newTestModel(WithScale(0.1))
	if err := m.InjectDuration(ctx, 10*time.Second); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if len(rec.slept) != 1 {
		t.Fatalf("expected 1 sleep, got %d", len(rec.slept))
	}
	if rec.slept[0] != time.Second {
		t.Errorf("slept %v, want 1s", rec.slept[0])
	}
	m.InjectDuration(ctx, 0)
	m.InjectDuration(ctx, -time.Second)
	if len(rec.slept) != 1 {
		t.Error("non-positive durations should not sleep")
	}
	m.Sleeper()(20 * time.Second)
	if len(rec.slept) != 2 || rec.slept[1] != 2*time.Second {
		t.Errorf("Sleeper slept %v, want a second wait of 2s", rec.slept)
	}
}

func TestPreciseSleepContextShortWaits(t *testing.T) {
	ctx := context.Background()
	if err := PreciseSleepContext(ctx, 0); err != nil {
		t.Fatalf("zero wait: %v", err)
	}
	// Below spinThreshold the wait spins instead of sleeping on a timer.
	start := time.Now()
	if err := PreciseSleepContext(ctx, 200*time.Microsecond); err != nil {
		t.Fatalf("short wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Microsecond {
		t.Fatalf("short wait returned after %v, want at least 200µs", elapsed)
	}
}

func TestInjectHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, rec := newTestModel()
	if err := m.InjectDuration(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Errorf("InjectDuration error = %v, want context.Canceled", err)
	}
	if len(rec.slept) != 0 {
		t.Errorf("cancelled inject slept %v, want no sleep", rec.slept)
	}
	if _, err := m.InjectRoundTrip(ctx, 0, 2, 0, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("InjectRoundTrip error = %v, want context.Canceled", err)
	}
	// The exchange is still accounted: the message was modelled as sent.
	if m.Stats()[cloud.GeoDistant].Messages+m.Stats()[cloud.SameRegion].Messages+m.Stats()[cloud.Local].Messages != 1 {
		t.Error("cancelled round trip should still be accounted")
	}
}

func TestPreciseSleepContextUnblocksOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := PreciseSleepContext(ctx, 10*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sleep not interrupted: took %v", elapsed)
	}
}

func TestToSimulatedRoundTripsToWall(t *testing.T) {
	m, _ := newTestModel(WithScale(0.02))
	sim := 500 * time.Second
	wall := m.ToWall(sim)
	back := m.ToSimulated(wall)
	if back < sim-time.Millisecond || back > sim+time.Millisecond {
		t.Errorf("ToSimulated(ToWall(%v)) = %v", sim, back)
	}
}

func TestWithScaleRejectsNonPositive(t *testing.T) {
	for _, scale := range []float64{-3, 0} {
		m, _ := newTestModel(WithScale(scale))
		if got := m.ToSimulated(time.Second); got != time.Second {
			t.Errorf("WithScale(%v): ToSimulated(1s) = %v, want 1s (the scale ignored)", scale, got)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	m, _ := newTestModel()
	topo := cloud.Azure4DC()
	weu, _ := topo.SiteByName(cloud.SiteWestEU)
	neu, _ := topo.SiteByName(cloud.SiteNorthEU)
	scus, _ := topo.SiteByName(cloud.SiteSouthCentralUS)

	ctx := context.Background()
	m.InjectRoundTrip(ctx, weu.ID, weu.ID, 0, 0)
	m.InjectRoundTrip(ctx, weu.ID, neu.ID, 0, 0)
	m.InjectRoundTrip(ctx, weu.ID, neu.ID, 0, 0)
	m.InjectRoundTrip(ctx, weu.ID, scus.ID, 0, 0)

	stats := m.Stats()
	if stats[cloud.Local].Messages != 1 {
		t.Errorf("local messages = %d, want 1", stats[cloud.Local].Messages)
	}
	if stats[cloud.SameRegion].Messages != 2 {
		t.Errorf("same-region messages = %d, want 2", stats[cloud.SameRegion].Messages)
	}
	if stats[cloud.GeoDistant].Messages != 1 {
		t.Errorf("geo-distant messages = %d, want 1", stats[cloud.GeoDistant].Messages)
	}
	if stats[cloud.GeoDistant].Injected <= stats[cloud.Local].Injected {
		t.Error("geo-distant injected time should exceed local injected time")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a, _ := newTestModel(WithSeed(42))
	b, _ := newTestModel(WithSeed(42))
	for i := 0; i < 50; i++ {
		da := a.RoundTrip(0, 3, 128, 128)
		db := b.RoundTrip(0, 3, 128, 128)
		if da != db {
			t.Fatalf("iteration %d: %v != %v with same seed", i, da, db)
		}
	}
}

// Property: modelled delays are never negative, for any pair of sites and
// any request size.
func TestOneWayProperties(t *testing.T) {
	m, _ := newTestModel(WithSeed(11))
	n := cloud.Azure4DC().NumSites()
	f := func(aRaw, bRaw uint8, size uint16) bool {
		a := cloud.SiteID(int(aRaw) % n)
		b := cloud.SiteID(int(bRaw) % n)
		small := m.RoundTrip(a, b, int(size), 0)
		big := m.RoundTrip(a, b, int(size)+1<<20, 0)
		return small >= 0 && big >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round-trip modelled delay is always at least as large as the
// deterministic part of the one-way delay (RTT/2 - jitter).
func TestRoundTripLowerBoundProperty(t *testing.T) {
	m, _ := newTestModel(WithSeed(13))
	topo := cloud.Azure4DC()
	n := topo.NumSites()
	f := func(aRaw, bRaw uint8) bool {
		a := cloud.SiteID(int(aRaw) % n)
		b := cloud.SiteID(int(bRaw) % n)
		link := topo.Link(a, b)
		rt := m.RoundTrip(a, b, 0, 0)
		return rt >= link.RTT-link.Jitter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
