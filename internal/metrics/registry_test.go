package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryInstrumentsAreShared(t *testing.T) {
	r := NewRegistry()
	if r.Counter("ops") != r.Counter("ops") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("depth") != r.Gauge("depth") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("lat") != r.Histogram("lat") {
		t.Fatal("same name must return the same histogram")
	}
	r.Counter("ops").Inc()
	r.Counter("ops").Add(4)
	if got := r.Counter("ops").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("depth").Add(3)
	r.Gauge("depth").Add(-1)
	if got := r.Gauge("depth").Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(7)
	r.Histogram("x").Observe(1)
	r.Trace().Add("op", "", time.Now(), time.Millisecond, "")
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-5)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10 (negative add must be ignored)", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", s.Min, s.Max)
	}
	if s.Sum != 500500 {
		t.Fatalf("sum = %d, want 500500", s.Sum)
	}
	// Power-of-two buckets are coarse; accept a factor-of-two error band.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{50, 500}, {95, 950}, {99, 990}} {
		got := s.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q%.0f = %d, want within [%d, %d]", tc.q, got, tc.want/2, tc.want*2)
		}
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %d, want min", got)
	}
	if got := s.Quantile(100); got != 1000 {
		t.Errorf("q100 = %d, want max", got)
	}
}

func TestHistogramNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("snapshot after negative observe: %+v", s)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpc_calls_total").Add(3)
	r.Gauge("queue-depth").Set(2) // '-' must be sanitized to '_'
	h := r.Histogram("lat_ns")
	h.Observe(10)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rpc_calls_total counter",
		"rpc_calls_total 3",
		"# TYPE queue_depth gauge",
		"queue_depth 2",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 110",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative le buckets must be non-decreasing.
	if strings.Index(out, `le="15"`) > strings.Index(out, `le="127"`) && strings.Contains(out, `le="15"`) {
		t.Errorf("bucket order wrong:\n%s", out)
	}
}

func TestTraceRingWrapsAndOrders(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		ring.Add("op", "", time.Now(), time.Duration(i), "")
	}
	if ring.Len() != 4 {
		t.Fatalf("len = %d, want 4", ring.Len())
	}
	if ring.Total() != 10 {
		t.Fatalf("total = %d, want 10", ring.Total())
	}
	events := ring.Events(0)
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	for i, ev := range events {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest first)", i, ev.Seq, want)
		}
	}
	if got := ring.Events(2); len(got) != 2 || got[1].Seq != 9 {
		t.Fatalf("Events(2) = %+v, want the 2 newest", got)
	}
}

func TestTraceRingRecordsErrors(t *testing.T) {
	ring := NewTraceRing(2)
	end := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ring.Add("rpc.get", "f1", end, time.Millisecond, "boom")
	events := ring.Events(0)
	if len(events) != 1 || events[0].Err != "boom" || events[0].Op != "rpc.get" || !events[0].At.Equal(end) {
		t.Fatalf("events = %+v", events)
	}
	if out := RenderEvents(events); !strings.Contains(out, "boom") || !strings.Contains(out, "rpc.get") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

func TestSummarizeEventsReusesSummaryMath(t *testing.T) {
	events := []TraceEvent{
		{Op: "core.read", Latency: 10 * time.Millisecond},
		{Op: "core.write", Latency: 30 * time.Millisecond},
		{Op: "rpc.get", Latency: 20 * time.Millisecond},
	}
	s := SummarizeEvents(events)
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Mean != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", s.Mean)
	}
	if s.PerKind[OpRead] != 2 || s.PerKind[OpWrite] != 1 {
		t.Fatalf("per-kind = %v", s.PerKind)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("ops").Inc()
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("lat").Observe(int64(j))
				r.Trace().Add("op", "", time.Now(), time.Duration(j), "")
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != 8000 {
		t.Fatalf("ops = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}
