package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpRead:     "read",
		OpWrite:    "write",
		OpUpdate:   "update",
		OpDelete:   "delete",
		OpSync:     "sync",
		OpKind(99): "OpKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 {
		t.Fatalf("new recorder has %d samples", r.Len())
	}
	r.Record(OpWrite, 10*time.Millisecond, false)
	r.Record(OpRead, 30*time.Millisecond, true)
	r.Record(OpRead, 20*time.Millisecond, true)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	s := r.Summarize()
	if s.Count != 3 || s.RemoteCount != 2 {
		t.Errorf("Count=%d RemoteCount=%d, want 3 and 2", s.Count, s.RemoteCount)
	}
	if s.Min != 10*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
	if s.Mean != 20*time.Millisecond {
		t.Errorf("Mean=%v, want 20ms", s.Mean)
	}
	if s.PerKind[OpRead] != 2 || s.PerKind[OpWrite] != 1 {
		t.Errorf("PerKind = %v", s.PerKind)
	}
	reads := r.SummarizeKind(OpRead)
	if reads.Count != 2 {
		t.Errorf("read summary count = %d, want 2", reads.Count)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset should clear samples")
	}
}

func TestRecorderSimConverter(t *testing.T) {
	r := NewRecorder()
	r.SetSimConverter(func(d time.Duration) time.Duration { return d * 10 })
	r.Record(OpWrite, time.Millisecond, false)
	s := r.Summarize()
	if s.Mean != 10*time.Millisecond {
		t.Errorf("Mean = %v, want 10ms after conversion", s.Mean)
	}
	// nil converter must be ignored
	r.SetSimConverter(nil)
	r.Record(OpWrite, time.Millisecond, false)
	if r.Summarize().Max != 10*time.Millisecond {
		t.Error("nil converter should have been ignored")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(OpRead, time.Millisecond, j%2 == 0)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", r.Len())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := NewRecorder()
	s := r.Summarize()
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Errorf("empty summary should be zero: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(sorted, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Errorf("P100 = %v, want 10", got)
	}
	if got := Percentile(sorted, 50); got != 5 {
		t.Errorf("P50 = %v, want 5 (interpolated 5.5 truncated to 5)", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("P50 of empty = %v, want 0", got)
	}
	if got := Percentile(sorted, -5); got != 1 {
		t.Errorf("negative percentile should clamp to min, got %v", got)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, 10*time.Second); got != 100 {
		t.Errorf("Throughput = %v, want 100", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Errorf("Throughput with zero makespan = %v, want 0", got)
	}
}

func TestMeanMinMax(t *testing.T) {
	ds := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	if Mean(ds) != 2*time.Second {
		t.Errorf("Mean = %v", Mean(ds))
	}
	if Mean(nil) != 0 {
		t.Error("an empty slice should yield 0")
	}
}

func TestProgressTimeline(t *testing.T) {
	p := NewProgress(10)
	for i := 1; i <= 10; i++ {
		p.DoneAt(time.Duration(i) * time.Second)
	}
	if p.Completed() != 10 {
		t.Fatalf("Completed = %d, want 10", p.Completed())
	}
	tl := p.Timeline([]float64{10, 50, 100})
	if tl[0].At != time.Second {
		t.Errorf("10%% at %v, want 1s", tl[0].At)
	}
	if tl[1].At != 5*time.Second {
		t.Errorf("50%% at %v, want 5s", tl[1].At)
	}
	if tl[2].At != 10*time.Second {
		t.Errorf("100%% at %v, want 10s", tl[2].At)
	}
}

func TestProgressPartialCompletion(t *testing.T) {
	p := NewProgress(100)
	for i := 1; i <= 40; i++ {
		p.DoneAt(time.Duration(i) * time.Second)
	}
	tl := p.Timeline([]float64{20, 80})
	if tl[0].At != 20*time.Second {
		t.Errorf("20%% at %v, want 20s", tl[0].At)
	}
	// 80% was never reached: clamps to the last completion.
	if tl[1].At != 40*time.Second {
		t.Errorf("80%% at %v, want clamp to 40s", tl[1].At)
	}
}

func TestProgressEmpty(t *testing.T) {
	p := NewProgress(5)
	tl := p.Timeline([]float64{50})
	if tl[0].At != 0 {
		t.Errorf("empty progress timeline should be 0, got %v", tl[0].At)
	}
}

func TestProgressDoneUsesClock(t *testing.T) {
	p := NewProgress(2)
	p.SetSimConverter(func(d time.Duration) time.Duration { return d * 2 })
	p.Done()
	p.Done()
	if p.Completed() != 2 {
		t.Errorf("Completed = %d, want 2", p.Completed())
	}
}

func TestSpeedup(t *testing.T) {
	slow := []TimelinePoint{{Percent: 50, At: 10 * time.Second}}
	fast := []TimelinePoint{{Percent: 50, At: 4 * time.Second}}
	if got := Speedup(slow, fast, 50); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("Speedup = %v, want 2.5", got)
	}
	if got := Speedup(slow, fast, 70); got != 0 {
		t.Errorf("Speedup at missing percent = %v, want 0", got)
	}
}

// Property: Percentile is monotonically non-decreasing in p and always lies
// within [min, max] of the data.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []uint32, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		p := float64(pRaw % 101)
		q := p + 10
		vp := Percentile(ds, p)
		vq := Percentile(ds, q)
		return vp >= ds[0] && vp <= ds[len(ds)-1] && vq >= vp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: summary mean is bounded by min and max.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder()
		for i, v := range raw {
			r.Record(OpRead, time.Duration(v)*time.Microsecond, i%2 == 0)
		}
		s := r.Summarize()
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Count == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
