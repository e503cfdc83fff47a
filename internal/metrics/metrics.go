// Package metrics collects and summarizes measurements produced by the
// metadata service and the workflow engine: per-operation latencies,
// aggregate throughput and completion-progress timelines.
//
// The experiment harness (internal/experiments) uses these summaries to
// regenerate the figures of the paper: latency distributions (Fig. 1),
// makespans (Figs. 5, 8, 10), progress curves (Fig. 6) and throughput
// scaling (Fig. 7).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// OpKind identifies the type of a metadata operation.
type OpKind int

const (
	// OpRead is a metadata lookup (get).
	OpRead OpKind = iota
	// OpWrite is the publication of a new metadata entry (put), which per the
	// paper consists of a look-up followed by the actual write.
	OpWrite
	// OpUpdate modifies an existing entry (e.g. adds a replica location).
	OpUpdate
	// OpDelete removes an entry.
	OpDelete
	// OpSync is a synchronization-agent or lazy-propagation transfer.
	OpSync
)

// String returns a short name for the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpSync:
		return "sync"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Sample is one recorded operation.
type Sample struct {
	// Kind is the operation type.
	Kind OpKind
	// Latency is the operation's duration in simulated time.
	Latency time.Duration
	// Remote records whether the operation left the caller's datacenter.
	Remote bool
	// At is the simulated time offset (since recorder start) of completion.
	At time.Duration
}

// Recorder accumulates operation samples. It is safe for concurrent use; the
// execution nodes of an experiment share a single recorder.
type Recorder struct {
	mu      sync.Mutex
	samples []Sample
	start   time.Time
	now     func() time.Time
	// toSim converts wall-clock durations into simulated time; identity by
	// default, set by the experiment harness when latencies are scaled.
	toSim func(time.Duration) time.Duration
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	r := &Recorder{now: time.Now, toSim: func(d time.Duration) time.Duration { return d }}
	r.start = r.now()
	return r
}

// SetSimConverter installs a wall-clock → simulated-time converter applied to
// every subsequently recorded latency and timestamp.
func (r *Recorder) SetSimConverter(toSim func(time.Duration) time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if toSim != nil {
		r.toSim = toSim
	}
}

// Reset discards all samples and restarts the clock.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = r.samples[:0]
	r.start = r.now()
}

// Record adds one sample with the given wall-clock latency, stamping it with
// the current offset from the recorder's start.
func (r *Recorder) Record(kind OpKind, wallLatency time.Duration, remote bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, Sample{
		Kind:    kind,
		Latency: r.toSim(wallLatency),
		Remote:  remote,
		At:      r.toSim(r.now().Sub(r.start)),
	})
}

// Len returns the number of recorded samples.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Samples returns a copy of all samples recorded so far.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// Summary aggregates the recorded samples.
type Summary struct {
	// Count is the total number of operations.
	Count int
	// RemoteCount is the number of operations that crossed datacenters.
	RemoteCount int
	// Mean, Median, P95, P99, Min and Max summarize the latency distribution.
	Mean, Median, P95, P99, Min, Max time.Duration
	// StdDev is the latency standard deviation.
	StdDev time.Duration
	// Total is the sum of all latencies.
	Total time.Duration
	// PerKind counts operations by kind.
	PerKind map[OpKind]int
}

// Summarize computes a Summary over all recorded samples. An empty recorder
// yields a zero Summary.
func (r *Recorder) Summarize() Summary {
	return summarize(r.Samples())
}

// SummarizeKind computes a Summary restricted to one operation kind.
func (r *Recorder) SummarizeKind(kind OpKind) Summary {
	all := r.Samples()
	var filtered []Sample
	for _, s := range all {
		if s.Kind == kind {
			filtered = append(filtered, s)
		}
	}
	return summarize(filtered)
}

func summarize(samples []Sample) Summary {
	s := Summary{PerKind: make(map[OpKind]int)}
	if len(samples) == 0 {
		return s
	}
	lat := make([]time.Duration, 0, len(samples))
	for _, smp := range samples {
		lat = append(lat, smp.Latency)
		s.Total += smp.Latency
		s.PerKind[smp.Kind]++
		if smp.Remote {
			s.RemoteCount++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.Count = len(lat)
	s.Min = lat[0]
	s.Max = lat[len(lat)-1]
	s.Mean = s.Total / time.Duration(len(lat))
	s.Median = Percentile(lat, 50)
	s.P95 = Percentile(lat, 95)
	s.P99 = Percentile(lat, 99)
	var variance float64
	mean := float64(s.Mean)
	for _, l := range lat {
		d := float64(l) - mean
		variance += d * d
	}
	variance /= float64(len(lat))
	s.StdDev = time.Duration(math.Sqrt(variance))
	return s
}

// Percentile returns the p-th percentile (0-100) of an ascending-sorted
// slice of durations, interpolating linearly between the two nearest ranks.
// It returns 0 for an empty slice.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// Throughput returns the aggregate operation rate (operations per simulated
// second) over the given makespan. It returns 0 for a non-positive makespan.
func Throughput(ops int, makespan time.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(ops) / makespan.Seconds()
}

// Mean returns the arithmetic mean of the durations (0 for an empty slice).
func Mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
