package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Progress tracks how many operations of a known total have completed over
// time, producing the completion-percentage timeline plotted in Fig. 6 of
// the paper ("Percentage of operations completed along time").
//
// A Progress is safe for concurrent use by many execution nodes.
type Progress struct {
	mu    sync.Mutex
	total int
	// completions holds the simulated timestamp of each completed operation.
	completions []time.Duration
	start       time.Time
	now         func() time.Time
	toSim       func(time.Duration) time.Duration
}

// NewProgress returns a tracker for a workload of total operations.
func NewProgress(total int) *Progress {
	p := &Progress{
		total: total,
		now:   time.Now,
		toSim: func(d time.Duration) time.Duration { return d },
	}
	p.start = p.now()
	return p
}

// SetSimConverter installs a wall-clock → simulated-time converter applied to
// every subsequently recorded completion timestamp.
func (p *Progress) SetSimConverter(toSim func(time.Duration) time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if toSim != nil {
		p.toSim = toSim
	}
}

// Done records the completion of one operation at the current time.
func (p *Progress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completions = append(p.completions, p.toSim(p.now().Sub(p.start)))
}

// DoneAt records the completion of one operation at an explicit simulated
// offset; used when replaying pre-computed schedules.
func (p *Progress) DoneAt(at time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completions = append(p.completions, at)
}

// Completed returns the number of operations recorded so far.
func (p *Progress) Completed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.completions)
}

// Timeline returns, for each requested completion percentage (0-100), the
// simulated time at which that fraction of the total operations had
// completed. Percentages beyond the recorded completions map to the time of
// the last completion. An empty tracker returns zeros.
func (p *Progress) Timeline(percentages []float64) []TimelinePoint {
	p.mu.Lock()
	comps := make([]time.Duration, len(p.completions))
	copy(comps, p.completions)
	total := p.total
	p.mu.Unlock()

	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	out := make([]TimelinePoint, 0, len(percentages))
	for _, pct := range percentages {
		out = append(out, TimelinePoint{Percent: pct, At: timeAtPercent(comps, total, pct)})
	}
	return out
}

// TimelinePoint is one (completion %, simulated time) pair of a progress
// curve.
type TimelinePoint struct {
	// Percent is the fraction of the workload completed, in [0, 100].
	Percent float64
	// At is the simulated time when that fraction was reached.
	At time.Duration
}

func timeAtPercent(sortedCompletions []time.Duration, total int, pct float64) time.Duration {
	if len(sortedCompletions) == 0 || total <= 0 {
		return 0
	}
	// Ceiling, not floor: "50% completed" means the ceil(total/2)-th
	// completion has happened. The epsilon keeps binary-fraction noise
	// (0.2*35 = 7.000000000000001) from rounding a whole rank up.
	need := int(math.Ceil(pct/100*float64(total) - 1e-9))
	if need <= 0 {
		return 0
	}
	if need > len(sortedCompletions) {
		need = len(sortedCompletions)
	}
	return sortedCompletions[need-1]
}

// Speedup compares two progress curves at the given percentage: it returns
// how many times faster "fast" reached that completion fraction than "slow".
// It returns 0 when either curve has not reached the percentage (time 0).
func Speedup(slow, fast []TimelinePoint, percent float64) float64 {
	var ts, tf time.Duration
	for _, p := range slow {
		if p.Percent == percent {
			ts = p.At
		}
	}
	for _, p := range fast {
		if p.Percent == percent {
			tf = p.At
		}
	}
	if ts <= 0 || tf <= 0 {
		return 0
	}
	return float64(ts) / float64(tf)
}
