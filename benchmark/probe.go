package main

import (
	"sort"
	"time"
)

// The sandbox is a small virtual machine on a shared host, and what the
// host's other tenants do to the memory system — the shared cache, the memory
// bandwidth — slows every request here by up to a half for seconds or minutes
// at a time. Nothing in the guest shows it except speed itself. So the
// generator times, every few milliseconds, a fixed piece of memory-bound work
// of its own, and every timed figure is reported in units of it: divided by
// what the probe took in the same half second, times what the probe takes on
// an undisturbed host. Over some 2000 half-second windows of all four
// workloads a request's time stayed within a few percent of proportional to
// the probe's while both moved by 1.8x (README.md has the figures); a
// compute-bound probe and a pointer chase tracked it less well. The probe
// never calls the program, so a change to the program cannot move it.

const (
	probeWords   = 1 << 21 // 16 MiB of uint64: several times any cache share the box has
	probeTouches = 20000
	// probeNominal is what one probe takes on the undisturbed 2.1 GHz Xeon
	// guest this was written on: there, normalised and raw figures agree.
	probeNominal = 300 * time.Microsecond
	probeEvery   = 10 * time.Millisecond
)

// hostProbe is one goroutine's probe: its own array, so that probes of
// different clients share nothing.
type hostProbe struct {
	words []uint64
	x     uint64
}

func newHostProbe() *hostProbe {
	return &hostProbe{words: make([]uint64, probeWords), x: 88172645463325252}
}

// run does the fixed work — probeTouches independent read-modify-writes at
// xorshift-scattered places — and returns how long it took.
func (p *hostProbe) run() time.Duration {
	start := time.Now()
	x := p.x
	for i := 0; i < probeTouches; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.words[x&(probeWords-1)] += x
	}
	p.x = x
	return time.Since(start)
}

// slowdown is how much slower than nominal the host ran while the given
// probes were taken: their median over probeNominal. With no probes it is 1.
func slowdown(probes []time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), probes...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(probeNominal)
}

// normalised runs one set-up between two bursts of probes and returns how
// long it took in units of them, in seconds.
func (p *hostProbe) normalised(setUp func() (time.Duration, error)) (float64, error) {
	const burst = 16
	var probes []time.Duration
	for i := 0; i < burst; i++ {
		probes = append(probes, p.run())
	}
	took, err := setUp()
	for i := 0; i < burst; i++ {
		probes = append(probes, p.run())
	}
	return took.Seconds() / slowdown(probes), err
}
