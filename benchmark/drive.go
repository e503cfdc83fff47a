package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opClass splits operations into the two latency classes the end-to-end
// metrics report.
type opClass int

const (
	readOp  opClass = iota // Get, Lookup
	writeOp                // Put, Delete, Create
)

// stepper is one closed-loop client: step issues its next operation, waits
// for the reply, checks it, and says which class it was and whether the
// reply was right.
type stepper interface {
	step(ctx context.Context) (opClass, bool)
}

// windowStats is what one client saw in one timed window.
type windowStats struct {
	lat    [2][]int64      // latencies of verified ops by class, ns
	failed int64           // ops that errored, were refused or answered wrongly
	probes []time.Duration // the client's host probes, see probe.go
}

// phase values: 0 is warm-up, 1..n the timed windows, phaseStop the end.
const phaseStop = -1

// timing is how long a run warms up and measures.
type timing struct {
	warmup  time.Duration
	window  time.Duration
	windows int
}

// driveResult holds the per-window observations of one run.
type driveResult struct {
	stats   [][]windowStats // [window][client]
	elapsed []time.Duration // wall length of each window
	cpu     []time.Duration // generator + server CPU spent in each window
}

// drive runs the clients closed-loop — each sends its next request only
// when the previous one has been answered — through a warm-up and the timed
// windows, all against the same servers. Between requests, every probeEvery,
// a client times one host probe. start and end run at the first window's
// start and the last one's end (counter scrapes in a traced run).
func drive(ctx context.Context, clients []stepper, servers []*serverProc, t timing, start, end func()) driveResult {
	res := driveResult{stats: make([][]windowStats, t.windows)}
	perWindow := int(t.window/time.Microsecond) / 50 // room for 20k ops/s per client before growing
	for w := range res.stats {
		res.stats[w] = make([]windowStats, len(clients))
		for c := range res.stats[w] {
			res.stats[w][c].lat[readOp] = make([]int64, 0, perWindow)
			res.stats[w][c].lat[writeOp] = make([]int64, 0, perWindow)
		}
	}
	var phase atomic.Int32
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe, probed := newHostProbe(), time.Now()
			for {
				var took time.Duration
				if time.Since(probed) >= probeEvery {
					took, probed = probe.run(), time.Now()
				}
				t0 := time.Now()
				class, ok := cl.step(ctx)
				ns := int64(time.Since(t0))
				// An op, and the probe before it, belong to the window the op
				// completes in.
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				if ph == 0 {
					continue
				}
				ws := &res.stats[ph-1][c]
				if took > 0 {
					ws.probes = append(ws.probes, took)
				}
				if ok {
					ws.lat[class] = append(ws.lat[class], ns)
				} else {
					ws.failed++
				}
			}
		}()
	}
	time.Sleep(t.warmup)
	if start != nil {
		start()
	}
	at, cpu := time.Now(), totalCPU(servers)
	for w := 1; w <= t.windows; w++ {
		phase.Store(int32(w))
		time.Sleep(t.window)
		now, nowCPU := time.Now(), totalCPU(servers)
		res.elapsed = append(res.elapsed, now.Sub(at))
		res.cpu = append(res.cpu, nowCPU-cpu)
		at, cpu = now, nowCPU
	}
	phase.Store(phaseStop)
	if end != nil {
		end()
	}
	wg.Wait()
	return res
}

// classSamples merges one window's latencies of a class over the clients,
// sorted.
func (r driveResult) classSamples(window int, class opClass) []int64 {
	var all []int64
	for _, ws := range r.stats[window] {
		all = append(all, ws.lat[class]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// slowdown is how much slower than nominal the host ran in one window, by
// all the clients' probes.
func (r driveResult) slowdown(window int) float64 {
	var all []time.Duration
	for _, ws := range r.stats[window] {
		all = append(all, ws.probes...)
	}
	return slowdown(all)
}

// latencySum adds up the latencies of every verified op, in ns.
func (r driveResult) latencySum() float64 {
	var sum float64
	for _, win := range r.stats {
		for _, ws := range win {
			for _, lat := range ws.lat {
				for _, ns := range lat {
					sum += float64(ns)
				}
			}
		}
	}
	return sum
}

// totals returns verified and failed operation counts over all windows.
func (r driveResult) totals() (ok [2]int64, failed int64) {
	for _, win := range r.stats {
		for _, ws := range win {
			ok[readOp] += int64(len(ws.lat[readOp]))
			ok[writeOp] += int64(len(ws.lat[writeOp]))
			failed += ws.failed
		}
	}
	return ok, failed
}
