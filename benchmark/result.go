package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one reported value. Windows holds the per-window (or
// per-set-up) values it was taken over; Samples the number of operations a
// percentile rests on.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	ServerArgv [][]string        `json:"server_argv"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      []string          `json:"notes,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: make(map[string]metric)}
}

// units maps every declared metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric; an undeclared name is a bug in the benchmark.
func (r *result) set(name string, value float64) { r.setWindows(name, value, nil, 0) }

func (r *result) setWindows(name string, value float64, windows []float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark reports undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, Windows: windows, Samples: samples}
}

// setMedian records the median of per-set-up values, keeping the raw ones.
func (r *result) setMedian(name string, windows []float64, samples int) {
	r.setWindows(name, median(windows), windows, samples)
}

// setBest records the mean of the best quarter of per-window values, keeping
// the raw ones.
func (r *result) setBest(name string, windows []float64, higherBetter bool, samples int) {
	r.setWindows(name, bestQuarterMean(windows, higherBetter), windows, samples)
}

func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// addDrive folds a run's timed windows into the client-side metrics: the
// end-to-end figures and the client.* quality figures. Each window's figures
// are first put in units of the host probe of the same window (probe.go),
// and what is reported is the mean over the best quarter of the windows: what
// the host does to a window only ever slows it, and not in proportion to the
// probe when it is violent, so the better windows are the truer ones.
func (r *result) addDrive(d driveResult) {
	n := len(d.stats)
	var opsPerS, cpuPerOp, p999, host []float64
	lat := [2]struct{ p50, p90, p99 []float64 }{}
	samples := [2]int{}
	for w := 0; w < n; w++ {
		slow := d.slowdown(w)
		host = append(host, slow)
		var ops int
		for class := range lat {
			s := d.classSamples(w, opClass(class))
			if len(s) == 0 {
				continue // a window without the class has no latency, not a zero one
			}
			ops += len(s)
			samples[class] += len(s)
			lat[class].p50 = append(lat[class].p50, percentile(s, 0.50)/1e3/slow)
			lat[class].p90 = append(lat[class].p90, percentile(s, 0.90)/1e3/slow)
			lat[class].p99 = append(lat[class].p99, percentile(s, 0.99)/1e3/slow)
			if opClass(class) == readOp {
				p999 = append(p999, percentile(s, 0.999)/1e3/slow)
			}
		}
		opsPerS = append(opsPerS, float64(ops)/d.elapsed[w].Seconds()*slow)
		if ops > 0 {
			cpuPerOp = append(cpuPerOp, float64(d.cpu[w].Microseconds())/float64(ops)/slow)
		}
	}
	ok, failed := d.totals()
	r.Attempted += ok[readOp] + ok[writeOp] + failed
	r.Failed += failed
	r.setBest("ops_per_s", opsPerS, true, int(ok[readOp]+ok[writeOp]))
	r.setBest("get_p50_us", lat[readOp].p50, false, samples[readOp])
	r.setBest("client.get_p90_us", lat[readOp].p90, false, samples[readOp])
	r.setBest("client.get_p99_us", lat[readOp].p99, false, samples[readOp])
	r.setBest("put_p50_us", lat[writeOp].p50, false, samples[writeOp])
	r.setBest("client.put_p90_us", lat[writeOp].p90, false, samples[writeOp])
	r.setBest("client.put_p99_us", lat[writeOp].p99, false, samples[writeOp])
	r.setBest("cpu_us_per_op", cpuPerOp, false, int(ok[readOp]+ok[writeOp]))
	r.setBest("client.get_p999_us", p999, false, samples[readOp])
	r.setWindows("client.host_slowdown", median(host), host, 0)
	r.set("client.window_spread", offPlateau(r.Metrics["ops_per_s"]))
	r.set("client.samples", float64(ok[readOp]+ok[writeOp]))
}

// finish settles correctness once every check has run.
func (r *result) finish() {
	if r.Attempted > 0 {
		r.set("client.fail_share", float64(r.Failed)/float64(r.Attempted))
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// contractLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one,
// every declared name present.
func (r *result) contractLine(traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(defs))
	for _, d := range defs {
		ms[d.name] = vu{r.Metrics[d.name].Value, d.unit} // absent: 0, not applicable here
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// print writes the human-readable table: every metric by name and unit,
// with the raw window values and sample counts beside the medians.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, argv := range r.ServerArgv {
		fmt.Fprintf(w, "   server: %s\n", strings.Join(argv, " "))
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if len(m.Windows) > 0 {
			fmt.Fprintf(w, " windows=%.4g", m.Windows)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
}
