package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestSamplerIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64, keys keySampler) []int {
		r := newRNG(seed)
		out := make([]int, 1000)
		for i := range out {
			out[i] = keys.draw(r)
		}
		return out
	}
	for _, keys := range []keySampler{uniformKeys{20000}, newZipfKeys(50000, 0.99)} {
		a, b, c := draw(7, keys), draw(7, keys), draw(8, keys)
		same, differs := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differs = differs || a[i] != c[i]
		}
		if !same || !differs {
			t.Errorf("%T: same seed repeats=%v, other seed differs=%v; want both true", keys, same, differs)
		}
	}
}

func TestZipfShape(t *testing.T) {
	const n, draws = 50000, 200000
	z := newZipfKeys(n, 0.99)
	r := newRNG(1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		rank := z.rank(r)
		if rank < 0 || rank >= n {
			t.Fatalf("rank %d outside [0,%d)", rank, n)
		}
		counts[rank]++
	}
	// With s=0.99 rank 0 draws 1/zeta(n) of the traffic and rank k about
	// 1/(k+1)^s as much; the 4096 most popular keys — the near cache's
	// capacity — take roughly three quarters of it.
	if got, want := float64(counts[0])/draws, 1/z.zeta; math.Abs(got-want) > 0.2*want {
		t.Errorf("rank 0 share %.4f, want about %.4f", got, want)
	}
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 6 || ratio > 14 {
		t.Errorf("rank 0 is %.1fx rank 9, want about 10x", ratio)
	}
	head := 0
	for _, c := range counts[:4096] {
		head += c
	}
	if share := float64(head) / draws; share < 0.70 || share > 0.85 {
		t.Errorf("the 4096 hottest ranks take %.2f of the draws, want 0.70-0.85", share)
	}
	// The scatter is a bijection: every rank lands on its own key.
	seen := make(map[int]bool, n)
	for rank := 0; rank < n; rank++ {
		seen[int(uint64(rank)*scatterPrime%n)] = true
	}
	if len(seen) != n {
		t.Errorf("scatter maps %d ranks onto %d keys", n, len(seen))
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (exactly ten beyond)", got)
	}
	// p99.9 of 1000 samples would rest on one sample: it is lowered to the
	// highest percentile with ten samples beyond it.
	if got := percentile(sorted, 0.999); got != 990 {
		t.Errorf("p99.9 of 1..1000 = %v, want 990", got)
	}
	if hp := highestPercentile(100000); hp != 0.9999 {
		t.Errorf("highestPercentile(100000) = %v, want 0.9999", hp)
	}
	if got := percentile(sorted[:5], 0.99); got != 1 {
		t.Errorf("with five samples no tail is reported: got %v, want the minimum", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	r := newResult("w")
	r.setMedian("ops_per_s", []float64{3400, 2900, 3300}, 9600)
	m := r.Metrics["ops_per_s"]
	if m.Value != 3300 || m.Unit != "ops/s" || len(m.Windows) != 3 || m.Samples != 9600 {
		t.Errorf("median of windows = %+v", m)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestBestQuarterOfNormalisedWindows(t *testing.T) {
	// Eight windows, two of them quiet: the best quarter is those two,
	// whichever way better points.
	ops := []float64{3000, 4100, 2900, 3100, 3900, 2500, 3050, 2950}
	if got := bestQuarterMean(ops, true); got != 4000 {
		t.Errorf("best quarter of ops/s = %v, want 4000", got)
	}
	lat := []float64{300, 210, 320, 310, 190, 400, 305, 315}
	if got := bestQuarterMean(lat, false); got != 200 {
		t.Errorf("best quarter of latencies = %v, want 200", got)
	}
	if got := bestQuarterMean([]float64{7, 5, 9}, false); got != 5 {
		t.Errorf("fewer than four windows: got %v, want the best one", got)
	}
	r := newResult("w")
	r.setBest("ops_per_s", ops, true, 1)
	if got, want := offPlateau(r.Metrics["ops_per_s"]), (4000-3025.0)/4000; math.Abs(got-want) > 1e-9 {
		t.Errorf("offPlateau = %v, want %v", got, want)
	}
	// A host running at two thirds of nominal speed makes the probe take
	// half as long again.
	slow := []time.Duration{probeNominal * 2, probeNominal * 3 / 2, probeNominal, probeNominal * 3 / 2, probeNominal * 3 / 2}
	if got := slowdown(slow); got != 1.5 {
		t.Errorf("slowdown = %v, want 1.5", got)
	}
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown without probes = %v, want 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		// One put: the router fans out to two replicas that overlap, each
		// over its cache call; a get of another request follows.
		{"rpc", "put", 0, 1000},
		{"router", "put", 100, 900},
		{"instance", "put", 150, 600},
		{"instance", "put", 200, 800},
		{"memcache", "put", 300, 350},
		{"memcache", "put", 700, 760},
		{"rpc", "get", 1100, 1500},
		{"instance", "get", 1200, 1400},
		// Background work of another class inside the get's interval is
		// not the get's child.
		{"instance", "put", 1250, 1300},
	}
	self, top := selfTimes(spans)
	want := map[layerOp]selfStat{
		{"rpc", "put"}:      {200, 1},            // 1000 - [100,900]
		{"router", "put"}:   {150, 1},            // 800 - union [150,800]
		{"instance", "put"}: {450 + 490 + 50, 3}, // the first cache call goes to the later replica; and the background put
		{"memcache", "put"}: {110, 2},
		{"rpc", "get"}:      {200, 1},
		{"instance", "get"}: {200, 1},
	}
	for key, w := range want {
		if got := self[key]; got != w {
			t.Errorf("%v: self = %+v, want %+v", key, got, w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("self has %d entries, want %d: %v", len(self), len(want), self)
	}
	if top != (selfStat{1400, 2}) {
		t.Errorf("client view = %+v, want 1400 ns over 2 spans", top)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) metric { return metric{Value: v, Windows: []float64{v * 0.99, v, v * 1.01}} }
	noisy := metric{Value: 100, Windows: []float64{100, 125, 130}}
	cases := []struct {
		a, b   metric
		higher bool
		want   string
	}{
		{steady(100), steady(105), false, "ok"},
		{steady(100), steady(115), false, "regressed"},
		{steady(100), steady(85), false, "ok"},
		{steady(100), steady(85), true, "regressed"},
		{steady(100), steady(115), true, "ok"},
		{noisy, steady(150), false, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, higher better %v) = %s, want %s", c.a.Value, c.b.Value, c.higher, got, c.want)
		}
	}
}

// TestNamesMatchContract keeps the tables in names.go and BENCHMARK.json
// the same, and inside the contract's character sets.
func TestNamesMatchContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var c struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, declared []entry, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d, names.go %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, names.go has %v", kind, i, declared[i], d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s[%d]: %q (%q) is outside the contract's character set", kind, i, d.name, d.unit)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, names.go %d", len(c.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if c.Workloads[i].Name != name || !nameRE.MatchString(name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, names.go %q", i, c.Workloads[i].Name, name)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %q is declared twice", d.name)
		}
		seen[d.name] = true
	}
}
