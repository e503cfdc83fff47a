package workloads

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// chiSquare returns the chi-square statistic of observed counts against
// expected probabilities (which must sum to ~1 over the bins).
func chiSquare(obs []int, probs []float64, draws int) float64 {
	stat := 0.0
	for i, o := range obs {
		exp := probs[i] * float64(draws)
		d := float64(o) - exp
		stat += d * d / exp
	}
	return stat
}

func TestParseKeyDist(t *testing.T) {
	cases := []struct {
		in   string
		want KeyDist
	}{
		{"uniform", KeyDist{}},
		{"", KeyDist{}},
		{"zipfian", KeyDist{Kind: KeyZipfian}},
		{"Zipf:1.2", KeyDist{Kind: KeyZipfian, ZipfS: 1.2}},
		{"hotspot", KeyDist{Kind: KeyHotspot}},
		{"hotspot:0.2,0.8", KeyDist{Kind: KeyHotspot, HotFraction: 0.2, HotWeight: 0.8}},
	}
	for _, c := range cases {
		got, err := ParseKeyDist(c.in)
		if err != nil {
			t.Fatalf("ParseKeyDist(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseKeyDist(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"zipfian:0", "zipfian:x", "hotspot:0.5", "hotspot:2,0.9", "hotspot:0.1,1.5", "pareto", "uniform:3"} {
		if _, err := ParseKeyDist(bad); err == nil {
			t.Errorf("ParseKeyDist(%q): want error, got nil", bad)
		}
	}
}

func TestKeyDistStringRoundTrip(t *testing.T) {
	for _, d := range []KeyDist{
		{},
		{Kind: KeyZipfian, ZipfS: 1.1},
		{Kind: KeyHotspot, HotFraction: 0.25, HotWeight: 0.75},
	} {
		back, err := ParseKeyDist(d.String())
		if err != nil {
			t.Fatalf("round trip %v: %v", d, err)
		}
		if back.withDefaults() != d.withDefaults() {
			t.Errorf("round trip %v: got %+v", d, back)
		}
		if name, _, _ := strings.Cut(d.String(), ":"); back.Kind.String() != name {
			t.Errorf("round trip %v: kind named %q, want %q", d, back.Kind, name)
		}
	}
}

// FuzzParseKeyDist holds ParseKeyDist to its contract on any flag value: an
// accepted distribution has finite parameters in range (an unset one is the
// default), and its String parses back to the same distribution. The corpus
// under testdata/fuzz holds the non-finite values that once parsed.
func FuzzParseKeyDist(f *testing.F) {
	for _, seed := range []string{"uniform", "zipfian", "zipf:1.2", "hotspot", "hotspot:0.2,0.8", "zipfian:0"} {
		f.Add(seed)
	}
	inside := func(v float64) bool { return v > 0 && v < 1 }
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseKeyDist(s)
		if err != nil {
			return
		}
		switch d.Kind {
		case KeyUniform:
			if d != (KeyDist{}) {
				t.Fatalf("ParseKeyDist(%q) = %+v, a uniform distribution with parameters", s, d)
			}
		case KeyZipfian:
			if d.ZipfS != 0 && !(d.ZipfS > 0 && !math.IsInf(d.ZipfS, 1)) {
				t.Fatalf("ParseKeyDist(%q) accepted the zipfian exponent %v", s, d.ZipfS)
			}
		case KeyHotspot:
			if (d.HotFraction != 0 || d.HotWeight != 0) && !(inside(d.HotFraction) && inside(d.HotWeight)) {
				t.Fatalf("ParseKeyDist(%q) accepted the hotspot fraction %v and weight %v", s, d.HotFraction, d.HotWeight)
			}
		default:
			t.Fatalf("ParseKeyDist(%q) = kind %d", s, d.Kind)
		}
		back, err := ParseKeyDist(d.String())
		if err != nil {
			t.Fatalf("ParseKeyDist(%q).String() = %q, which does not parse: %v", s, d.String(), err)
		}
		if back.Kind != d.Kind || back.withDefaults() != d.withDefaults() {
			t.Fatalf("ParseKeyDist(%q) = %+v, but its String %q parses to %+v", s, d, d.String(), back)
		}
	})
}

// TestKeySamplerUniformDefault pins the default: a zero-value KeyDist draws
// every rank with equal probability (chi-square over 10 equal bins, fixed
// seed, 99.9% critical value for df=9 is 27.88).
func TestKeySamplerUniformDefault(t *testing.T) {
	const n, draws, bins = 1000, 100000, 10
	s := NewKeySampler(KeyDist{}, n)
	rng := rand.New(rand.NewSource(1))
	obs := make([]int, bins)
	for i := 0; i < draws; i++ {
		obs[s.Rank(rng, n)*bins/n]++
	}
	probs := make([]float64, bins)
	for i := range probs {
		probs[i] = 1.0 / bins
	}
	if stat := chiSquare(obs, probs, draws); stat > 27.88 {
		t.Fatalf("uniform sampler chi-square = %.2f, exceeds 27.88 (df=9, p=0.001): counts %v", stat, obs)
	}
}

// TestKeySamplerZipfianShape checks the rank-frequency law: observed
// frequencies of the top ranks match p(i) ∝ 1/(i+1)^s, via a chi-square over
// the top 9 ranks plus the aggregated tail (df=9).
func TestKeySamplerZipfianShape(t *testing.T) {
	const n, draws = 1000, 200000
	const s = 0.99
	ks := NewKeySampler(KeyDist{Kind: KeyZipfian, ZipfS: s}, n)
	rng := rand.New(rand.NewSource(2))

	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[ks.Rank(rng, n)]++
	}

	total := 0.0
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	const top = 9
	obs := make([]int, top+1)
	probs := make([]float64, top+1)
	for i := 0; i < top; i++ {
		obs[i] = counts[i]
		probs[i] = weights[i] / total
	}
	for i := top; i < n; i++ {
		obs[top] += counts[i]
		probs[top] += weights[i] / total
	}
	if stat := chiSquare(obs, probs, draws); stat > 27.88 {
		t.Fatalf("zipfian chi-square = %.2f, exceeds 27.88 (df=9, p=0.001): top counts %v", stat, obs)
	}

	// Rank-frequency sanity: the hottest key is roughly 2^s times as popular
	// as rank 1 and an order of magnitude hotter than rank 9.
	r01 := float64(counts[0]) / float64(counts[1])
	if want := math.Pow(2, s); math.Abs(r01-want) > 0.25*want {
		t.Errorf("freq(rank0)/freq(rank1) = %.2f, want ~%.2f", r01, want)
	}
	if counts[0] < 5*counts[top] {
		t.Errorf("rank 0 (%d draws) should dominate rank %d (%d draws)", counts[0], top, counts[top])
	}
}

// TestKeySamplerZipfianSubUnitExponent covers the s <= 1 regime that
// math/rand's generator rejects — the reason the sampler is hand-rolled.
func TestKeySamplerZipfianSubUnitExponent(t *testing.T) {
	const n, draws = 100, 50000
	ks := NewKeySampler(KeyDist{Kind: KeyZipfian, ZipfS: 0.5}, n)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[ks.Rank(rng, n)]++
	}
	// Under s=0.5 rank 0 still leads but the tail stays fat: the bottom half
	// of the keyspace must retain a substantial share of the draws.
	if counts[0] <= counts[n-1] {
		t.Errorf("rank 0 (%d) should outdraw rank %d (%d)", counts[0], n-1, counts[n-1])
	}
	tail := 0
	for i := n / 2; i < n; i++ {
		tail += counts[i]
	}
	if share := float64(tail) / draws; share < 0.15 {
		t.Errorf("bottom-half share = %.3f, want >= 0.15 under s=0.5", share)
	}
}

// TestKeySamplerHotspotShape checks the 90/10 split and that draws are
// uniform within the hot set and within the cold remainder.
func TestKeySamplerHotspotShape(t *testing.T) {
	const n, draws = 1000, 100000
	dist := KeyDist{Kind: KeyHotspot, HotFraction: 0.1, HotWeight: 0.9}
	ks := NewKeySampler(dist, n)
	rng := rand.New(rand.NewSource(4))

	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[ks.Rank(rng, n)]++
	}
	hot := 0
	for i := 0; i < n/10; i++ {
		hot += counts[i]
	}
	if share := float64(hot) / draws; math.Abs(share-0.9) > 0.01 {
		t.Fatalf("hot-set share = %.3f, want 0.9 +/- 0.01", share)
	}

	// Within-set uniformity: chi-square over 10 bins of the hot set and 10
	// bins of the cold set, each against equal probabilities.
	for _, set := range []struct {
		name     string
		lo, hi   int
		setDraws int
	}{
		{"hot", 0, n / 10, hot},
		{"cold", n / 10, n, draws - hot},
	} {
		const bins = 10
		obs := make([]int, bins)
		span := set.hi - set.lo
		for i := set.lo; i < set.hi; i++ {
			obs[(i-set.lo)*bins/span] += counts[i]
		}
		probs := make([]float64, bins)
		for i := range probs {
			probs[i] = 1.0 / bins
		}
		if stat := chiSquare(obs, probs, set.setDraws); stat > 27.88 {
			t.Errorf("%s-set chi-square = %.2f, exceeds 27.88 (df=9, p=0.001)", set.name, stat)
		}
	}
}

// TestKeySamplerDeterministic pins seeded reproducibility: the same seed
// yields the same rank sequence for every distribution family.
func TestKeySamplerDeterministic(t *testing.T) {
	for _, d := range []KeyDist{
		{},
		{Kind: KeyZipfian, ZipfS: 1.2},
		{Kind: KeyHotspot},
	} {
		draw := func() []int {
			ks := NewKeySampler(d, 500)
			rng := rand.New(rand.NewSource(99))
			out := make([]int, 64)
			for i := range out {
				out[i] = ks.Rank(rng, 500)
			}
			return out
		}
		a, b := draw(), draw()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: draw %d differs across identical seeds: %d vs %d", d, i, a[i], b[i])
			}
		}
	}
}

// TestKeySamplerSmallSpaces exercises the degenerate keyspaces the synthetic
// benchmark hits on its first operations.
func TestKeySamplerSmallSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []KeyDist{{}, {Kind: KeyZipfian}, {Kind: KeyHotspot}} {
		ks := NewKeySampler(d, 10)
		for _, n := range []int{0, 1, 2, 3, 10, 50} {
			for i := 0; i < 100; i++ {
				r := ks.Rank(rng, n)
				limit := n
				if limit < 1 {
					limit = 1
				}
				if r < 0 || r >= limit {
					t.Fatalf("%v: Rank(n=%d) = %d out of range", d, n, r)
				}
			}
		}
	}
}
