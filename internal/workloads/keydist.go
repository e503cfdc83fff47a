package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// KeyDistKind selects how readers pick which key to request. The synthetic
// benchmark historically drew keys uniformly; skewed draws expose the hot-key
// behaviour of the cache, router and replica list (tail-latency program).
type KeyDistKind int

const (
	// KeyUniform draws every key with equal probability (the default and the
	// paper's original reader behaviour).
	KeyUniform KeyDistKind = iota
	// KeyZipfian draws key rank i (0-based) with probability proportional to
	// 1/(i+1)^s: rank 0 is the hottest key. s is KeyDist.ZipfS.
	KeyZipfian
	// KeyHotspot sends KeyDist.HotWeight of the traffic to the first
	// KeyDist.HotFraction of the keyspace and spreads the rest uniformly over
	// the cold remainder.
	KeyHotspot
)

// String returns the flag-style name of the kind.
func (k KeyDistKind) String() string {
	switch k {
	case KeyZipfian:
		return "zipfian"
	case KeyHotspot:
		return "hotspot"
	default:
		return "uniform"
	}
}

// Default shape parameters. ZipfS just under 1 matches the YCSB-style
// "zipfian" constant; the hot-spot defaults reproduce the classic 90/10 rule.
const (
	DefaultZipfS       = 0.99
	DefaultHotFraction = 0.1
	DefaultHotWeight   = 0.9
)

// KeyDist describes a key-popularity distribution. The zero value is uniform,
// so existing configurations keep their behaviour.
type KeyDist struct {
	// Kind selects the distribution family.
	Kind KeyDistKind
	// ZipfS is the Zipfian exponent (> 0); 0 means DefaultZipfS. Unlike
	// math/rand's Zipf generator the sampler accepts s <= 1, which covers the
	// YCSB-style s≈0.99 workloads.
	ZipfS float64
	// HotFraction is the fraction of the keyspace that forms the hot set
	// (0 < f < 1); 0 means DefaultHotFraction.
	HotFraction float64
	// HotWeight is the fraction of draws that land in the hot set
	// (0 < w < 1); 0 means DefaultHotWeight.
	HotWeight float64
}

// withDefaults fills unset shape parameters.
func (d KeyDist) withDefaults() KeyDist {
	if d.ZipfS <= 0 {
		d.ZipfS = DefaultZipfS
	}
	if d.HotFraction <= 0 || d.HotFraction >= 1 {
		d.HotFraction = DefaultHotFraction
	}
	if d.HotWeight <= 0 || d.HotWeight >= 1 {
		d.HotWeight = DefaultHotWeight
	}
	return d
}

// String renders the distribution in the same form ParseKeyDist accepts.
func (d KeyDist) String() string {
	switch d.Kind {
	case KeyZipfian:
		return fmt.Sprintf("zipfian:%g", d.withDefaults().ZipfS)
	case KeyHotspot:
		dd := d.withDefaults()
		return fmt.Sprintf("hotspot:%g,%g", dd.HotFraction, dd.HotWeight)
	default:
		return "uniform"
	}
}

// ParseKeyDist parses a -keydist flag value: "uniform", "zipfian",
// "zipfian:<s>", "hotspot" or "hotspot:<hotFraction>,<hotWeight>".
func ParseKeyDist(s string) (KeyDist, error) {
	name, arg, _ := strings.Cut(strings.TrimSpace(strings.ToLower(s)), ":")
	switch name {
	case "", "uniform":
		if arg != "" {
			return KeyDist{}, fmt.Errorf("workloads: uniform takes no parameters, got %q", s)
		}
		return KeyDist{}, nil
	case "zipfian", "zipf":
		d := KeyDist{Kind: KeyZipfian}
		if arg != "" {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v > 0) || math.IsInf(v, 1) {
				return KeyDist{}, fmt.Errorf("workloads: zipfian exponent %q must be a finite number > 0", arg)
			}
			d.ZipfS = v
		}
		return d, nil
	case "hotspot":
		d := KeyDist{Kind: KeyHotspot}
		if arg != "" {
			frac, weight, ok := strings.Cut(arg, ",")
			if !ok {
				return KeyDist{}, fmt.Errorf("workloads: hotspot wants hotspot:<fraction>,<weight>, got %q", s)
			}
			f, ferr := strconv.ParseFloat(frac, 64)
			w, werr := strconv.ParseFloat(weight, 64)
			// Written as inside-the-range tests, so NaN, which fails every
			// comparison, is refused too.
			if ferr != nil || werr != nil || !(f > 0 && f < 1) || !(w > 0 && w < 1) {
				return KeyDist{}, fmt.Errorf("workloads: hotspot fraction and weight must be in (0,1), got %q", s)
			}
			d.HotFraction, d.HotWeight = f, w
		}
		return d, nil
	default:
		return KeyDist{}, fmt.Errorf("workloads: unknown key distribution %q (want uniform, zipfian[:s] or hotspot[:f,w])", s)
	}
}

// KeySampler draws key ranks in [0, n) under a KeyDist. It is deterministic
// given the caller's *rand.Rand and safe for concurrent use as long as each
// goroutine brings its own rand source (the sampler itself is read-only after
// construction).
type KeySampler struct {
	dist KeyDist
	// cum[i] is the total unnormalized Zipfian weight of ranks 0..i over the
	// maximum keyspace; restricting a draw to the first n ranks only needs
	// cum[n-1], so one table serves every prefix of the keyspace.
	cum []float64
}

// NewKeySampler builds a sampler able to draw ranks from any keyspace of size
// at most maxKeys. maxKeys only matters for the Zipfian table; uniform and
// hot-spot draws are computed directly.
func NewKeySampler(dist KeyDist, maxKeys int) *KeySampler {
	s := &KeySampler{dist: dist.withDefaults()}
	if dist.Kind == KeyZipfian {
		if maxKeys < 1 {
			maxKeys = 1
		}
		s.cum = make([]float64, maxKeys)
		total := 0.0
		for i := 0; i < maxKeys; i++ {
			total += 1 / math.Pow(float64(i+1), s.dist.ZipfS)
			s.cum[i] = total
		}
	}
	return s
}

// Rank draws a key rank in [0, n): rank 0 is the hottest key. n above the
// sampler's maxKeys is clamped for Zipfian draws.
func (s *KeySampler) Rank(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	switch s.dist.Kind {
	case KeyZipfian:
		if n > len(s.cum) {
			n = len(s.cum)
		}
		u := rng.Float64() * s.cum[n-1]
		// First rank whose cumulative weight covers u.
		return sort.Search(n, func(i int) bool { return s.cum[i] > u })
	case KeyHotspot:
		hot := int(math.Ceil(s.dist.HotFraction * float64(n)))
		if hot < 1 {
			hot = 1
		}
		if hot >= n {
			return rng.Intn(n)
		}
		if rng.Float64() < s.dist.HotWeight {
			return rng.Intn(hot)
		}
		return hot + rng.Intn(n-hot)
	default:
		return rng.Intn(n)
	}
}
