package main

import "math"

// rng is the benchmark's own seeded generator (splitmix64). The load must
// depend only on -seed and on this file: importing the repo's workload
// samplers would let a PR that edits them move the load.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// keySampler draws key indices in [0, n).
type keySampler interface{ draw(r *rng) int }

type uniformKeys struct{ n int }

func (u uniformKeys) draw(r *rng) int { return r.intn(u.n) }

// zipfKeys draws ranks from a Zipfian distribution (Gray et al.'s method, as
// in YCSB) and scatters them over the key space with a fixed bijection, so
// that the hot keys spread over owners and shards instead of sharing a prefix.
type zipfKeys struct {
	n                  int
	theta, alpha, zeta float64
	eta, half          float64
}

// scatterPrime is coprime with every key-space size the workloads use, which
// makes rank*scatterPrime mod n a bijection.
const scatterPrime = 1000003

func newZipfKeys(n int, theta float64) *zipfKeys {
	zeta := func(m int) float64 {
		sum := 0.0
		for i := 1; i <= m; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipfKeys{n: n, theta: theta, alpha: 1 / (1 - theta), zeta: zeta(n)}
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zeta)
	return z
}

// rank returns a Zipfian rank in [0, n), 0 being the most popular.
func (z *zipfKeys) rank(r *rng) int {
	u := r.float()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

func (z *zipfKeys) draw(r *rng) int {
	return int(uint64(z.rank(r)) * scatterPrime % uint64(z.n))
}
