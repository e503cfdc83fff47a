package main

import (
	"math"
	"sort"
)

// tailGuard is how many samples must lie beyond a reported percentile.
const tailGuard = 10

// highestPercentile is the highest percentile of n samples that still has
// tailGuard samples beyond it (0 when n is too small to report any).
func highestPercentile(n int) float64 {
	if n <= tailGuard {
		return 0
	}
	return float64(n-tailGuard) / float64(n)
}

// percentile returns the p-quantile (0 < p < 1) of sorted by nearest rank,
// lowered to highestPercentile(len(sorted)) when p asks for more than the
// samples support: a tail value never rests on fewer than tailGuard samples.
func percentile(sorted []int64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if hp := highestPercentile(n); p > hp {
		p = hp
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bestQuarterMean is the mean of the best quarter (at least one) of vs: the
// highest values when higher is better, else the lowest.
func bestQuarterMean(vs []float64, higherBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := max(len(s)/4, 1)
	if higherBetter {
		s = s[len(s)-k:]
	}
	var sum float64
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// offPlateau is how far the median of a metric's windows lies from its
// reported value, as a share of it: how little of the run the host left
// undisturbed, and so how far the value can be trusted.
func offPlateau(m metric) float64 {
	if len(m.Windows) == 0 || m.Value == 0 {
		return 0
	}
	return math.Abs(median(m.Windows)-m.Value) / m.Value
}

func sortedCopy(vs []int64) []int64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
