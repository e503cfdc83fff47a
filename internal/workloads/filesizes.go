package workloads

import (
	"math"
	"math/rand"
	"sync"
)

// This file models the "many small files" property that motivates the paper
// (§II-A): scientific workflows generate millions of files whose median size
// is in the kilobyte-to-megabyte range. SkySurveySizes is calibrated to one
// of the data sets the paper cites, the Sloan Digital Sky Survey (20 million
// images averaging under 1 MB), and plugs into the workflow generators
// through WorkflowConfig.Sizes to give every produced file a realistic size.

// LogNormalSizes draws sizes from a log-normal distribution, the classic fit
// for file-size populations dominated by small files with a heavy tail.
type LogNormalSizes struct {
	// MedianBytes is the distribution's median.
	MedianBytes float64
	// SigmaLog is the standard deviation of log(size); larger values widen
	// the tail.
	SigmaLog float64
	// MaxBytes caps samples (0 = no cap).
	MaxBytes int64

	// mu guards rng: one distribution is often shared by every task of a
	// generated workflow, and *rand.Rand is not safe for concurrent use.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewLogNormalSizes returns a seeded log-normal size distribution.
func NewLogNormalSizes(medianBytes float64, sigmaLog float64, maxBytes int64, seed int64) *LogNormalSizes {
	return &LogNormalSizes{
		MedianBytes: medianBytes,
		SigmaLog:    sigmaLog,
		MaxBytes:    maxBytes,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Sample returns one file size in bytes.
func (d *LogNormalSizes) Sample() int64 {
	d.mu.Lock()
	draw := d.rng.NormFloat64()
	d.mu.Unlock()
	mu := math.Log(d.MedianBytes)
	v := math.Exp(mu + d.SigmaLog*draw)
	size := int64(v)
	if size < 1 {
		size = 1
	}
	if d.MaxBytes > 0 && size > d.MaxBytes {
		size = d.MaxBytes
	}
	return size
}

// SkySurveySizes approximates the Sloan Digital Sky Survey image population:
// median ≈ 700 KB, capped at 8 MB.
func SkySurveySizes(seed int64) *LogNormalSizes {
	return NewLogNormalSizes(700<<10, 0.6, 8<<20, seed)
}
