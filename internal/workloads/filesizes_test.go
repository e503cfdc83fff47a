package workloads

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestLogNormalSizesProperties(t *testing.T) {
	d := NewLogNormalSizes(190<<10, 0.8, 4<<20, 1)
	for i := 0; i < 5000; i++ {
		s := d.Sample()
		if s < 1 {
			t.Fatalf("sample %d below 1 byte", s)
		}
		if s > 4<<20 {
			t.Fatalf("sample %d exceeds the cap", s)
		}
	}
}

func TestSkySurveyPopulation(t *testing.T) {
	d := SkySurveySizes(7)
	const n = 20000
	sizes := make([]int64, n)
	small := 0
	for i := range sizes {
		sizes[i] = d.Sample()
		if sizes[i] < 64<<20 { // the 64 MB HDFS block the paper calls a small file's bound
			small++
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })

	// The paper's motivation: SDSS images average under a megabyte, and
	// virtually every file is "small".
	if median := sizes[n/2]; median < 600<<10 || median > 800<<10 {
		t.Errorf("sky survey median = %d bytes, want ≈ 700 KB", median)
	}
	if share := float64(small) / n; share < 0.999 {
		t.Errorf("small-file share = %.3f, want ~1.0", share)
	}
}

func TestWorkflowConfigWithFileSizes(t *testing.T) {
	cfg := DefaultMontageConfig(SmallScale)
	cfg.Sizes = SkySurveySizes(3)
	cfg.Width = 4
	w := Montage(cfg)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Generated outputs now vary in size and stay within the distribution cap.
	varied := false
	var first int64 = -1
	for _, task := range w.Tasks() {
		for _, out := range task.Outputs {
			if out.Size <= 0 || out.Size > 8<<20 {
				t.Fatalf("output size %d outside the distribution's range", out.Size)
			}
			if first == -1 {
				first = out.Size
			} else if out.Size != first {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("expected varied file sizes from the distribution")
	}
}

// Property: log-normal samples respect the cap and positivity for any
// parameters.
func TestLogNormalBoundsProperty(t *testing.T) {
	f := func(medianKB uint16, sigmaTenths uint8, seed int64) bool {
		median := float64(medianKB%2048+1) * 1024
		sigma := float64(sigmaTenths%30) / 10
		d := NewLogNormalSizes(median, sigma, 64<<20, seed)
		for i := 0; i < 50; i++ {
			s := d.Sample()
			if s < 1 || s > 64<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// One size distribution is commonly shared by every task of a generated
// workflow; Sample must therefore be safe for concurrent use (run under
// -race).
func TestLogNormalSampleConcurrency(t *testing.T) {
	d := SkySurveySizes(7)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if s := d.Sample(); s < 1 {
					t.Errorf("Sample = %d, want >= 1", s)
				}
			}
		}()
	}
	wg.Wait()
}
