package workloads

import (
	"fmt"

	"geomds/internal/workflow"
)

// This file generates the two real-life workflows of the paper's evaluation
// (Fig. 9): BuzzFlow, a near-pipelined text-mining application, and Montage,
// an astronomy application with a split, a set of parallelized jobs and a
// final merge. The DAG shapes follow the figure; the per-job metadata
// pressure and compute time come from the Table I scenarios, so that the
// total operation counts match the paper's totals (7 200 / 14 400 / 72 000
// for BuzzFlow and ≈16 000 / 32 000 / 150 000+ for Montage).

// WorkflowConfig parameterizes a real-workflow generator.
type WorkflowConfig struct {
	// Scenario supplies the per-task operation count and compute time.
	Scenario Scenario
	// Width is the number of tasks in each parallel stage.
	Width int
	// FileSize is the size of every produced file (the paper's evaluation
	// posts empty files to isolate metadata costs).
	FileSize int64
	// Sizes optionally draws per-file sizes from a distribution (e.g. the
	// SkySurveySizes population); when set it overrides FileSize, giving the
	// "many small files" shape of §II-A.
	Sizes *LogNormalSizes
	// Prefix namespaces file names so several runs can coexist.
	Prefix string
}

// DefaultBuzzFlowConfig returns the BuzzFlow configuration matching the
// paper's totals: 72 jobs overall.
func DefaultBuzzFlowConfig(sc Scenario) WorkflowConfig {
	return WorkflowConfig{Scenario: sc, Width: 16, FileSize: 190 << 10, Prefix: "buzzflow"}
}

// DefaultMontageConfig returns the Montage configuration matching the paper's
// totals: 160 jobs overall.
func DefaultMontageConfig(sc Scenario) WorkflowConfig {
	return WorkflowConfig{Scenario: sc, Width: 52, FileSize: 1 << 20, Prefix: "montage"}
}

// stage captures the running state of a generator: the pool of files the
// previous stage produced, from which the next stage draws its inputs.
type stage struct {
	w    *workflow.Workflow
	cfg  WorkflowConfig
	pool []string
	seq  int
}

// taskOps returns how many reads and writes one task should perform so that
// reads+writes ≈ the scenario's OpsPerTask, given how many predecessor files
// are available to read.
func (s *stage) taskOps(available int) (reads, writes int) {
	ops := s.cfg.Scenario.OpsPerTask
	if ops < 2 {
		ops = 2
	}
	reads = ops / 2
	if reads > available {
		reads = available
	}
	if reads < 1 && available > 0 {
		reads = 1
	}
	writes = ops - reads
	if writes < 1 {
		writes = 1
	}
	return reads, writes
}

// addStage appends one stage of `count` tasks named stageName. Each task
// reads a contiguous window of the previous pool (wrapping around) and
// produces its share of new files, which become the next pool.
func (s *stage) addStage(stageName string, count int) {
	if count <= 0 {
		return
	}
	var nextPool []string
	for i := 0; i < count; i++ {
		reads, writes := s.taskOps(len(s.pool))
		inputs := window(s.pool, i*reads, reads)
		outputs := make([]workflow.FileSpec, 0, writes)
		for o := 0; o < writes; o++ {
			name := fmt.Sprintf("%s/%s/t%03d/out%05d", s.cfg.Prefix, stageName, i, o)
			size := s.cfg.FileSize
			if s.cfg.Sizes != nil {
				size = s.cfg.Sizes.Sample()
			}
			outputs = append(outputs, workflow.FileSpec{Name: name, Size: size})
			nextPool = append(nextPool, name)
		}
		s.w.MustAddTask(workflow.Task{
			ID:      fmt.Sprintf("%s-%03d-%s-%03d", s.cfg.Prefix, s.seq, stageName, i),
			Stage:   stageName,
			Inputs:  inputs,
			Outputs: outputs,
			Compute: s.cfg.Scenario.Compute,
		})
	}
	s.pool = nextPool
	s.seq++
}

// window returns n elements of pool starting at offset, wrapping around and
// deduplicating (a window longer than the pool returns the whole pool).
func window(pool []string, offset, n int) []string {
	if len(pool) == 0 || n <= 0 {
		return nil
	}
	if n >= len(pool) {
		out := make([]string, len(pool))
		copy(out, pool)
		return out
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pool[(offset+i)%len(pool)])
	}
	return out
}

// BuzzFlow builds the near-pipelined DBLP/PubMed trend-mining workflow of
// Fig. 9a: a chain of analysis stages, two of which (the per-partition buzz
// detection and the correlation) fan out to Width parallel tasks. With the
// default width of 16 the workflow has 72 jobs.
func BuzzFlow(cfg WorkflowConfig) *workflow.Workflow {
	if cfg.Width <= 0 {
		cfg.Width = 16
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "buzzflow"
	}
	w := workflow.New("buzzflow")
	s := &stage{w: w, cfg: cfg}

	// The publication database is the single external input.
	dbName := cfg.Prefix + "/dblp.xml"
	w.AddExternalInput(dbName, 1<<30)
	s.pool = []string{dbName}

	// Near-pipeline: sequential stages with two parallel sections.
	s.addStage("file-split", 1)
	s.addStage("buzz", cfg.Width)         // parallel buzz detection per partition
	s.addStage("buzz-history", cfg.Width) // parallel history per partition
	s.addStage("histogram", 1)
	s.addStage("top10", 1)
	s.addStage("zipf-filter", 1)
	s.addStage("cross-join", cfg.Width) // parallel correlation candidates
	s.addStage("correlate", cfg.Width)  // parallel correlation scoring
	s.addStage("top-correlations", 1)
	s.addStage("gather", 1)
	s.addStage("report", 1)
	s.addStage("publish", 1)
	return w
}

// Montage builds the astronomy mosaic workflow of Fig. 9b: a split stage, a
// wide band of parallelized jobs (projection, background fitting and
// rectification) and a final merge. With the default width of 52 the workflow
// has 160 jobs.
func Montage(cfg WorkflowConfig) *workflow.Workflow {
	if cfg.Width <= 0 {
		cfg.Width = 52
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "montage"
	}
	w := workflow.New("montage")
	s := &stage{w: w, cfg: cfg}

	// Raw sky images are the external inputs, one per projection task.
	pool := make([]string, 0, cfg.Width)
	for i := 0; i < cfg.Width; i++ {
		name := fmt.Sprintf("%s/raw/image%04d.fits", cfg.Prefix, i)
		w.AddExternalInput(name, cfg.FileSize)
		pool = append(pool, name)
	}
	s.pool = pool

	s.addStage("mImgtbl", 1)             // split: build the image table
	s.addStage("mProject", cfg.Width)    // parallel re-projection
	s.addStage("mDiffFit", cfg.Width)    // parallel plane-difference fitting
	s.addStage("mConcatFit", 1)          // merge the fits
	s.addStage("mBgModel", 1)            // global background model
	s.addStage("mBackground", cfg.Width) // parallel background rectification
	s.addStage("mAdd", 1)                // merge into the mosaic
	s.addStage("mShrink", 1)
	s.addStage("mJPEG", 1)
	return w
}

// JobCount returns the number of jobs the generator will produce for the
// given configuration (width-dependent, scenario-independent).
func JobCount(name string, width int) int {
	switch name {
	case "buzzflow":
		if width <= 0 {
			width = 16
		}
		return 8 + 4*width
	case "montage":
		if width <= 0 {
			width = 52
		}
		return 6 + 3*width
	default:
		return 0
	}
}
