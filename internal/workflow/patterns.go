package workflow

import (
	"fmt"
	"time"
)

// This file provides builders for the canonical data-access patterns of
// scientific workflows identified by the paper (§II-A): pipeline, scatter,
// gather and broadcast. Real workflows are typically a combination of
// these patterns; the builders compose by sharing file names.

// PatternConfig parameterizes the pattern builders.
type PatternConfig struct {
	// Prefix namespaces task IDs and file names so several patterns can be
	// combined in one workflow without collisions.
	Prefix string
	// FileSize is the size of every produced file.
	FileSize int64
	// Compute is the compute time of every task.
	Compute time.Duration
}

func (c PatternConfig) name(format string, args ...any) string {
	return c.Prefix + fmt.Sprintf(format, args...)
}

// Pipeline builds a linear chain of n tasks: each task consumes the file
// produced by its predecessor and produces one file. The first task reads an
// external input.
func Pipeline(cfg PatternConfig, n int) *Workflow {
	w := New(cfg.Prefix + "pipeline")
	if n <= 0 {
		return w
	}
	prev := cfg.name("input")
	w.AddExternalInput(prev, cfg.FileSize)
	for i := 0; i < n; i++ {
		out := cfg.name("stage%03d.out", i)
		w.MustAddTask(Task{
			ID:      cfg.name("stage%03d", i),
			Stage:   "pipeline",
			Inputs:  []string{prev},
			Outputs: []FileSpec{{Name: out, Size: cfg.FileSize}},
			Compute: cfg.Compute,
		})
		prev = out
	}
	return w
}

// Scatter builds one splitter task that produces fanout files, each consumed
// by an independent worker task.
func Scatter(cfg PatternConfig, fanout int) *Workflow {
	w := New(cfg.Prefix + "scatter")
	input := cfg.name("input")
	w.AddExternalInput(input, cfg.FileSize)
	splitter := Task{
		ID:      cfg.name("split"),
		Stage:   "scatter",
		Inputs:  []string{input},
		Compute: cfg.Compute,
	}
	for i := 0; i < fanout; i++ {
		splitter.Outputs = append(splitter.Outputs, FileSpec{Name: cfg.name("part%03d", i), Size: cfg.FileSize})
	}
	w.MustAddTask(splitter)
	for i := 0; i < fanout; i++ {
		w.MustAddTask(Task{
			ID:      cfg.name("work%03d", i),
			Stage:   "scatter-work",
			Inputs:  []string{cfg.name("part%03d", i)},
			Outputs: []FileSpec{{Name: cfg.name("work%03d.out", i), Size: cfg.FileSize}},
			Compute: cfg.Compute,
		})
	}
	return w
}

// Gather builds fanin independent producer tasks whose outputs are all
// consumed by a single collector task.
func Gather(cfg PatternConfig, fanin int) *Workflow {
	w := New(cfg.Prefix + "gather")
	collector := Task{
		ID:      cfg.name("collect"),
		Stage:   "gather",
		Outputs: []FileSpec{{Name: cfg.name("collected.out"), Size: cfg.FileSize}},
		Compute: cfg.Compute,
	}
	for i := 0; i < fanin; i++ {
		in := cfg.name("src%03d", i)
		w.AddExternalInput(in, cfg.FileSize)
		out := cfg.name("prod%03d.out", i)
		w.MustAddTask(Task{
			ID:      cfg.name("prod%03d", i),
			Stage:   "gather-produce",
			Inputs:  []string{in},
			Outputs: []FileSpec{{Name: out, Size: cfg.FileSize}},
			Compute: cfg.Compute,
		})
		collector.Inputs = append(collector.Inputs, out)
	}
	w.MustAddTask(collector)
	return w
}

// Broadcast builds one producer task whose single output file is consumed by
// fanout independent consumer tasks (read-many, the paper's "write once, read
// many times" pattern in its purest form).
func Broadcast(cfg PatternConfig, fanout int) *Workflow {
	w := New(cfg.Prefix + "broadcast")
	input := cfg.name("input")
	w.AddExternalInput(input, cfg.FileSize)
	shared := cfg.name("shared.out")
	w.MustAddTask(Task{
		ID:      cfg.name("produce"),
		Stage:   "broadcast",
		Inputs:  []string{input},
		Outputs: []FileSpec{{Name: shared, Size: cfg.FileSize}},
		Compute: cfg.Compute,
	})
	for i := 0; i < fanout; i++ {
		w.MustAddTask(Task{
			ID:      cfg.name("consume%03d", i),
			Stage:   "broadcast-consume",
			Inputs:  []string{shared},
			Outputs: []FileSpec{{Name: cfg.name("consume%03d.out", i), Size: cfg.FileSize}},
			Compute: cfg.Compute,
		})
	}
	return w
}
