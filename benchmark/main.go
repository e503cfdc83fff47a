// Command geobench is the repository's end-to-end benchmark: it builds
// cmd/metaserver, runs it as separate processes with every emulation knob
// off, drives it over loopback with the repo's own rpc.Client and core
// strategies from this one generator process, checks every reply, and
// prints each metric BENCHMARK.json declares by name and unit. README.md
// explains the workloads, the metrics and how they should move together.
//
//	go run -C benchmark . -workload point_mixed -seed 1 -seconds 15 -trace 0
//	go run -C benchmark . -out a.json            # all four workloads
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is what every workload is run with.
type runConfig struct {
	seed    int64
	clients int    // closed-loop clients, one TCP connection each
	timing  timing // warm-up and timed windows
	setups  int    // how many times set-up is measured
	traced  bool   // also scrape the servers' counters around the windows
}

// record is what -out writes: the run's circumstances and every result.
type record struct {
	Commit        string    `json:"commit"`
	GoVersion     string    `json:"go_version"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	Clients       int       `json:"clients"`
	Seed          int64     `json:"seed"`
	Traced        bool      `json:"traced"`
	WindowSeconds float64   `json:"window_seconds"`
	Windows       int       `json:"windows"`
	WarmupSeconds float64   `json:"warmup_seconds"`
	Results       []*result `json:"results"`
}

// window is the length of one timed window. A run is many short windows so
// that the ones the host disturbed can be told from the ones it did not.
const window = 500 * time.Millisecond

// watchdog bounds every phase: a phase that overruns kills the servers and
// ends the run instead of hanging the caller.
var watchdog struct {
	sync.Mutex
	timer *time.Timer
	fire  func(phase string, limit time.Duration)
}

func deadline(phase string, limit time.Duration) {
	watchdog.Lock()
	defer watchdog.Unlock()
	if watchdog.timer != nil {
		watchdog.timer.Stop()
	}
	fire := watchdog.fire
	watchdog.timer = time.AfterFunc(limit, func() { fire(phase, limit) })
}

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of the key choice, op mix and jitter")
		seconds  = flag.Int("seconds", 15, "seconds measured per workload, split over the timed windows")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (counter deltas, layer ladder, traced in-process replay)")
		out      = flag.String("out", "", "also write the full run record (raw windows, sample counts, server argv) to this file")
		compare  = flag.Bool("compare", false, "compare two -out files against BENCHMARK.json's bounds: geobench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		return compareFiles(flag.Args())
	}
	if err := confine(); err != nil {
		fmt.Fprintln(os.Stderr, "geobench: not confined to one CPU, expect noisier numbers:", err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "geobench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var names []string
	for _, name := range workloadNames {
		if *workload == "all" || *workload == name {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "geobench: unknown workload %q\n", *workload)
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "geobench:", err)
		return 1
	}
	// Every exit path ends in cleanup: a normal return, a failed phase, a
	// panic on this goroutine, SIGINT/SIGTERM and the watchdog. Pdeathsig on
	// the children covers what is left.
	defer func() {
		e.cleanup()
		if p := recover(); p != nil {
			panic(p)
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		e.cleanup()
		os.Exit(130)
	}()
	watchdog.fire = func(phase string, limit time.Duration) {
		fmt.Fprintf(os.Stderr, "geobench: %s exceeded %v\n", phase, limit)
		e.cleanup()
		os.Exit(3)
	}

	clients := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(clients)
	cfg := runConfig{seed: *seed, clients: clients, traced: *trace == 1, setups: 5}
	measured := time.Duration(*seconds) * time.Second
	cfg.timing = timing{warmup: 2 * time.Second, window: window, windows: max(int(measured/window), 4)}
	if cfg.traced {
		// A traced run splits its time three ways: black-box windows (2/5),
		// the in-process replay (1/3) and the ladder (the rest, a fixed
		// count of calls). Set-up time is not its subject.
		cfg.setups = 1
		cfg.timing = timing{warmup: time.Second, window: window, windows: max(int(measured*2/5/window), 4)}
	}
	rec := record{
		Commit: commit(e.root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: clients,
		Clients: clients, Seed: *seed, Traced: cfg.traced, Windows: cfg.timing.windows,
		WindowSeconds: cfg.timing.window.Seconds(), WarmupSeconds: cfg.timing.warmup.Seconds(),
	}
	fmt.Printf("geobench: commit %s, %s, nproc %d, generator GOMAXPROCS %d, clients %d, seed %d, %d windows x %.2fs after %.0fs warm-up, trace %d\n",
		rec.Commit, rec.GoVersion, rec.NProc, rec.GOMAXPROCS, rec.Clients, rec.Seed, rec.Windows, rec.WindowSeconds, rec.WarmupSeconds, *trace)

	deadline("building cmd/metaserver", 10*time.Minute)
	if err := e.buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, "geobench:", err)
		return 1
	}
	// Whatever the phases allow themselves, a workload is done within the
	// contract's 180 s or the run is abandoned.
	whole := 170 * time.Second * time.Duration(len(names))
	defer time.AfterFunc(whole, func() { watchdog.fire("the whole run", whole) }).Stop()
	var ladder map[string]float64
	if cfg.traced {
		deadline("layer ladder", 2*time.Minute)
		if ladder, err = runLadder(e.tmp); err != nil {
			fmt.Fprintln(os.Stderr, "geobench: ladder:", err)
			return 1
		}
	}
	ctx := context.Background()
	var last *result
	for _, name := range names {
		res, err := runWorkload(ctx, e, name, cfg)
		if err == nil && cfg.traced {
			for metric, v := range ladder {
				res.set(metric, v)
			}
			deadline("traced replay of "+name, 2*time.Minute)
			err = replay(ctx, e, name, cfg, measured/9, filepath.Join(e.build, "spans-"+name+".json"), res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "geobench: %s: %v\n", name, err)
			return 1
		}
		res.print(os.Stdout)
		rec.Results = append(rec.Results, res)
		last = res
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "geobench:", err)
			return 1
		}
	}
	if len(names) == 1 {
		// The contract's last line: one workload, one JSON object.
		fmt.Println(last.contractLine(cfg.traced))
		return 0 // a wrong answer is reported in the line, not by the exit code
	}
	return code
}

func runWorkload(ctx context.Context, e *env, name string, cfg runConfig) (*result, error) {
	if name == "geo_hybrid" {
		return runGeo(ctx, e, cfg)
	}
	for i := range singleSites {
		if singleSites[i].name == name {
			return singleSites[i].run(ctx, e, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// commit names the checkout's commit, when it is a git checkout.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
