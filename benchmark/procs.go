package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// env is where the benchmark lives in its checkout. Everything it writes
// goes under build, which the root .gitignore names.
type env struct {
	root   string // repository root (the directory holding cmd/metaserver)
	build  string // <root>/.bench_build: binaries, survives between runs
	tmp    string // <build>/run-<pid>: data dirs, quota file, server logs; removed on exit
	server string // the built metaserver binary
}

// findRoot returns the repository root: the working directory or its
// parent, whichever holds cmd/metaserver. `go run -C benchmark .` starts the
// program in benchmark/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "metaserver", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/metaserver at or above %s: run from the repository checkout", wd)
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build")}
	e.tmp = filepath.Join(e.build, fmt.Sprintf("run-%d", os.Getpid()))
	e.server = filepath.Join(e.build, "metaserver")
	return e, os.MkdirAll(e.tmp, 0o755)
}

// buildServer compiles cmd/metaserver from the checkout's source. The go
// tool's own cache makes the second call cheap; build time is never part of
// setup_s.
func (e *env) buildServer() error {
	cmd := exec.Command("go", "build", "-o", e.server, "./cmd/metaserver")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/metaserver: %v\n%s", err, out)
	}
	return nil
}

// children tracks every live server so that any exit path can kill them.
var children struct {
	sync.Mutex
	live map[*serverProc]struct{}
}

// confine re-executes the benchmark restricted to one CPU, the last it is
// allowed, unless it already has only one. The Go runtime of the new image
// then counts one CPU, and every server it spawns inherits the restriction.
//
// The reason is the sandbox. On a 2-vCPU virtual machine a closed loop
// between two processes spends most of each request waking a halted vCPU, at
// a price the host sets and changes by the minute; on one CPU the generator
// and the servers hand the processor to each other, nothing halts, and the
// same request takes half as long and repeats. What is measured is the
// software path's cost on one processor, not its parallel speed-up.
func confine() error {
	var allowed [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	count, last := 0, 0
	for word, bits := range allowed {
		for bit := 0; bit < 64; bit++ {
			if bits&(1<<bit) != 0 {
				count, last = count+1, word*64+bit
			}
		}
	}
	if count <= 1 {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// The affinity set here is this thread's alone; exec keeps this thread
	// and drops the others.
	runtime.LockOSThread()
	var one [16]uint64
	one[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		runtime.UnlockOSThread()
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return syscall.Exec(self, os.Args, os.Environ())
}

// serverProc is one running metaserver.
type serverProc struct {
	cmd         *exec.Cmd
	argv        []string
	addr        string // RPC address parsed from the "listening on" line
	metricsAddr string // HTTP address parsed from the "metrics on" line
	spawned     time.Time
	ready       time.Time     // when both addresses had been printed
	exited      chan struct{} // closed once the process has been reaped
}

// spawn starts a metaserver on ephemeral loopback ports with the given
// extra flags and waits until it has printed both of its addresses.
func (e *env) spawn(extra ...string) (*serverProc, error) {
	argv := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, extra...)
	p := &serverProc{argv: append([]string{"metaserver"}, argv...), exited: make(chan struct{})}
	p.cmd = exec.Command(e.server, argv...)
	// Pdeathsig covers the exits no Go code runs on (a panic in a client
	// goroutine, SIGKILL of the generator).
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.CreateTemp(e.tmp, "server-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	p.cmd.Stderr = logf
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.spawned = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", e.server, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*serverProc]struct{})
	}
	children.live[p] = struct{}{}
	children.Unlock()

	addrs := make(chan [2]string, 1)
	go func() {
		defer close(p.exited)
		var rpcAddr string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() { // keeps draining so the server never blocks on stdout
			line := sc.Text()
			if _, after, ok := strings.Cut(line, " listening on "); ok {
				rpcAddr = strings.TrimSpace(after)
			}
			if _, after, ok := strings.Cut(line, "metrics on http://"); ok && rpcAddr != "" {
				host, _, _ := strings.Cut(after, "/")
				select {
				case addrs <- [2]string{rpcAddr, host}:
				default:
				}
			}
		}
		p.cmd.Wait() //nolint:errcheck // a killed server's status is not news
		close(addrs)
	}()
	select {
	case a, ok := <-addrs:
		if !ok {
			log, _ := os.ReadFile(logf.Name())
			p.kill()
			return nil, fmt.Errorf("metaserver %v exited before listening:\n%s", extra, log)
		}
		p.addr, p.metricsAddr, p.ready = a[0], a[1], time.Now()
		return p, nil
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("metaserver %v printed no address within 20s", extra)
	}
}

// kill SIGKILLs the server and returns once it has been reaped.
func (p *serverProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-p.exited
	children.Lock()
	delete(children.live, p)
	children.Unlock()
}

func killAll(ps []*serverProc) {
	for _, p := range ps {
		p.kill()
	}
}

// cleanup kills every live server and removes the run's scratch directory.
// Safe to call from any exit path, more than once.
func (e *env) cleanup() {
	children.Lock()
	live := make([]*serverProc, 0, len(children.live))
	for p := range children.live {
		live = append(live, p)
	}
	children.Unlock()
	killAll(live)
	os.RemoveAll(e.tmp) //nolint:errcheck // best effort on the way out
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// cpuTime returns user+system CPU consumed so far by pid ("self" allowed).
func cpuTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%s/stat CPU fields", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// totalCPU sums the generator's CPU time and every server's.
func totalCPU(servers []*serverProc) time.Duration {
	total, err := cpuTime("self")
	if err != nil {
		panic(err) // no /proc: the benchmark cannot measure here at all
	}
	for _, p := range servers {
		t, err := cpuTime(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			panic(fmt.Sprintf("server %d died during the run: %v", p.cmd.Process.Pid, err))
		}
		total += t
	}
	return total
}

// peakRSSMiB sums the servers' peak resident set sizes (VmHWM).
func peakRSSMiB(servers []*serverProc) (float64, error) {
	var kb int64
	for _, p := range servers {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, after, ok := strings.Cut(string(data), "VmHWM:")
		if !ok {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
		}
		v, err := strconv.ParseInt(strings.Fields(after)[0], 10, 64)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// counters is the part of a /metrics.json snapshot the benchmark reads,
// decoded into its own type so the program stays a black box.
type counters struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histograms"`
}

// flat folds a snapshot into one name→value map: counters by name,
// histograms as <name>_count and <name>_sum.
func (c counters) flat(into map[string]float64) {
	for name, v := range c.Counters {
		into[name] += float64(v)
	}
	for name, h := range c.Histograms {
		into[name+"_count"] += float64(h.Count)
		into[name+"_sum"] += float64(h.Sum)
	}
}

// scrape sums the servers' live counters.
func scrape(servers []*serverProc) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, p := range servers {
		resp, err := http.Get("http://" + p.metricsAddr + "/metrics.json")
		if err != nil {
			return nil, err
		}
		var c counters
		err = json.NewDecoder(resp.Body).Decode(&c)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode %s/metrics.json: %w", p.metricsAddr, err)
		}
		c.flat(sum)
	}
	return sum, nil
}

// delta returns end-start for every series of end.
func delta(start, end map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(end))
	for name, v := range end {
		d[name] = v - start[name]
	}
	return d
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // files may vanish under compaction
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
