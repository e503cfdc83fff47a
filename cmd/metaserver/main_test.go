package main

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"geomds/internal/memcache"
	"geomds/internal/registry"
	"geomds/internal/rpc"
	"geomds/internal/store"
)

// lines collects what run prints to stdout and hands out complete lines.
type lines struct {
	mu  sync.Mutex
	buf strings.Builder
	out chan string
}

func (l *lines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		line, rest, ok := strings.Cut(l.buf.String(), "\n")
		if !ok {
			return len(p), nil
		}
		l.buf.Reset()
		l.buf.WriteString(rest)
		l.out <- line
	}
}

// server is one run() in flight.
type server struct {
	addr, metricsAddr string
	stop              chan os.Signal
	done              chan error
}

// start runs the server on ephemeral loopback ports, the way geobench spawns
// it, and parses its two stdout lines the way geobench parses them.
func start(t *testing.T, flags ...string) *server {
	t.Helper()
	s := &server{stop: make(chan os.Signal, 1), done: make(chan error, 1)}
	stdout := &lines{out: make(chan string, 4)} // run prints two lines
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, flags...)
	go func() { s.done <- run(args, stdout, s.stop) }()
	for _, marker := range []string{" listening on ", "metrics on http://"} {
		select {
		case line := <-stdout.out:
			_, after, ok := strings.Cut(line, marker)
			if !ok {
				t.Fatalf("stdout line %q lacks %q", line, marker)
			}
			if marker == " listening on " {
				s.addr = strings.TrimSpace(after)
			} else {
				s.metricsAddr, _, _ = strings.Cut(after, "/")
			}
		case err := <-s.done:
			t.Fatalf("metaserver %v exited before printing its addresses: %v", flags, err)
		case <-time.After(20 * time.Second):
			t.Fatalf("metaserver %v printed no %q line", flags, marker)
		}
	}
	if s.addr == "" || s.metricsAddr == "" {
		t.Fatalf("parsed addresses %q, %q", s.addr, s.metricsAddr)
	}
	return s
}

// shutdown delivers SIGTERM and waits for a clean exit.
func (s *server) shutdown(t *testing.T) {
	t.Helper()
	s.stop <- syscall.SIGTERM
	select {
	case err := <-s.done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("metaserver did not exit on SIGTERM")
	}
}

func dial(t *testing.T, addr string) *rpc.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := rpc.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRunGeobenchFlagSets starts the server with each flag set geobench
// spawns it with and drives a round trip over the wire.
func TestRunGeobenchFlagSets(t *testing.T) {
	dir := t.TempDir()
	quota := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(quota, []byte(`{"default": {"ops_per_sec": 1e9, "ops_burst": 1e9, "bytes_per_sec": 1e12, "bytes_burst": 1e12}, "max_inflight": 100000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data")
	for _, tc := range []struct {
		name    string
		flags   []string
		site    int
		restart bool // the entry must survive a restart over the same flags
	}{
		{name: "point_mixed"},
		{name: "durable_write", restart: true, flags: []string{"-shards", "4", "-replication", "2", "-write-concern", "all",
			"-data-dir", data, "-fsync", "always", "-feed"}},
		{name: "hot_read", flags: []string{"-shards", "4", "-feed", "-cache", "-tenant-config", quota}},
		{name: "geo_hybrid", site: 3, flags: []string{"-site", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			s := start(t, tc.flags...)
			c := dial(t, s.addr)
			if int(c.Site()) != tc.site {
				t.Errorf("served site = %d, want %d", c.Site(), tc.site)
			}
			e := registry.NewEntry("data/f1", 2048, "test", registry.Location{Node: registry.NoNode})
			stored, err := c.Create(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Get(ctx, "data/f1")
			if err != nil || got.Version != stored.Version || got.Size != 2048 {
				t.Errorf("Get = %+v, %v; want what Create stored (version %d)", got, err, stored.Version)
			}
			if n := c.Len(ctx); n != 1 {
				t.Errorf("Len = %d, want 1", n)
			}
			s.shutdown(t)
			if !tc.restart {
				return
			}
			// The four shards share one log in the data dir.
			if segs, _ := filepath.Glob(filepath.Join(data, "wal-*.log")); len(segs) != 1 {
				t.Errorf("data-dir layout: segments %v, want one shared log", segs)
			}
			if dirs, _ := filepath.Glob(filepath.Join(data, "shard-*")); len(dirs) != 0 {
				t.Errorf("data-dir layout: per-shard directories %v", dirs)
			}
			s = start(t, tc.flags...)
			defer s.shutdown(t)
			got, err = dial(t, s.addr).Get(ctx, "data/f1")
			if err != nil || got.Size != 2048 {
				t.Errorf("after restart Get = %+v, %v; want the entry recovered from %s", got, err, data)
			}
		})
	}
}

// TestRunRoutingTier serves a routing tier over two shard servers at
// replication 2: a Create through the tier lands on both shards. A shard
// address nothing listens on fails startup with the dial error.
func TestRunRoutingTier(t *testing.T) {
	ctx := context.Background()
	var shards []*registry.Instance
	var addrs []string
	for range 2 {
		inst := registry.NewInstance(5, memcache.New(memcache.Config{}))
		srv := rpc.NewServer(inst, nil)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		shards = append(shards, inst)
		addrs = append(addrs, addr)
	}

	s := start(t, "-site", "5", "-shard-addrs", strings.Join(addrs, ","), "-replication", "2")
	e := registry.NewEntry("data/routed", 4096, "test", registry.Location{Node: registry.NoNode})
	if _, err := dial(t, s.addr).Create(ctx, e); err != nil {
		t.Fatal(err)
	}
	s.shutdown(t)
	for i, inst := range shards {
		if got, err := inst.Get(ctx, "data/routed"); err != nil || got.Size != 4096 {
			t.Errorf("shard %d holds %+v, %v; want the entry created through the tier", i, got, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	err = run([]string{"-addr", "127.0.0.1:0", "-shard-addrs", addrs[0] + "," + closed, "-replication", "2"}, &lines{out: make(chan string, 4)}, nil)
	if err == nil || !strings.Contains(err.Error(), "dial shard "+closed) {
		t.Errorf("run with an undialable shard = %v, want the dial error naming %s", err, closed)
	}
}

// TestRunRefusesGeneration1DataDir: a data directory the previous storage
// generation wrote — a log directory per shard, or a generation-1 log of a
// single instance — makes run fail at once with store.ErrGeneration, before
// it serves anything.
func TestRunRefusesGeneration1DataDir(t *testing.T) {
	segment := append([]byte("GMDSWAL1"), make([]byte, 512)...)
	for _, tc := range []struct {
		name  string
		files []string
		flags []string
	}{
		{"sharded", []string{"shard-0", "shard-1", "shard-2", "shard-3"}, []string{"-shards", "4", "-replication", "2", "-fsync", "always", "-feed"}},
		{"single", []string{"."}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := t.TempDir()
			for _, sub := range tc.files {
				if err := os.MkdirAll(filepath.Join(data, sub), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(data, sub, "wal-0000000000000001.log"), segment, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			stdout := &lines{out: make(chan string, 4)}
			args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", data}, tc.flags...)
			err := run(args, stdout, nil)
			if !errors.Is(err, store.ErrGeneration) {
				t.Fatalf("run = %v, want store.ErrGeneration", err)
			}
			if len(stdout.out) != 0 {
				t.Errorf("run printed %q before refusing", <-stdout.out)
			}
			if segs, _ := filepath.Glob(filepath.Join(data, "wal-*.log")); tc.name == "sharded" && len(segs) != 0 {
				t.Errorf("run created a log %v beside the old directories", segs)
			}
		})
	}
}

// TestRunRefusesBadFlags: configuration errors come back from run rather than
// killing the process, -ha is gone, and -write-concern accepts only all.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ha"}, "flag provided but not defined"},
		{[]string{"-replication", "2"}, "requires a sharded tier"},
		{[]string{"-shard-addrs", " , "}, "names no shard"},
		{[]string{"-write-concern", "quorum"}, "must be all"},
		{[]string{"-fsync", "sometimes"}, "fsync"},
		{[]string{"-cache", "-cache-staleness", "-1s"}, "staleness"},
		{[]string{"-feed", "-feed-capacity", "-5"}, "feed capacity"},
		{[]string{"-tenant-config", "/nonexistent/tenants.json"}, "-tenant-config"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &lines{out: make(chan string, 4)}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}
