package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"geomds/internal/registry"
	"geomds/internal/rpc"
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
			for i := range 4 {
				if _, err := os.Stat(filepath.Join(data, fmt.Sprintf("shard-%d", i))); err != nil {
					t.Errorf("data-dir layout: %v", err)
				}
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

// TestRunRefusesBadFlags: configuration errors come back from run rather than
// killing the process, and -ha is gone.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ha"}, "flag provided but not defined"},
		{[]string{"-replication", "2"}, "requires a sharded tier"},
		{[]string{"-shard-addrs", " , "}, "names no shard"},
		{[]string{"-write-concern", "some"}, "all or quorum"},
		{[]string{"-fsync", "sometimes"}, "fsync"},
		{[]string{"-cache", "-cache-staleness", "-1s"}, "staleness"},
		{[]string{"-tenant-config", "/nonexistent/tenants.json"}, "-tenant-config"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &lines{out: make(chan string, 4)}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}
