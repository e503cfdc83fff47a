package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/registry"
	"geomds/internal/rpc"
)

func TestExitCodeFor(t *testing.T) {
	overload := &limits.Overload{Tenant: "t", Reason: limits.ReasonRate, RetryAfter: time.Second}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"generic", errors.New("boom"), 1},
		{"not-found", registry.ErrNotFound, exitNotFound},
		{"wrapped not-found", fmt.Errorf("get: %w", registry.ErrNotFound), exitNotFound},
		{"deadline", context.DeadlineExceeded, exitDeadline},
		{"cancelled", context.Canceled, exitDeadline},
		{"overloaded", overload, exitOverloaded},
		{"wrapped overloaded", fmt.Errorf("put: %w", overload), exitOverloaded},
		{"overloaded sentinel", limits.ErrOverloaded, exitOverloaded},
		// A request that was refused *and* timed out is a timeout to scripts:
		// the deadline branch wins.
		{"deadline beats overloaded", fmt.Errorf("%w: %w", context.DeadlineExceeded, overload), exitDeadline},
	}
	for _, tc := range cases {
		if got := exitCodeFor(tc.err); got != tc.want {
			t.Errorf("%s: exitCodeFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// server is one in-process registry server on a loopback port.
type server struct {
	addr string
	ln   *countingListener
	srv  *rpc.Server
}

func startServer(t *testing.T) *server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{addr: ln.Addr().String(), ln: &countingListener{Listener: ln}}
	s.srv = rpc.NewServer(registry.NewInstance(1, memcache.New(memcache.Config{})), nil)
	go s.srv.Serve(s.ln)
	t.Cleanup(func() { s.srv.Close() })
	return s
}

// metactl runs one invocation and returns its exit code, stdout and stderr.
func metactl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(append([]string{"-timeout", "5s"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCommands(t *testing.T) {
	s := startServer(t)
	steps := []struct {
		args []string
		code int
		out  string // a substring of stdout
	}{
		{[]string{"put", "data/a", "2048", "1", "4"}, 0, `created "data/a" version 1`},
		{[]string{"put", "data/b", "1", "1"}, 0, `created "data/b"`},
		{[]string{"put", "data/a", "1", "1"}, 1, ""},
		{[]string{"get", "data/a"}, 0, `"size":2048`},
		{[]string{"ls"}, 0, "data/a\n"},
		{[]string{"ls"}, 0, "data/b\n"},
		{[]string{"stat"}, 0, "entries: 2"},
		{[]string{"del", "data/a"}, 0, `deleted "data/a"`},
		{[]string{"get", "data/a"}, exitNotFound, ""},
		{[]string{"del", "data/b", "ghost"}, 0, "deleted 1 of 2 entries"},
		{[]string{"stat"}, 0, "entries: 0"},
		{[]string{"put", "data/c"}, exitUsage, ""},
		{[]string{"frobnicate"}, exitUsage, ""},
	}
	for _, step := range steps {
		code, out, errOut := metactl(t, append([]string{"-addr", s.addr}, step.args...)...)
		if code != step.code || !strings.Contains(out, step.out) {
			t.Errorf("metactl %v = %d, stdout %q, stderr %q; want %d and %q", step.args, code, out, errOut, step.code, step.out)
		}
	}
}

// TestShardAddrsSurviveAClosedShard: against three shard servers with one
// closed, a replicated tier keeps the closed shard's slot as a placeholder
// and serves from the replicas; an unreplicated one has nowhere to go.
func TestShardAddrsSurviveAClosedShard(t *testing.T) {
	servers := []*server{startServer(t), startServer(t), startServer(t)}
	servers[1].srv.Close()
	addrs := servers[0].addr + "," + servers[1].addr + "," + servers[2].addr
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("rep/f%d", i)
		if code, _, errOut := metactl(t, "-shard-addrs", addrs, "-replication", "2", "put", name, "1", "1"); code != 0 {
			t.Fatalf("put %s at -replication 2 = %d: %s", name, code, errOut)
		}
		if code, out, errOut := metactl(t, "-shard-addrs", addrs, "-replication", "2", "get", name); code != 0 || !strings.Contains(out, name) {
			t.Fatalf("get %s at -replication 2 = %d, %q: %s", name, code, out, errOut)
		}
	}
	if code, _, errOut := metactl(t, "-shard-addrs", addrs, "-replication", "1", "get", "rep/f0"); code != 1 {
		t.Errorf("get at -replication 1 with a shard closed = %d, want 1: %s", code, errOut)
	}
}

// TestShardAddrsTier: stat names the tier site.Build assembled, a list
// without an address is a usage error, and a replicated tier with no shard
// dialed is refused.
func TestShardAddrsTier(t *testing.T) {
	servers := []*server{startServer(t), startServer(t)}
	addrs := servers[0].addr + "," + servers[1].addr
	if code, out, errOut := metactl(t, "-shard-addrs", addrs, "-replication", "2", "stat"); code != 0 ||
		!strings.Contains(out, "address: routing tier over 2 remote shards, 2-way replicated\n") {
		t.Errorf("stat = %d, %q: %s", code, out, errOut)
	}
	if code, _, errOut := metactl(t, "-shard-addrs", " , ", "ls"); code != exitUsage {
		t.Errorf("ls over no address = %d, want %d: %s", code, exitUsage, errOut)
	}
	for _, s := range servers {
		s.srv.Close()
	}
	if code, _, errOut := metactl(t, "-shard-addrs", addrs, "-replication", "2", "ls"); code != 1 || !strings.Contains(errOut, "no remote shard") {
		t.Errorf("ls with every shard closed = %d, want 1 and a refusal: %s", code, errOut)
	}
}

// TestOneConnectionPerServer: an invocation runs one command, so each server
// it dials accepts one connection — the Dial handshake's — and no more.
func TestOneConnectionPerServer(t *testing.T) {
	servers := []*server{startServer(t), startServer(t), startServer(t)}
	addrs := servers[0].addr + "," + servers[1].addr + "," + servers[2].addr
	for _, args := range [][]string{
		{"-addr", servers[0].addr, "put", "one/a", "1", "1"},
		{"-addr", servers[0].addr, "get", "one/a"},
		{"-addr", servers[0].addr, "stat"},
		{"-shard-addrs", addrs, "put", "one/b", "1", "1"},
		{"-shard-addrs", addrs, "ls"},
		{"-shard-addrs", addrs, "stat"},
	} {
		before := make([]int64, len(servers))
		for i, s := range servers {
			before[i] = s.ln.accepted.Load()
		}
		if code, _, errOut := metactl(t, args...); code != 0 {
			t.Fatalf("metactl %v = %d: %s", args, code, errOut)
		}
		for i, s := range servers {
			dialed := args[0] == "-shard-addrs" || i == 0
			want := int64(0)
			if dialed {
				want = 1
			}
			if got := s.ln.accepted.Load() - before[i]; got != want {
				t.Errorf("metactl %v: server %d accepted %d connections, want %d", args, i, got, want)
			}
		}
	}
}
