package rpc

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"geomds/internal/feed"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// dialCounting dials addr with a client of one connection whose metrics go
// to a registry of its own, and returns the client's connection.
func dialCounting(t *testing.T, addr string) (*Client, net.Conn, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	client, err := Dial(tctx, addr, WithPoolSize(1), WithTimeout(5*time.Second), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	client.mu.Lock()
	defer client.mu.Unlock()
	return client, client.conns[0].conn, reg
}

// A server from Start on 127.0.0.1 is reached over its local socket, and the
// dial counts as a local one.
func TestStartServesLoopbackOverLocalSocket(t *testing.T) {
	addr := localTransport.serve(t, NewServer(nullAPI{entry: geobenchEntry(1)}, nil))
	_, conn, reg := dialCounting(t, addr)
	if _, ok := conn.(*net.UnixConn); !ok {
		t.Fatalf("a client of %s is on a %T, want a *net.UnixConn", addr, conn)
	}
	if want := "@" + "geomds/rpc/" + addr; conn.RemoteAddr().String() != want {
		t.Errorf("the client's peer is %q, want %q", conn.RemoteAddr(), want)
	}
	if n, all := reg.Counter("rpc_client_local_dials_total").Value(), reg.Counter("rpc_client_dials_total").Value(); n != 1 || all != 1 {
		t.Errorf("local dials %d of %d, want 1 of 1", n, all)
	}
}

// A listener given to Serve, a closed server and a non-loopback address all
// leave the client on TCP.
func TestNoLocalSocketMeansTCP(t *testing.T) {
	onTCP := func(t *testing.T, addr string) {
		t.Helper()
		_, conn, reg := dialCounting(t, addr)
		if _, ok := conn.(*net.TCPConn); !ok {
			t.Errorf("a client of %s is on a %T, want a *net.TCPConn", addr, conn)
		}
		if n := reg.Counter("rpc_client_local_dials_total").Value(); n != 0 {
			t.Errorf("%d local dials, want 0", n)
		}
	}
	t.Run("Serve", func(t *testing.T) {
		onTCP(t, tcpTransport.serve(t, NewServer(nullAPI{}, nil)))
	})
	t.Run("closed server", func(t *testing.T) {
		srv := NewServer(nullAPI{}, nil)
		addr := localTransport.serve(t, srv)
		client, _, reg := dialCounting(t, addr)
		srv.Close()
		err := client.Ping(tctx)
		if !errors.Is(err, registry.ErrUnavailable) || !strings.Contains(fmt.Sprint(err), "dial tcp") {
			t.Errorf("Ping of a closed server = %v, want a refused TCP dial", err)
		}
		if n := reg.Counter("rpc_client_local_dials_total").Value(); n != 1 {
			t.Errorf("%d local dials, want only the first", n)
		}
	})
	t.Run("non-loopback address", func(t *testing.T) {
		ip := hostAddress(t)
		srv := NewServer(nullAPI{}, nil)
		addr, err := srv.Start(net.JoinHostPort(ip.String(), "0"))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		onTCP(t, addr)
	})
}

// hostAddress returns a non-loopback address of this host, or skips.
func hostAddress(t *testing.T) net.IP {
	addrs, err := net.InterfaceAddrs()
	if err != nil {
		t.Skip(err)
	}
	for _, a := range addrs {
		if n, ok := a.(*net.IPNet); ok && !n.IP.IsLoopback() && !n.IP.IsLinkLocalUnicast() {
			if ln, err := net.Listen("tcp", net.JoinHostPort(n.IP.String(), "0")); err == nil {
				ln.Close()
				return n.IP
			}
		}
	}
	t.Skip("this host has no non-loopback address to listen on")
	return nil
}

// The server's log names a local client by the socket it came in on: the
// client of an abstract socket has no address of its own.
func TestLocalPeerIsNamedInLogs(t *testing.T) {
	var logs lockedBuffer
	addr := localTransport.serve(t, NewServer(nullAPI{}, log.New(&logs, "", 0)))
	conn, err := net.Dial("unix", dialNames(addr)[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	want := "bad frame from local client of @geomds/rpc/" + addr
	if !eventually(func() bool { return strings.Contains(logs.String(), want) }) {
		t.Errorf("the server logged %q, want a line with %q", logs.String(), want)
	}
}

// Which addresses a client tries the local socket for, and under which
// names; and which names a listener serves.
func TestLocalNames(t *testing.T) {
	for addr, want := range map[string][]string{
		"127.0.0.1:7070":       {"@geomds/rpc/127.0.0.1:7070"},
		"127.0.0.2:7070":       {"@geomds/rpc/127.0.0.2:7070"},
		"[::1]:7070":           {"@geomds/rpc/[::1]:7070"},
		"[0:0:0:0:0:0:0:1]:80": {"@geomds/rpc/[::1]:80"},
		"localhost:7070":       {"@geomds/rpc/127.0.0.1:7070", "@geomds/rpc/[::1]:7070"},
		"192.0.2.1:7070":       nil,
		"metaserver:7070":      nil,
		"0.0.0.0:7070":         nil,
		"127.0.0.1":            nil,
	} {
		if got := dialNames(addr); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("a client of %s tries %q, want %q", addr, got, want)
		}
	}
	for _, c := range []struct {
		ip   net.IP
		want []string
	}{
		{net.ParseIP("127.0.0.1"), []string{"@geomds/rpc/127.0.0.1:7070"}},
		{net.IPv6loopback, []string{"@geomds/rpc/[::1]:7070"}},
		{net.IPv4zero, []string{"@geomds/rpc/127.0.0.1:7070"}},
		{net.IPv6unspecified, []string{"@geomds/rpc/127.0.0.1:7070", "@geomds/rpc/[::1]:7070"}},
		{net.ParseIP("192.0.2.1"), nil},
	} {
		if got := listenNames(&net.TCPAddr{IP: c.ip, Port: 7070}); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("a listener on %s serves %q, want %q", c.ip, got, c.want)
		}
	}
}

// freePort returns a loopback TCP port nothing listened on a moment ago.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// A name another process holds fails Start, with an error naming it, and
// leaves the TCP port free.
func TestHeldLocalNameFailsStart(t *testing.T) {
	port := freePort(t)
	name := localName(loopback4, port)
	held, err := net.Listen("unix", name)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	_, err = NewServer(nullAPI{}, nil).Start(addr)
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("Start on %s beside a held %s = %v, want an error naming it", addr, name, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("the failed Start kept %s: %v", addr, err)
	}
	ln.Close()
}

// Close frees the local socket's name with the TCP port.
func TestCloseFreesLocalName(t *testing.T) {
	srv := NewServer(nullAPI{}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	name := dialNames(addr)[0]
	if _, err := net.Listen("unix", name); err == nil {
		t.Fatalf("%s was free while its server ran", name)
	}
	srv.Close()
	ln, err := net.Listen("unix", name)
	if err != nil {
		t.Fatalf("%s after Close: %v", name, err)
	}
	ln.Close()
}

// Only a peer of this process's user is taken for the server. CI cannot run
// a server as another user, so the rule is checked on the credentials.
func TestTrustedPeerIsThisUser(t *testing.T) {
	uid := uint32(os.Getuid())
	if !trustedPeer(&syscall.Ucred{Pid: 1, Uid: uid, Gid: 12345}) {
		t.Error("a peer of this user was refused")
	}
	for _, other := range []uint32{uid + 1, uid - 1, 0, 65534} {
		if other != uid && trustedPeer(&syscall.Ucred{Pid: int32(os.Getpid()), Uid: other, Gid: uint32(os.Getgid())}) {
			t.Errorf("a peer of uid %d was taken for a server of uid %d", other, uid)
		}
	}
	// The credentials a real local connection reports are this process's.
	addr := localTransport.serve(t, NewServer(nullAPI{}, nil))
	_, conn, _ := dialCounting(t, addr)
	cred, err := peerCred(conn)
	if err != nil || cred.Uid != uid || int(cred.Pid) != os.Getpid() {
		t.Errorf("peer credentials = %+v, %v; want uid %d, pid %d", cred, err, uid, os.Getpid())
	}
}

// A watch, its fallback snapshot and a 256-entry PutMany all work over the
// local socket.
func TestWatchAndBulkOverLocalSocket(t *testing.T) {
	_, srv, _ := startFeedServer(t, 2, registry.WithChangeFeed(feed.WithCapacity(8)))
	client, conn, _ := dialCounting(t, srv.Addr())
	if _, ok := conn.(*net.UnixConn); !ok {
		t.Fatalf("the client is on a %T, want a *net.UnixConn", conn)
	}
	entries := make([]registry.Entry, 256)
	for i := range entries {
		entries[i] = wireEntry(fmt.Sprintf("bulk/%03d", i))
	}
	stored, err := client.PutMany(tctx, entries)
	if err != nil || len(stored) != len(entries) {
		t.Fatalf("PutMany of %d = %d entries, %v", len(entries), len(stored), err)
	}
	w, err := client.Watch(tctx, 1, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Fallback() {
		t.Fatal("a cursor behind the feed's window did not fall back to the snapshot")
	}
	names := map[string]bool{}
	for _, ev := range watchCollect(t, w, len(entries)) {
		names[ev.Name] = true
	}
	if len(names) != len(entries) {
		t.Fatalf("the snapshot named %d entries, want %d", len(names), len(entries))
	}
	if _, err := client.Put(tctx, wireEntry("live")); err != nil {
		t.Fatal(err)
	}
	if ev := watchCollect(t, w, 1)[0]; ev.Name != "live" {
		t.Errorf("the live event after the snapshot is %+v", ev)
	}
}
