package rpc

// What a connection's reads cost on a socket, read inside one RawConn.Read
// callback (inbox_linux.go): one read per frame that arrives alone, a buffer
// that grows with the bytes that arrive, and a Close that a peer keeping the
// socket full cannot hold.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"geomds/internal/feed"
)

// onOneCPU reports whether this process may run on one CPU only. If it may
// run on more, it runs the calling test again in a child process of the test
// binary confined to one CPU, as geobench confines itself, and reports false:
// the child's verdict is the test's. The child's runtime then counts one CPU,
// so no thread of it is woken by another's, and a count is the software's.
func onOneCPU(t *testing.T) bool {
	t.Helper()
	var allowed [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		t.Fatalf("sched_getaffinity: %v", errno)
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
		return true
	}
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Stdout, cmd.Stderr = &out, &out
	started := make(chan error, 1)
	go func() {
		// The affinity set here is this thread's alone, and the child forked
		// from it inherits it. The goroutine ends locked, so the thread goes
		// with it.
		runtime.LockOSThread()
		var one [16]uint64
		one[last/64] = 1 << (last % 64)
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
			started <- errno
			return
		}
		started <- cmd.Start()
	}()
	if err := <-started; err != nil {
		t.Fatalf("start the test on one CPU: %v", err)
	}
	err := cmd.Wait()
	t.Logf("on CPU %d alone:\n%s", last, out.Bytes())
	if err != nil {
		t.Fatalf("the test failed on one CPU: %v", err)
	}
	return false
}

// A Get round trip reads each socket once and writes it once: the client
// writes the request and reads the reply, the server reads the request and
// writes the reply, so one process that is both makes 2 reads and 2 writes
// per Get, on either transport. A reader that read again to learn that the
// socket was drained made 4 reads; one that wrote twice per reply, 3 writes.
func TestRoundTripReadsEachSocketOnce(t *testing.T) {
	if !onOneCPU(t) {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const gets = 10000
	forEachTransport(t, func(t *testing.T, tr transport) {
		client := startNullServer(t, tr)
		name := geobenchEntry(1).Name
		get := func() {
			if _, err := client.Get(tctx, name); err != nil {
				t.Fatal(err)
			}
		}
		for range 100 {
			get()
		}
		r0, w0, ok := syscallCounts()
		if !ok {
			t.Skip("no /proc/self/io")
		}
		for range gets {
			get()
		}
		r1, w1, _ := syscallCounts()
		reads, writes := float64(r1-r0)/gets, float64(w1-w0)/gets
		if math.Abs(reads-2) > 0.02 || math.Abs(writes-2) > 0.02 {
			t.Errorf("a Get round trip made %.3f reads and %.3f writes, want 2.00 and 2.00 within 1%%", reads, writes)
		}
		t.Logf("per Get round trip: %.3f reads, %.3f writes", reads, writes)
	})
}

// queued returns how many bytes conn's socket holds in the queue req names:
// TIOCINQ, received and not yet read, or TIOCOUTQ, sent and not yet
// acknowledged.
func queued(t *testing.T, conn net.Conn, req uintptr) int {
	t.Helper()
	raw, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var (
		n     int32
		errno syscall.Errno
	)
	if err := raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall(syscall.SYS_IOCTL, fd, req, uintptr(unsafe.Pointer(&n)))
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatalf("ioctl %#x: %v", req, errno)
	}
	return int(n)
}

// TestLengthPrefixBuysNoMemory on a socket: eight connections that each
// announce a frame of MaxMessageSize and send 9 KiB of it in two writes leave
// the server's live heap within 4 MiB of where it was. The second write makes
// the reader size its buffer for the frame: one that took the length prefix
// at its word grew the heap by 128 MiB.
func TestRawReadLengthPrefixBuysNoMemory(t *testing.T) {
	const conns, first, second = 8, 1 << 10, 8 << 10
	srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil, WithServerMetrics(nil))
	addr := tcpTransport.serve(t, srv)

	// read waits until the server has read every byte the peers sent: none
	// is unacknowledged on a peer's side, nor unread on the server's.
	read := func(peers []net.Conn) bool {
		for _, c := range peers {
			if queued(t, c, syscall.TIOCOUTQ) != 0 {
				return false
			}
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.conns) != len(peers) {
			return false
		}
		for ob := range srv.conns {
			if queued(t, ob.conn, syscall.TIOCINQ) != 0 {
				return false
			}
		}
		return true
	}
	before := liveHeap()
	msg := make([]byte, 4+first+second)
	binary.BigEndian.PutUint32(msg, MaxMessageSize)
	var peers []net.Conn
	for range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		peers = append(peers, c)
	}
	for _, part := range [][]byte{msg[:4+first], msg[4+first:]} {
		for _, c := range peers {
			if _, err := c.Write(part); err != nil {
				t.Fatal(err)
			}
		}
		if !eventually(func() bool { return read(peers) }) {
			t.Fatal("the server did not read what its peers sent")
		}
	}
	grown := int64(liveHeap()) - int64(before)
	if grown >= 4<<20 {
		t.Errorf("%d partial frames of %d bytes grew the live heap by %.1f MiB, want under 4", conns, first+second, float64(grown)/(1<<20))
	}
	t.Logf("live heap grew by %.2f MiB", float64(grown)/(1<<20))

	client, err := Dial(tctx, addr, WithPoolSize(1), WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Get(tctx, "beside"); err != nil {
		t.Errorf("Get beside %d partial frames: %v", conns, err)
	}
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// Between reads that fill its buffer the reader checks the closed flag, and
// once it is raised stops with the socket still full: it hands out the frames
// of the read it made, and no more.
func TestRawReadStopsAtTheClosedFlag(t *testing.T) {
	conn, peer := tcpPair(t)
	f := RequestFrame{Header: Header{ID: 1, Kind: FrameSingle}, Req: Request{Op: OpPing}}
	frame, err := encodeRequest(&f)
	if err != nil {
		t.Fatal(err)
	}
	wire := bytes.Repeat(frame.b, (32<<10)/len(frame.b))
	if _, err := peer.Write(wire); err != nil {
		t.Fatal(err)
	}
	peer.(*net.TCPConn).CloseWrite() // a reader that goes on reads to the end
	if !eventually(func() bool { return queued(t, conn, syscall.TIOCINQ) == len(wire) }) {
		t.Fatalf("%d of %d bytes arrived", queued(t, conn, syscall.TIOCINQ), len(wire))
	}
	var closed atomic.Bool
	in := newInbox(conn, &closed)
	if in.raw == nil {
		t.Fatalf("a %T is read with conn.Read", conn)
	}
	handled := 0
	err = in.read(func([]byte) bool {
		handled++
		closed.Store(true)
		return true
	})
	if !errors.Is(err, net.ErrClosed) {
		t.Errorf("read with the closed flag raised = %v, want net.ErrClosed", err)
	}
	if most := connReadBuffer / len(frame.b); handled > most {
		t.Errorf("%d frames handed out after the flag was raised, want at most the %d of one read", handled, most)
	}
}

// flood writes frame to conn over and over until a write fails, keeping its
// peer's socket full, and closes done when it stops.
func flood(conn net.Conn, frame []byte, done chan<- struct{}) {
	defer close(done)
	buf := bytes.Repeat(frame, max(1, (64<<10)/len(frame)))
	for {
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

// Close waits for a read in progress, and a reader whose reads keep filling
// its buffer never parks: a peer that keeps the socket full must not hold a
// Close, on the server or on the client.
func TestCloseEndsAFloodedReader(t *testing.T) {
	const bound = 5 * time.Second
	closeWithin := func(t *testing.T, close func()) {
		t.Helper()
		closed := make(chan struct{})
		go func() { close(); closed <- struct{}{} }()
		select {
		case <-closed:
		case <-time.After(bound):
			t.Fatalf("Close did not return within %v of a peer that keeps its socket full", bound)
		}
	}

	t.Run("server", func(t *testing.T) {
		srv := NewServer(nullAPI{entry: geobenchEntry(1)}, nil, WithServerMetrics(nil))
		addr := tcpTransport.serve(t, srv)
		peer, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		go io.Copy(io.Discard, peer) //nolint:errcheck // the replies are not the point
		f := RequestFrame{Header: Header{ID: 1, Kind: FrameSingle}, Req: Request{Op: OpPing}}
		frame, err := encodeRequest(&f)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go flood(peer, frame.b, done)
		if !eventually(func() bool { return srv.Requests() > 10000 }) {
			t.Fatalf("the server served %d pings of the flood", srv.Requests())
		}
		closeWithin(t, func() { srv.Close() })
		peer.Close()
		<-done
	})

	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- conn
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, ok := <-accepted
		if !ok {
			t.Fatal("accept failed")
		}
		defer peer.Close()
		// Events for a stream the client never opened: its reader discards
		// them, so it only ever reads.
		frame, err := appendEventFrame(nil, 999, []feed.Event{{Seq: 1, Op: feed.OpPut, Name: "flood"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go flood(peer, frame, done)
		pc := newPoolConn(conn, bound)
		time.Sleep(100 * time.Millisecond) // the reader is in its callback, reading
		closeWithin(t, func() { pc.fail(errors.New("closed by the test")) })
		peer.Close()
		<-done
	})
}
