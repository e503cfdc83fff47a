package rpc

import (
	"io"
	"net"
	"os"
	"syscall"
)

// rawConn returns the raw connection of a socket, or nil for a conn that is
// not one (a test's wrapper, say), which is read with conn.Read.
func rawConn(conn net.Conn) syscall.RawConn {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// readRaw is read's loop inside one RawConn.Read callback, so a round trip
// reads its socket once. The callback reads; a read that filled the buffer
// may have left bytes behind and reads again, and one that did not has
// drained the socket, so once its frames are handed out the callback returns
// false and the runtime parks the reader until the poller sees more. That is
// safe only inside one RawConn.Read: it resets the socket's readiness on
// entry, so the first call after entering must read.
//
// Nothing in the callback may block, because Close waits for it to return:
// handle steps out instead. Between reads it checks the closed flag, which
// needs no lock, so that a peer that keeps the socket full cannot hold a
// Close forever.
func (in *inbox) readRaw(handle func(payload []byte) bool) error {
	var err error
	rerr := in.raw.Read(func(fd uintptr) bool {
		for {
			space := in.room()
			n, errno := syscall.Read(int(fd), space)
			switch {
			case errno == syscall.EINTR:
				continue
			case errno == syscall.EAGAIN:
				return false
			case errno != nil:
				err = os.NewSyscallError("read", errno)
				return true
			case n == 0:
				err = in.readErr(io.EOF)
				return true
			}
			in.n += n
			var more bool
			if more, err = in.split(handle); !more || err != nil {
				return true
			}
			if n < len(space) {
				return false
			}
			if in.closed.Load() {
				err = net.ErrClosed
				return true
			}
		}
	})
	if rerr != nil {
		return rerr
	}
	return err
}
