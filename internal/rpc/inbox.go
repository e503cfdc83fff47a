package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"
)

// connReadBuffer is what a connection's inbox holds while its frames are
// small, so a small frame and its length prefix take one read, and what a
// buffer grown past maxPooledFrame drops back to.
const connReadBuffer = 4 << 10

// readChunk is the most an inbox commits to a frame beyond the bytes that
// have arrived: a frame within one chunk is read into one buffer, and a larger
// one into a buffer that at most doubles as its bytes arrive, so a length
// prefix alone buys no memory.
const readChunk = 64 << 10

// inbox is the read side of one connection: one buffer its frames are read
// into and handed out of in place, by the server's read loop or the client's
// demultiplexer. Both decoders copy what they keep, so a frame's bytes are
// dead once its handler returns.
//
// On Linux a socket is read inside one syscall.RawConn.Read callback
// (inbox_linux.go): a read that does not fill the buffer has drained the
// socket, so the reader parks on the poller without the read that would find
// nothing. Anything else is read with conn.Read. Either way the frames go
// through split.
type inbox struct {
	conn   net.Conn
	raw    syscall.RawConn // nil: read with conn.Read
	closed *atomic.Bool    // raised before conn is closed (see readRaw)

	buf []byte // buf[off:n] is read and not yet handed out
	off int
	n   int
}

func newInbox(conn net.Conn, closed *atomic.Bool) *inbox {
	return &inbox{conn: conn, raw: rawConn(conn), closed: closed, buf: make([]byte, connReadBuffer)}
}

// read hands handle each whole frame's payload, those already buffered
// first, and reads more, until handle returns false or the connection fails.
// A handler that returns false has stepped out of the read: what it could not
// finish there, its caller finishes before calling read again.
func (in *inbox) read(handle func(payload []byte) bool) error {
	for {
		if more, err := in.split(handle); !more || err != nil {
			return err
		}
		if in.raw != nil {
			return in.readRaw(handle)
		}
		space := in.room()
		n, err := in.conn.Read(space)
		in.n += n
		if n == 0 && err != nil {
			return in.readErr(err)
		}
	}
}

// split hands handle the whole frames in the buffer, in order. It reports
// false when handle does, or with the error of a length prefix over the
// limit.
func (in *inbox) split(handle func(payload []byte) bool) (bool, error) {
	for {
		rest := in.buf[in.off:in.n]
		if len(rest) < 4 {
			return true, nil
		}
		size := int(binary.BigEndian.Uint32(rest))
		if size > MaxMessageSize {
			return false, fmt.Errorf("rpc: frame of %d bytes exceeds limit", size)
		}
		if len(rest) < 4+size {
			return true, nil
		}
		in.off += 4 + size
		if !handle(rest[4 : 4+size]) {
			return false, nil
		}
	}
}

// room returns where the next read goes, which is never empty: behind the
// partial frame the buffer holds, moved to its front, in a buffer sized for
// that frame by readChunk's rule. A buffer grown past maxPooledFrame is
// replaced by a small one once the frame that grew it is gone.
func (in *inbox) room() []byte {
	have := in.buf[in.off:in.n]
	want := connReadBuffer
	if len(have) >= 4 {
		size := 4 + int(binary.BigEndian.Uint32(have))
		want = max(want, min(size, max(readChunk, 2*len(have))))
	}
	if want > len(in.buf) || (len(in.buf) > maxPooledFrame && want <= maxPooledFrame) {
		buf := make([]byte, want)
		in.n = copy(buf, have)
		in.buf, in.off = buf, 0
	} else if in.off > 0 {
		in.n = copy(in.buf, have)
		in.off = 0
	}
	return in.buf[in.n:]
}

// readErr is the error a read that returned none of a frame ends the
// connection with: io.EOF between frames, which the caller does not report,
// or io.ErrUnexpectedEOF inside one.
func (in *inbox) readErr(err error) error {
	if err == io.EOF && in.n > in.off {
		return fmt.Errorf("rpc: read payload: %w", io.ErrUnexpectedEOF)
	}
	return err
}
