package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/limits"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// DefaultMaxInflight is the per-connection bound on concurrently executing
// pipelined requests unless WithMaxInflight says otherwise.
const DefaultMaxInflight = 64

// batchRespPool recycles the per-batch response slice assembled for every
// FrameBatch: batches are the bulk hot path (PutMany/GetMany fan-out sends
// hundreds of operations per frame), and the slice is dead the moment the
// response frame is encoded.
var batchRespPool = sync.Pool{New: func() any { return new([]Response) }}

// takeBatchResponses returns a zeroed response slice of length n, reusing a
// pooled backing array when one is large enough.
func takeBatchResponses(n int) []Response {
	bp := batchRespPool.Get().(*[]Response)
	if cap(*bp) < n {
		return make([]Response, n)
	}
	return (*bp)[:n]
}

// releaseBatchResponses returns a batch response slice to the pool once its
// frame has been encoded; it is cleared here so pooled slices do not pin the
// entries the responses referenced. A nil slice (non-batch frame) is a
// no-op.
func releaseBatchResponses(ops []Response) {
	if cap(ops) == 0 {
		return
	}
	clear(ops)
	pooled := ops[:0] // not ops itself, which would be moved to the heap on every call
	batchRespPool.Put(&pooled)
}

// Server exposes one registry instance over TCP. One server corresponds to
// the metadata registry deployment of a single datacenter.
//
// Requests are pipelined: each connection executes up to the configured
// in-flight bound concurrently and responses are written as they complete,
// tagged with the request ID, possibly out of order.
//
// Each dispatched request runs under a context derived from the deadline the
// client propagated in the frame header: a request whose deadline has
// already passed on arrival is answered with an ErrDeadline error frame
// without touching the registry, a batch stops executing between operations
// once the deadline passes, and the registry operation itself observes the
// context. Closing the server cancels the base context, aborting whatever
// the in-flight handlers are blocked on.
type Server struct {
	reg         registry.API
	listener    net.Listener
	logger      *log.Logger
	maxInflight int
	limiter     *limits.Limiter
	obs         serverObs

	// baseCtx is the root of every request context; cancelled on Close.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	requests  atomic.Int64
	abandoned atomic.Int64
}

// serverObs holds the server's observability instruments, resolved once at
// construction so dispatch never touches the registry's name map. All fields
// tolerate being nil (instrumentation disabled).
type serverObs struct {
	dispatched  *metrics.Counter             // rpc_server_dispatched_total: registry ops executed
	abandoned   *metrics.Counter             // rpc_server_abandoned_total: ops refused because the propagated deadline had passed
	conns       *metrics.Gauge               // rpc_server_conns: connections currently served
	inflight    *metrics.Gauge               // rpc_server_inflight: pipelined frames currently executing
	errsByCode  map[ErrCode]*metrics.Counter // rpc_server_errors_total per wire code
	unknownErrs *metrics.Counter             // fallback for codes outside the known table
	latency     *metrics.Histogram           // rpc_server_latency_ns: per-op execution time
	trace       *metrics.TraceRing           // recent per-op events
}

func newServerObs(reg *metrics.Registry) serverObs {
	obs := serverObs{
		dispatched:  reg.Counter("rpc_server_dispatched_total"),
		abandoned:   reg.Counter("rpc_server_abandoned_total"),
		conns:       reg.Gauge("rpc_server_conns"),
		inflight:    reg.Gauge("rpc_server_inflight"),
		unknownErrs: reg.Counter("rpc_server_errors_unknown_total"),
		latency:     reg.Histogram("rpc_server_latency_ns"),
		trace:       reg.Trace(),
	}
	if reg != nil {
		obs.errsByCode = make(map[ErrCode]*metrics.Counter)
		for _, code := range errCodes[1:] {
			obs.errsByCode[code] = reg.Counter("rpc_server_errors_" + strings.ReplaceAll(string(code), "-", "_") + "_total")
		}
	}
	return obs
}

// countErr attributes one failed response to its wire code. The code map is
// read-only after construction, so no locking is needed.
func (o serverObs) countErr(code ErrCode) {
	if c, ok := o.errsByCode[code]; ok {
		c.Inc()
		return
	}
	o.unknownErrs.Inc()
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics selects the registry the server's instruments report to:
// dispatched and abandoned operation counts, per-error-code failure counts,
// live connection and in-flight gauges. The default is metrics.Default; pass
// nil to disable instrumentation entirely.
func WithServerMetrics(reg *metrics.Registry) ServerOption {
	return func(s *Server) { s.obs = newServerObs(reg) }
}

// WithServerLimits installs per-tenant admission control: every incoming
// frame is offered to the limiter once its preamble is decoded — before its
// body is, and before it takes an in-flight slot or touches the registry —
// and rejected frames are answered with an "overloaded" error carrying the
// limiter's retry-after hint. The tenant is read from the frame header (empty
// maps to limits.DefaultTenant); a batch frame pays one operation token per
// batched op, and every frame pays its payload size in byte tokens. A nil
// limiter (the default) admits everything.
func WithServerLimits(l *limits.Limiter) ServerOption {
	return func(s *Server) { s.limiter = l }
}

// WithMaxInflight bounds how many pipelined requests one connection may have
// executing concurrently (default DefaultMaxInflight). Excess requests wait
// in the connection's read loop, applying backpressure to the client.
func WithMaxInflight(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxInflight = n
		}
	}
}

// NewServer wraps the given registry behind a server. Call Serve (or
// ListenAndServe) to start accepting connections.
func NewServer(reg registry.API, logger *log.Logger, opts ...ServerOption) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		reg:         reg,
		logger:      logger,
		maxInflight: DefaultMaxInflight,
		obs:         newServerObs(metrics.Default),
		baseCtx:     baseCtx,
		cancelAll:   cancel,
		conns:       make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:7070" or ":0") and serves
// until Close. It returns the error that stopped the accept loop, or nil
// after an orderly Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections from ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("rpc: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return fmt.Errorf("rpc: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Start is a convenience wrapper that listens on addr and serves in a
// background goroutine, returning the bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			s.logger.Printf("rpc server stopped: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Addr returns the listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Requests returns the number of registry operations served (each operation
// of a batch frame counts individually).
func (s *Server) Requests() int64 { return s.requests.Load() }

// Abandoned returns the number of operations the server refused to execute
// because their propagated deadline had already passed on arrival (or passed
// between the operations of a batch). Requests cut short by server shutdown
// are not counted: no client deadline passed for them.
func (s *Server) Abandoned() int64 { return s.abandoned.Load() }

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting connections, closes active ones and waits for
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Cancel every in-flight request context so handlers blocked inside the
	// registry (or a modelled latency sleep) abort instead of being waited
	// for.
	s.cancelAll()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// handle serves one connection until it drops. Frames are dispatched
// concurrently (bounded by maxInflight) and answered out of order; a message
// that does not decode as a frame ends the connection.
func (s *Server) handle(conn net.Conn) {
	var (
		wmu     sync.Mutex // serializes response-frame writes
		wg      sync.WaitGroup
		slots   = make(chan struct{}, s.maxInflight)
		watches = newConnWatches()
	)
	s.obs.conns.Add(1)
	defer s.obs.conns.Add(-1)
	defer func() {
		// Close before waiting: a response writer stuck on a stalled client
		// is only unblocked by the close. Watch streams block on their feed
		// rather than the connection, so cancel them explicitly.
		conn.Close()
		watches.cancelAll()
		wg.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		payload, err := readPayload(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.isClosed() {
				s.logger.Printf("rpc: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// Admission control sits between the two halves of decoding: the
		// preamble yields the tenant and the operation count, and the body —
		// all 64 requests of a batch, every entry of a PutMany — is decoded
		// only for a frame the limiter admits. A rejected frame is answered
		// here on the read loop, before it consumes an in-flight slot or
		// performs any registry work, and what refusing it allocates does
		// not depend on its size.
		var rf RequestFrame
		body, ops, err := decodeRequestPreamble(payload, &rf)
		if err != nil {
			// Not a request frame: garbage, or a gob envelope of another
			// generation. Nothing is dispatched or charged; the connection is
			// dropped.
			releasePayload(payload)
			s.logger.Printf("rpc: bad frame from %s: %v", conn.RemoteAddr(), err)
			return
		}
		// Cancels release resources; refusing one would only pin them, so
		// they are never charged.
		finish := func(time.Duration) {}
		if rf.Header.Kind != FrameWatchCancel {
			var aerr error
			if finish, aerr = s.limiter.Admit(rf.Header.Tenant, ops, len(payload)); aerr != nil {
				releasePayload(payload)
				s.obs.countErr(ErrOverloaded)
				s.answerAll(conn, &wmu, rf.Header, ops, failure(aerr))
				continue
			}
		}
		err = decodeRequestBody(body, ops, &rf)
		releasePayload(payload)
		if err == errRequestOp {
			// The one undecodable frame that has an answer: there is no body
			// to skip behind an undefined op, but the header said whom to tell.
			finish(0)
			s.obs.countErr(ErrBadOp)
			s.answerAll(conn, &wmu, rf.Header, ops, Response{Err: ErrBadOp, Detail: err.Error()})
			continue
		}
		if err != nil {
			finish(0)
			s.logger.Printf("rpc: bad frame from %s: %v", conn.RemoteAddr(), err)
			return
		}

		switch rf.Header.Kind {
		case FrameWatch:
			// A subscription is long-lived, not an in-flight op: it pays one
			// operation token at admission, releases its slot immediately and
			// gets its own goroutine outside the in-flight slots, so idle
			// subscriptions never starve pipelined request/response traffic.
			finish(0)
			s.startWatch(conn, &wmu, &wg, watches, rf)
			continue
		case FrameWatchCancel:
			watches.cancel(rf.Header.ID)
			continue
		}

		slots <- struct{}{}
		wg.Add(1)
		go func(rf RequestFrame) {
			s.obs.inflight.Add(1)
			defer func() {
				s.obs.inflight.Add(-1)
				<-slots
				wg.Done()
			}()
			// A kind that is neither batch nor watch is served as a single
			// request and answered as one.
			out := ResponseFrame{Header: Header{ID: rf.Header.ID, Kind: FrameSingle}}
			// Run the request under the deadline its client propagated in
			// the header; work whose client has given up is abandoned.
			ctx, cancel := deadlineContext(s.baseCtx, rf.Header.TimeoutNs)
			start := time.Now()
			switch rf.Header.Kind {
			case FrameBatch:
				s.requests.Add(int64(len(rf.Batch.Ops)))
				out.Header.Kind = FrameBatch
				out.Batch.Ops = takeBatchResponses(len(rf.Batch.Ops))
				for i := range rf.Batch.Ops {
					out.Batch.Ops[i] = s.dispatch(ctx, &rf.Batch.Ops[i])
				}
			default:
				s.requests.Add(1)
				out.Resp = s.dispatch(ctx, &rf.Req)
			}
			finish(time.Since(start))
			cancel()
			err := s.writeReply(conn, &wmu, &out)
			releaseBatchResponses(out.Batch.Ops) // only once the frame is encoded
			if err != nil {
				if !s.isClosed() {
					s.logger.Printf("rpc: write to %s: %v", conn.RemoteAddr(), err)
				}
				conn.Close() // unblock the read loop; the connection is gone
			}
		}(rf)
	}
}

// writeReply encodes one reply and writes it under the connection's write
// lock, which pipelined responses and watch streams share. It is done with
// out, pooled batch responses included, when it returns. A reply too large to
// send has been replaced by internal errors for its callers (encodeReply);
// that is counted and logged here, and is not a write error.
func (s *Server) writeReply(conn net.Conn, wmu *sync.Mutex, out *ResponseFrame) error {
	frame, substituted, err := encodeReply(out)
	if err != nil {
		return err
	}
	if substituted {
		for range max(1, len(out.Batch.Ops)) {
			s.obs.countErr(ErrInternal)
		}
		s.logger.Printf("rpc: reply %d to %s exceeds %d bytes; answered with an error instead", out.Header.ID, conn.RemoteAddr(), MaxMessageSize)
	}
	wmu.Lock()
	_, err = conn.Write(frame.b)
	wmu.Unlock()
	releaseFrame(frame)
	return err
}

// answerAll answers a frame that is not going to be executed — refused by
// admission control, or naming an undefined op — with resp for each of its ops
// operations, in the shape the client expects for the frame's kind. It runs on
// the connection's read loop; the write happens under the shared write lock
// like any pipelined response.
func (s *Server) answerAll(conn net.Conn, wmu *sync.Mutex, h Header, ops int, resp Response) {
	out := ResponseFrame{Header: Header{ID: h.ID, Kind: FrameSingle}, Resp: resp}
	switch h.Kind {
	case FrameBatch:
		out.Header.Kind = FrameBatch
		out.Batch.Ops = takeBatchResponses(ops)
		for i := range out.Batch.Ops {
			out.Batch.Ops[i] = resp
		}
	case FrameWatch:
		out.Header.Kind = FrameWatch
	}
	err := s.writeReply(conn, wmu, &out)
	releaseBatchResponses(out.Batch.Ops)
	if err != nil {
		if !s.isClosed() {
			s.logger.Printf("rpc: write to %s: %v", conn.RemoteAddr(), err)
		}
		conn.Close()
	}
}

// dispatch executes one registry operation under the request context. A
// context that is already done — the propagated deadline passed, or the
// server is shutting down — short-circuits into an error frame without
// touching the registry: the client has given up, so the work would be
// wasted.
func (s *Server) dispatch(ctx context.Context, req *Request) Response {
	// An already-done context short-circuits in execute without touching the
	// registry; counting it as dispatched (or recording its near-zero
	// latency) would make an overload look like a throughput spike with
	// collapsing latencies. Abandoned work has its own counter.
	abandoned := ctx.Err() != nil
	start := time.Now()
	resp := s.execute(ctx, req)
	elapsed := time.Since(start)
	if !abandoned {
		s.obs.dispatched.Inc()
		s.obs.latency.ObserveDuration(elapsed)
	}
	if !resp.OK {
		s.obs.countErr(resp.Err)
	}
	if s.obs.trace != nil {
		var err error
		if !resp.OK {
			err = fmt.Errorf("%s: %s", resp.Err, resp.Detail)
		}
		s.obs.trace.Add(traceName(req.Op), req.Name, elapsed, err)
	}
	return resp
}

// execute runs one registry operation; dispatch wraps it with accounting.
// req.Op is defined: the request decoder refuses any other.
func (s *Server) execute(ctx context.Context, req *Request) Response {
	if err := ctx.Err(); err != nil {
		// Only deadline expiries count as abandoned work; a Canceled base
		// context means the server itself is shutting down.
		if errors.Is(err, context.DeadlineExceeded) {
			s.abandoned.Add(1)
			s.obs.abandoned.Inc()
		}
		return failure(fmt.Errorf("abandoned %s: %w", req.Op, err))
	}
	return opTable[req.Op].exec(ctx, s.reg, *req)
}
