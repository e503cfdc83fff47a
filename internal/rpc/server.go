package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
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

// Server exposes one registry instance over TCP, and to clients on its own
// host over a local socket (see Start). One server corresponds to the
// metadata registry deployment of a single datacenter.
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
	listener    net.Listener   // the listener Serve was given; Addr reports it
	locals      []net.Listener // Start's local sockets beside it
	logger      *log.Logger
	maxInflight int
	limiter     *limits.Limiter
	obs         serverObs

	// baseCtx is the root of every request context; cancelled on Close.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu     sync.Mutex
	conns  map[*outbox]struct{}
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

// NewServer wraps the given registry behind a server. Call Serve to start
// accepting connections.
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
		conns:       make(map[*outbox]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve accepts connections from ln until Close. It serves ln alone: only
// Start adds a local socket.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("rpc: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	return s.accept(ln)
}

// accept serves the connections ln accepts until Close.
func (s *Server) accept(ln net.Listener) error {
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
		ob := &outbox{conn: conn}
		s.conns[ob] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(ob)
		}()
	}
}

// Start is a convenience wrapper that listens on addr and serves in a
// background goroutine, returning the bound address (useful with ":0").
//
// On Linux, a server whose listener accepts loopback connections also serves
// each loopback address it accepts on an abstract Unix socket named for that
// address, which a Client of the address dials first (docs/WIRE.md,
// "Transport"). A name another process holds fails Start; a local socket
// that cannot be opened for any other reason leaves the server on TCP alone.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	locals, err := listenLocal(ln.Addr(), s.logger)
	if err != nil {
		ln.Close()
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, l := range append(locals, ln) {
			l.Close()
		}
		return "", errors.New("rpc: server already closed")
	}
	s.locals = append(s.locals, locals...)
	s.mu.Unlock()
	logStop := func(err error) {
		if err != nil {
			s.logger.Printf("rpc server stopped: %v", err)
		}
	}
	for _, l := range locals {
		go func() { logStop(s.accept(l)) }()
	}
	go func() { logStop(s.Serve(ln)) }()
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

// peerName names conn's peer in a log line. A client of an abstract socket
// has no address ("@" or ""), so it is named by the socket it came in on.
func peerName(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil && strings.TrimPrefix(a.String(), "@") != "" {
		return a.String()
	}
	return "local client of " + conn.LocalAddr().String()
}

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
	ln, locals := s.listener, s.locals
	for ob := range s.conns {
		ob.close()
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
	for _, l := range locals {
		l.Close()
	}
	s.wg.Wait()
	return err
}

// dispatchJob is one admitted frame on its way to a dispatch worker, with the
// admission release its execution time is reported to.
type dispatchJob struct {
	rf     RequestFrame
	finish func(time.Duration)
}

// heldFrame is a frame the read callback took but could not finish without
// waiting, with what was decided about it, which the read loop finishes
// outside the callback: nothing is admitted, decoded or answered twice.
type heldFrame struct {
	job    dispatchJob
	ops    int
	refuse Response // set when the frame is answered with this instead
	end    error    // set when the frame ends the connection
}

// handle serves one connection until it drops. Frames are dispatched
// concurrently (bounded by maxInflight) and answered out of order; a message
// that does not decode as a frame ends the connection. Frames run on reused
// workers: at most maxInflight busy ones and one idle one, so a closed-loop
// caller is served by one goroutine whose stack has already grown.
//
// Frames are taken on the connection's read callback (take), which must not
// block, because closing the connection waits for it.
func (s *Server) handle(ob *outbox) {
	var (
		conn  = ob.conn
		wg    sync.WaitGroup
		slots = make(chan struct{}, s.maxInflight)
		// jobs has room for one frame, so the read loop hands the idle worker
		// its frame without waiting for it to reach its receive.
		jobs = make(chan dispatchJob, 1)
		// idle is set by a worker that will receive on jobs next, and cleared
		// by the read loop as it sends that worker a frame.
		idle    atomic.Bool
		watches = newConnWatches()
		held    heldFrame
	)
	work := func(j dispatchJob) {
		defer wg.Done()
		for {
			out := s.serveFrame(&j.rf, j.finish)
			// Go idle before the reply prompts the caller's next request, so
			// the read loop finds this worker even if the write is slow.
			parks := idle.CompareAndSwap(false, true)
			s.reply(ob, &out)
			j, out = dispatchJob{}, ResponseFrame{} // an idle worker pins no decoded entries
			<-slots
			if !parks {
				return // another worker is idle: a burst leaves no pool behind
			}
			var ok bool
			if j, ok = <-jobs; !ok {
				return // the connection ended
			}
		}
	}
	// dispatch hands j, which holds a slot, to the idle worker or to a new
	// one, without waiting.
	dispatch := func(j dispatchJob) {
		if idle.Swap(false) {
			select {
			case jobs <- j:
				return
			default: // the idle worker has yet to take the frame it was sent
				idle.Store(true)
			}
		}
		wg.Add(1)
		go work(j)
	}
	// take handles one frame on the read callback, where nothing may wait.
	// It hands an admitted frame that finds a free slot to a worker; any
	// other frame it holds, and returns false for the read loop to finish it.
	take := func(payload []byte) bool {
		rf := &held.job.rf
		// Admission control sits between the two halves of decoding: the
		// preamble yields the tenant and the operation count, and the body —
		// all 64 requests of a batch, every entry of a PutMany — is decoded
		// only for a frame the limiter admits. A rejected frame is answered
		// before it consumes an in-flight slot or performs any registry work,
		// and what refusing it allocates does not depend on its size.
		body, ops, err := decodeRequestPreamble(payload, rf)
		if err != nil {
			// Not a request frame: garbage, or a gob envelope of another
			// generation. Nothing is dispatched or charged; the connection is
			// dropped.
			held.end = err
			return false
		}
		held.ops = ops
		// Cancels release resources; refusing one would only pin them, so
		// they are never charged.
		held.job.finish = func(time.Duration) {}
		if rf.Header.Kind != FrameWatchCancel {
			var aerr error
			if held.job.finish, aerr = s.limiter.Admit(rf.Header.Tenant, ops, len(payload)); aerr != nil {
				s.obs.countErr(ErrOverloaded)
				held.refuse = failure(aerr)
				return false
			}
		}
		switch err := decodeRequestBody(body, ops, rf); {
		case err == errRequestOp:
			// The one undecodable frame that has an answer: there is no body
			// to skip behind an undefined op, but the header said whom to tell.
			held.job.finish(0)
			s.obs.countErr(ErrBadOp)
			held.refuse = Response{Err: ErrBadOp, Detail: err.Error()}
			return false
		case err != nil:
			held.job.finish(0)
			held.end = err
			return false
		}
		if rf.Header.Kind == FrameWatch || rf.Header.Kind == FrameWatchCancel {
			return false
		}
		select {
		case slots <- struct{}{}:
			dispatch(held.job)
			held = heldFrame{}
			return true
		default:
			return false
		}
	}
	// finishHeld finishes the frame take held, and reports whether the
	// connection goes on.
	finishHeld := func() bool {
		h := held
		held = heldFrame{}
		rf := &h.job.rf
		switch {
		case h.end != nil:
			s.logger.Printf("rpc: bad frame from %s: %v", peerName(conn), h.end)
			return false
		case h.refuse.Err != ErrNone:
			s.answerAll(ob, rf.Header, h.ops, h.refuse)
		case rf.Header.Kind == FrameWatch:
			// A subscription is long-lived, not an in-flight op: it pays one
			// operation token at admission, releases its slot immediately and
			// gets its own goroutine outside the in-flight slots, so idle
			// subscriptions never starve pipelined request/response traffic.
			h.job.finish(0)
			s.startWatch(ob, &wg, watches, *rf)
		case rf.Header.Kind == FrameWatchCancel:
			watches.cancel(rf.Header.ID)
		default:
			slots <- struct{}{}
			dispatch(h.job)
		}
		return true
	}
	s.obs.conns.Add(1)
	defer s.obs.conns.Add(-1)
	defer func() {
		// Close before waiting: a response writer stuck on a stalled client
		// is only unblocked by the close. Watch streams block on their feed
		// rather than the connection, so cancel them explicitly.
		ob.close()
		watches.cancelAll()
		close(jobs)
		wg.Wait()
		s.mu.Lock()
		delete(s.conns, ob)
		s.mu.Unlock()
	}()
	in := newInbox(conn, &ob.closed)
	for {
		if err := in.read(take); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.isClosed() {
				s.logger.Printf("rpc: read from %s: %v", peerName(conn), err)
			}
			return
		}
		if !finishHeld() {
			return
		}
	}
}

// serveFrame executes one admitted single or batch frame on a dispatch worker
// and returns its reply. finish receives the frame's execution time: the sum
// of what dispatch timed for its operations, so the frame reads no clock of
// its own.
func (s *Server) serveFrame(rf *RequestFrame, finish func(time.Duration)) ResponseFrame {
	s.obs.inflight.Add(1)
	defer s.obs.inflight.Add(-1)
	// A kind that is neither batch nor watch is served as a single request
	// and answered as one.
	out := ResponseFrame{Header: Header{ID: rf.Header.ID, Kind: FrameSingle}}
	// Run the request under the deadline its client propagated in the header;
	// work whose client has given up is abandoned.
	ctx, cancel := deadlineContext(s.baseCtx, rf.Header.TimeoutNs)
	var elapsed time.Duration
	switch rf.Header.Kind {
	case FrameBatch:
		s.requests.Add(int64(len(rf.Batch.Ops)))
		out.Header.Kind = FrameBatch
		out.Batch.Ops = make([]Response, len(rf.Batch.Ops))
		for i := range rf.Batch.Ops {
			var d time.Duration
			out.Batch.Ops[i], d = s.dispatch(ctx, &rf.Batch.Ops[i])
			elapsed += d
		}
	default:
		s.requests.Add(1)
		out.Resp, elapsed = s.dispatch(ctx, &rf.Req)
	}
	finish(elapsed)
	cancel()
	return out
}

// reply writes out. A failed write closes the connection, which unblocks its
// read loop.
func (s *Server) reply(ob *outbox, out *ResponseFrame) {
	if err := s.writeReply(ob, out); err != nil {
		if !s.isClosed() {
			s.logger.Printf("rpc: write to %s: %v", peerName(ob.conn), err)
		}
		ob.close()
	}
}

// writeReply encodes one reply and writes it through the connection's
// outbox, after the events its live watches have queued. It is done with out
// when it returns. A reply too large to send has been replaced by internal
// errors for its callers (encodeReply); that is counted and logged here, and
// is not a write error.
func (s *Server) writeReply(ob *outbox, out *ResponseFrame) error {
	frame, substituted, err := encodeReply(out)
	if err != nil {
		return err
	}
	if substituted {
		for range max(1, len(out.Batch.Ops)) {
			s.obs.countErr(ErrInternal)
		}
		s.logger.Printf("rpc: reply %d to %s exceeds %d bytes; answered with an error instead", out.Header.ID, peerName(ob.conn), MaxMessageSize)
	}
	err = ob.write(frame.b, nil)
	releaseFrame(frame)
	return err
}

// outbox is one connection's write side: the lock every frame is written
// under, which pipelined replies and watch streams share, and the
// connection's live watches. Every write first takes what each live watch
// has queued and sends those events ahead of its own frame, in one Write, so
// a write's reply carries the events its own commit queued and the watch's
// goroutine has nothing left to send. A connection without a live watch
// writes its frame alone, as if there were no outbox.
type outbox struct {
	conn net.Conn
	// closed is raised before conn is closed. The connection's reader checks
	// it between reads, without a lock, since Close waits for a read in
	// progress (inbox.readRaw).
	closed atomic.Bool

	mu   sync.Mutex
	live []*serverWatch
	buf  []byte // the events and frame of a write that carries events
}

// write sends frame, a length-prefixed message or nil, after the events the
// live watches have queued. leaving, if not nil, stops being live once its
// queue is taken, so nothing of it follows frame.
func (ob *outbox) write(frame []byte, leaving *serverWatch) error {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if len(ob.live) == 0 {
		if len(frame) == 0 {
			return nil
		}
		_, err := ob.conn.Write(frame)
		return err
	}
	b := ob.buf[:0]
	for _, w := range ob.live {
		var err error
		if b, err = w.appendQueued(b); err != nil {
			return err
		}
	}
	if leaving != nil {
		ob.live = slices.DeleteFunc(ob.live, func(w *serverWatch) bool { return w == leaving })
	}
	b = append(b, frame...)
	var err error
	if len(b) > 0 {
		_, err = ob.conn.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		ob.buf = b[:0]
	} else {
		ob.buf = nil
	}
	return err
}

// close raises closed and closes the connection.
func (ob *outbox) close() {
	ob.closed.Store(true)
	ob.conn.Close()
}

// setLive adds w to the live watches, or removes it.
func (ob *outbox) setLive(w *serverWatch, live bool) {
	ob.mu.Lock()
	ob.live = slices.DeleteFunc(ob.live, func(x *serverWatch) bool { return x == w })
	if live {
		ob.live = append(ob.live, w)
	}
	ob.mu.Unlock()
}

// answerAll answers a frame that is not going to be executed — refused by
// admission control, or naming an undefined op — with resp for each of its ops
// operations, in the shape the client expects for the frame's kind. It runs on
// the connection's read loop; the write goes through the outbox like any
// pipelined response.
func (s *Server) answerAll(ob *outbox, h Header, ops int, resp Response) {
	out := ResponseFrame{Header: Header{ID: h.ID, Kind: FrameSingle}, Resp: resp}
	switch h.Kind {
	case FrameBatch:
		out.Header.Kind = FrameBatch
		out.Batch.Ops = make([]Response, ops)
		for i := range out.Batch.Ops {
			out.Batch.Ops[i] = resp
		}
	case FrameWatch:
		out.Header.Kind = FrameWatch
	}
	s.reply(ob, &out)
}

// dispatch executes one registry operation under the request context and
// returns its response and execution time. A context that is already done —
// the propagated deadline passed, or the server is shutting down —
// short-circuits into an error frame without touching the registry: the
// client has given up, so the work would be wasted.
func (s *Server) dispatch(ctx context.Context, req *Request) (Response, time.Duration) {
	// An already-done context short-circuits in execute without touching the
	// registry; counting it as dispatched (or recording its near-zero
	// latency) would make an overload look like a throughput spike with
	// collapsing latencies. Abandoned work has its own counter.
	abandoned := ctx.Err() != nil
	start := time.Now()
	resp := s.execute(ctx, req)
	end := time.Now()
	elapsed := end.Sub(start)
	if !abandoned {
		s.obs.dispatched.Inc()
		s.obs.latency.ObserveDuration(elapsed)
	}
	if !resp.OK {
		s.obs.countErr(resp.Err)
	}
	if s.obs.trace != nil {
		var errText string
		if !resp.OK {
			errText = string(resp.Err) + ": " + resp.Detail
		}
		s.obs.trace.Add(traceName(req.Op), req.Name, end, elapsed, errText)
	}
	return resp, elapsed
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
