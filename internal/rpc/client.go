package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/limits"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// DefaultPoolSize is the number of TCP connections a Client opens (lazily)
// towards its server unless WithPoolSize says otherwise.
const DefaultPoolSize = 4

// Client is a registry.API proxy for a registry server reached over TCP.
//
// It is safe and efficient under heavy concurrent use: calls are spread
// round-robin over a pool of connections, and on each connection many
// requests can be in flight at once — every request carries a unique ID and
// a per-connection demultiplexer routes responses, which may arrive out of
// order, back to their callers (pipelining). Connections are established
// lazily and re-established transparently after transport errors.
//
// Every operation takes a context. The context's deadline (if any) is
// propagated to the server in the frame header, so the server abandons work
// whose client has given up. Cancelling the context of one in-flight call
// retires just that call: its response channel is deregistered, the late
// response is discarded by the demultiplexer, and the connection keeps
// serving every other pipelined request. The configured transport timeout
// (WithTimeout) remains as a backstop against a hung server: unlike a
// context cancellation it tears the connection down, because an unanswered
// request means the connection state can no longer be trusted.
//
// Transport-level failures (connect refused, broken connection, transport
// timeout, closed client) are reported wrapping registry.ErrUnavailable, so
// callers can distinguish "the site is unreachable" from per-entry errors.
type Client struct {
	addr    string
	site    cloud.SiteID
	timeout time.Duration
	pool    int
	tenant  string
	obs     clientObs

	nextConn atomic.Uint64 // round-robin cursor over the pool
	nextID   atomic.Uint64 // request ID source, unique per client

	mu     sync.Mutex
	conns  []*poolConn
	closed bool
}

// clientObs holds the client's observability instruments, resolved once at
// dial time so the hot path never touches the registry's name map. All
// fields tolerate being nil (instrumentation disabled).
type clientObs struct {
	inflight   *metrics.Gauge     // rpc_client_inflight: calls currently waiting on the wire
	calls      *metrics.Counter   // rpc_client_calls_total: round trips attempted
	errors     *metrics.Counter   // rpc_client_errors_total: round trips that failed
	retired    *metrics.Counter   // rpc_client_retired_total: calls abandoned because their context ended
	dials      *metrics.Counter   // rpc_client_dials_total: TCP connections established
	suppressed *metrics.Counter   // rpc_client_suppressed_errors_total: transport errors swallowed by best-effort ops
	batchOps   *metrics.Histogram // rpc_client_batch_ops: operations carried per batch frame
	latency    *metrics.Histogram // rpc_client_latency_ns: round-trip latency
	trace      *metrics.TraceRing // recent per-call events
}

func newClientObs(reg *metrics.Registry) clientObs {
	return clientObs{
		inflight:   reg.Gauge("rpc_client_inflight"),
		calls:      reg.Counter("rpc_client_calls_total"),
		errors:     reg.Counter("rpc_client_errors_total"),
		retired:    reg.Counter("rpc_client_retired_total"),
		dials:      reg.Counter("rpc_client_dials_total"),
		suppressed: reg.Counter("rpc_client_suppressed_errors_total"),
		batchOps:   reg.Histogram("rpc_client_batch_ops"),
		latency:    reg.Histogram("rpc_client_latency_ns"),
		trace:      reg.Trace(),
	}
}

// Client implements the registry API.
var _ registry.API = (*Client)(nil)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout bounds each remote call at the transport level (connect +
// request + response) when the call's context carries no tighter deadline.
// Unlike a context deadline, a transport timeout tears the connection down.
// The default is 10 seconds.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithPoolSize sets how many connections the client spreads its calls over
// (default DefaultPoolSize). One connection already supports pipelining;
// more connections add parallelism on the server side and amortize
// head-of-line blocking on large frames.
func WithPoolSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.pool = n
		}
	}
}

// WithTenant sets the tenant ID stamped into every outgoing frame header,
// identifying whose admission budget this client's requests consume (see
// WithServerLimits). The default is the empty string — the server's default
// tenant. A tenant attached to an individual call's context via
// limits.WithTenant overrides the client-wide value for that call.
func WithTenant(tenant string) ClientOption {
	return func(c *Client) { c.tenant = tenant }
}

// WithMetrics selects the registry the client's instruments report to:
// in-flight requests, calls/errors/retired-on-cancel counts, dials, batch
// sizes and round-trip latencies, plus one trace event per call. The default
// is metrics.Default; pass nil to disable instrumentation entirely.
func WithMetrics(reg *metrics.Registry) ClientOption {
	return func(c *Client) { c.obs = newClientObs(reg) }
}

// Dial connects to a registry server and verifies it is reachable. The
// context bounds the initial connect-and-handshake exchange; the returned
// client reports the site ID advertised by the server.
func Dial(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{addr: addr, timeout: 10 * time.Second, pool: DefaultPoolSize, obs: newClientObs(metrics.Default)}
	for _, o := range opts {
		o(c)
	}
	c.conns = make([]*poolConn, c.pool)
	resp, err := c.call(ctx, Request{Op: OpSite})
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	if !resp.OK {
		// The server answered but refused the handshake — e.g. admission
		// control rejecting a denied tenant.
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, decodeRespErr(resp))
	}
	c.site = siteFromN(resp.N)
	return c, nil
}

// Addr returns the server address this client talks to.
func (c *Client) Addr() string { return c.addr }

// PoolSize returns the configured connection-pool size.
func (c *Client) PoolSize() int { return c.pool }

// Site implements registry.API with the site ID advertised by the server.
// It is resolved once, at dial time, and therefore takes no context.
func (c *Client) Site() cloud.SiteID { return c.site }

// Ping verifies the server is reachable.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, Request{Op: OpPing})
	return err
}

// Close releases every pooled connection. Subsequent calls fail with an
// error wrapping registry.ErrUnavailable.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, pc := range conns {
		if pc != nil {
			pc.fail(c.errClosed())
		}
	}
	return nil
}

func (c *Client) errClosed() error {
	return fmt.Errorf("rpc: client for %s is closed: %w", c.addr, registry.ErrUnavailable)
}

// Create implements registry.API.
func (c *Client) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	return c.entryCall(ctx, Request{Op: OpCreate, Entry: e})
}

// Put implements registry.API.
func (c *Client) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	return c.entryCall(ctx, Request{Op: OpPut, Entry: e})
}

// Get implements registry.API.
func (c *Client) Get(ctx context.Context, name string) (registry.Entry, error) {
	return c.entryCall(ctx, Request{Op: OpGet, Name: name})
}

// AddLocation implements registry.API.
func (c *Client) AddLocation(ctx context.Context, name string, loc registry.Location) (registry.Entry, error) {
	return c.entryCall(ctx, Request{Op: OpAddLoc, Name: name, Location: loc})
}

// Delete implements registry.API.
func (c *Client) Delete(ctx context.Context, name string) error {
	resp, err := c.call(ctx, Request{Op: OpDelete, Name: name})
	if err != nil {
		return err
	}
	return decodeRespErr(resp)
}

// Names implements registry.API. Transport errors and cancelled contexts
// yield an empty list, matching the best-effort semantics of the in-process
// Names; every swallowed failure feeds rpc_client_suppressed_errors_total so
// the degradation is observable even though the API hides it.
func (c *Client) Names(ctx context.Context) []string {
	resp, err := c.call(ctx, Request{Op: OpNames})
	if err != nil {
		c.obs.suppressed.Inc()
		return nil
	}
	return resp.Names
}

// Entries implements registry.API.
func (c *Client) Entries(ctx context.Context) ([]registry.Entry, error) {
	resp, err := c.call(ctx, Request{Op: OpEntries})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, decodeRespErr(resp)
	}
	return resp.Entries, nil
}

// GetMany implements registry.API. The whole name list travels in one frame.
func (c *Client) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	resp, err := c.call(ctx, Request{Op: OpGetMany, Names: names})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, decodeRespErr(resp)
	}
	return resp.Entries, nil
}

// PutMany implements registry.API. The whole batch travels in one frame.
func (c *Client) PutMany(ctx context.Context, entries []registry.Entry) ([]registry.Entry, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	resp, err := c.call(ctx, Request{Op: OpPutMany, Entries: entries})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, decodeRespErr(resp)
	}
	return resp.Entries, nil
}

// DeleteMany implements registry.API. The whole name list travels in one
// frame; it returns how many of the named entries were present and removed.
func (c *Client) DeleteMany(ctx context.Context, names []string) (int, error) {
	if len(names) == 0 {
		return 0, nil
	}
	resp, err := c.call(ctx, Request{Op: OpDeleteMany, Names: names})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, decodeRespErr(resp)
	}
	return resp.N, nil
}

// Merge implements registry.API.
func (c *Client) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	resp, err := c.call(ctx, Request{Op: OpMerge, Entries: entries})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, decodeRespErr(resp)
	}
	return resp.N, nil
}

// Len implements registry.API. Transport errors yield zero and feed the
// suppressed-error counter (see Names).
func (c *Client) Len(ctx context.Context) int {
	resp, err := c.call(ctx, Request{Op: OpLen})
	if err != nil {
		c.obs.suppressed.Inc()
		return 0
	}
	return resp.N
}

// Batch sends many registry operations to the server in a single frame and
// round trip, returning one Response per operation in order. The server
// executes the operations sequentially, so a batch is equivalent to issuing
// them back-to-back on a dedicated connection — at a fraction of the framing
// and round-trip cost. The context's deadline bounds the whole batch; the
// server stops executing between operations once it passes. Per-operation
// failures are reported in the individual Responses; the returned error
// covers transport problems and cancellation only.
func (c *Client) Batch(ctx context.Context, ops []Request) ([]Response, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	c.obs.batchOps.Observe(int64(len(ops)))
	rf, err := c.roundTrip(ctx, RequestFrame{
		Header: Header{Kind: FrameBatch},
		Batch:  BatchRequest{Ops: ops},
	})
	if err != nil {
		return nil, err
	}
	if len(rf.Batch.Ops) != len(ops) {
		return nil, fmt.Errorf("rpc: batch answered %d of %d ops", len(rf.Batch.Ops), len(ops))
	}
	return rf.Batch.Ops, nil
}

func (c *Client) entryCall(ctx context.Context, req Request) (registry.Entry, error) {
	resp, err := c.call(ctx, req)
	if err != nil {
		return registry.Entry{}, err
	}
	if !resp.OK {
		return registry.Entry{}, decodeRespErr(resp)
	}
	return resp.Entry, nil
}

// call performs one request/response exchange.
func (c *Client) call(ctx context.Context, req Request) (Response, error) {
	rf, err := c.roundTrip(ctx, RequestFrame{
		Header: Header{Kind: FrameSingle},
		Req:    req,
	})
	if err != nil {
		return Response{}, err
	}
	return rf.Resp, nil
}

// roundTrip instruments one exchange: it tracks the in-flight gauge, counts
// the call and its outcome (an error with a done context counts as retired
// on cancel), observes the latency and records one trace event, delegating
// the wire work to transact.
func (c *Client) roundTrip(ctx context.Context, f RequestFrame) (ResponseFrame, error) {
	start := time.Now()
	c.obs.inflight.Add(1)
	rf, err := c.transact(ctx, f)
	c.obs.inflight.Add(-1)
	elapsed := time.Since(start)
	c.obs.calls.Inc()
	c.obs.latency.ObserveDuration(elapsed)
	if err != nil {
		c.obs.errors.Inc()
		if ctx.Err() != nil {
			c.obs.retired.Inc()
		}
	}
	if c.obs.trace != nil {
		op := traceName(f.Req.Op)
		detail := f.Req.Name
		if f.Header.Kind == FrameBatch {
			op = "rpc.batch"
			detail = fmt.Sprintf("%d ops", len(f.Batch.Ops))
		}
		c.obs.trace.Add(op, detail, elapsed, err)
	}
	return rf, err
}

// transact tags the frame with a fresh ID and the context's deadline, sends
// it over a pooled connection and waits for the matching response. A
// transport error is retried once on a fresh connection (the server may have
// dropped an idle connection between calls); a context error is never
// retried — the caller has given up.
func (c *Client) transact(ctx context.Context, f RequestFrame) (ResponseFrame, error) {
	if err := ctx.Err(); err != nil {
		return ResponseFrame{}, fmt.Errorf("rpc: %s: %w", c.addr, err)
	}
	f.Header.ID = c.nextID.Add(1)
	f.Header.TimeoutNs = headerTimeout(ctx)
	f.Header.Tenant = c.tenantFor(ctx)
	pc, err := c.grabConn(ctx)
	if err != nil {
		return ResponseFrame{}, err
	}
	resp, err := pc.do(ctx, f, c.timeout)
	if err == nil {
		return resp, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ResponseFrame{}, err // the caller has given up: never retried
	}
	if cerr := expired(ctx); cerr != nil {
		// The caller's context is done. If the transport timer happened to
		// fire first (a context deadline close to the transport timeout),
		// report the context error anyway: "the deadline passed" is the
		// truth the caller can act on, not the connection teardown it
		// triggered.
		return ResponseFrame{}, fmt.Errorf("rpc: %s: %v: %w", c.addr, err, cerr)
	}
	pc, err2 := c.grabConn(ctx)
	if err2 != nil {
		return ResponseFrame{}, err2
	}
	// Re-measure the remaining budget: the first attempt consumed part of it
	// (possibly the whole transport timeout), and re-sending the stale value
	// would let the server's re-anchored deadline extend past the client's.
	f.Header.TimeoutNs = headerTimeout(ctx)
	return pc.do(ctx, f, c.timeout)
}

// tenantFor resolves the tenant stamped into a frame header: a per-call
// override carried by the context wins over the client-wide WithTenant
// value.
func (c *Client) tenantFor(ctx context.Context) string {
	if t := limits.TenantFromContext(ctx); t != "" {
		return t
	}
	return c.tenant
}

// grabConn returns the next pooled connection in round-robin order, dialing
// a replacement if that slot is empty or its connection has died. The dial
// happens outside the client lock so a slow or failing connect never stalls
// calls headed for the other, healthy pool slots.
func (c *Client) grabConn(ctx context.Context) (*poolConn, error) {
	idx := int(c.nextConn.Add(1)-1) % c.pool
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.errClosed()
	}
	if pc := c.conns[idx]; pc != nil && !pc.dead() {
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()

	c.obs.dials.Inc()
	dialer := net.Dialer{Timeout: c.timeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if cerr := expired(ctx); cerr != nil {
			return nil, fmt.Errorf("rpc: connect %s: %w", c.addr, cerr)
		}
		return nil, fmt.Errorf("rpc: connect %s: %v: %w", c.addr, err, registry.ErrUnavailable)
	}
	pc := newPoolConn(conn)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		pc.fail(c.errClosed())
		return nil, c.errClosed()
	}
	if cur := c.conns[idx]; cur != nil && !cur.dead() {
		// A concurrent caller repaired the slot first; use theirs.
		c.mu.Unlock()
		pc.fail(fmt.Errorf("rpc: superseded connection: %w", registry.ErrUnavailable))
		return cur, nil
	}
	c.conns[idx] = pc
	c.mu.Unlock()
	return pc, nil
}

// poolConn is one pooled connection: a frame writer serialized by wmu and a
// background demultiplexer that routes response frames to the in-flight
// calls registered in pending.
type poolConn struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan ResponseFrame
	err     error // sticky; set once the connection is unusable
}

func newPoolConn(conn net.Conn) *poolConn {
	pc := &poolConn{conn: conn, pending: make(map[uint64]chan ResponseFrame)}
	go pc.readLoop()
	return pc
}

func (pc *poolConn) dead() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err != nil
}

// do registers the frame's ID, writes the frame, and waits for the demuxed
// response, the context, or the transport timeout. The three exits differ:
//
//   - response: delivered, the call succeeded at the transport level — unless
//     the caller's context is done, or past its deadline, by the time the
//     response is picked up, in which case the call returns the context's
//     error like the next exit (a reply racing the deadline must not decide
//     what the caller sees);
//   - context done: only this call is retired — its pending ID is
//     deregistered so the demultiplexer discards the late response, and the
//     connection keeps serving other in-flight calls;
//   - transport timeout: the connection is torn down — an unanswered request
//     means its state can no longer be trusted, and its demultiplexer could
//     otherwise deliver a response for a retired ID.
func (pc *poolConn) do(ctx context.Context, f RequestFrame, timeout time.Duration) (ResponseFrame, error) {
	ch := make(chan ResponseFrame, 1)
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return ResponseFrame{}, err
	}
	pc.pending[f.Header.ID] = ch
	pc.mu.Unlock()

	frame, err := encodeRequest(&f)
	if err != nil {
		pc.forget(f.Header.ID)
		return ResponseFrame{}, err
	}
	pc.wmu.Lock()
	pc.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err = pc.conn.Write(frame.b)
	pc.wmu.Unlock()
	releaseFrame(frame)
	if err != nil {
		err = fmt.Errorf("rpc: write frame: %v: %w", err, registry.ErrUnavailable)
		pc.fail(err)
		return ResponseFrame{}, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			pc.mu.Lock()
			err := pc.err
			pc.mu.Unlock()
			return ResponseFrame{}, fmt.Errorf("rpc: read response: %w", err)
		}
		if err := expired(ctx); err != nil {
			// The reply and the caller's own deadline became ready together
			// and select picked the reply. The caller had already given up:
			// one rule for single calls and batches, whichever case wins.
			return ResponseFrame{}, fmt.Errorf("rpc: call abandoned: %w", err)
		}
		return resp, nil
	case <-ctx.Done():
		pc.forget(f.Header.ID)
		return ResponseFrame{}, fmt.Errorf("rpc: call abandoned: %w", ctx.Err())
	case <-timer.C:
		err := fmt.Errorf("rpc: no response within %v: %w", timeout, registry.ErrUnavailable)
		pc.fail(err)
		return ResponseFrame{}, err
	}
}

// expired returns the context's error if it is done, counting a deadline that
// has passed on the clock as exceeded even when the context's timer has not
// run yet: the server's own deadline-exceeded reply is sent after the client's
// deadline (its budget is re-anchored on receipt), but on a busy machine it
// can be picked up before the runtime has closed ctx.Done().
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// forget retires one in-flight request ID; a response that later arrives for
// it is discarded by the demultiplexer.
func (pc *poolConn) forget(id uint64) {
	pc.mu.Lock()
	delete(pc.pending, id)
	pc.mu.Unlock()
}

// readLoop demultiplexes response frames by header ID until the connection
// dies. Frames for retired IDs (abandoned calls) are discarded.
func (pc *poolConn) readLoop() {
	for {
		var rf ResponseFrame
		if err := readReply(pc.conn, &rf); err != nil {
			pc.fail(fmt.Errorf("%v: %w", err, registry.ErrUnavailable))
			return
		}
		pc.mu.Lock()
		ch := pc.pending[rf.Header.ID]
		delete(pc.pending, rf.Header.ID)
		pc.mu.Unlock()
		if ch != nil {
			ch <- rf
		}
	}
}

// fail marks the connection dead, closes it, and wakes every in-flight call
// with the failure.
func (pc *poolConn) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	pending := pc.pending
	pc.pending = make(map[uint64]chan ResponseFrame)
	pc.mu.Unlock()
	pc.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}
