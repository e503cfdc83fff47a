// Package rpc lets a metadata registry instance run as a stand-alone server
// process and be driven remotely over TCP — or, between two processes of one
// user on one Linux host, over an abstract Unix socket that the server of a
// loopback address serves beside it (docs/WIRE.md, "Transport"). The frames
// are the same on both.
//
// The normative wire-protocol specification — framing, header fields,
// deadline propagation, batch semantics and error codes — lives in
// docs/WIRE.md at the repository root; the
// sections below summarize it next to the code.
//
// The paper's prototype deploys one managed-cache-backed registry instance
// per datacenter; the strategy logic lives in a client-side middleware that
// knows every instance's endpoint and decides, per operation, which instance
// to contact. This package reproduces that split: cmd/metaserver wraps a
// registry.Instance behind a TCP endpoint, and Client is a registry.API proxy
// that the core strategies can use, via core.WithInstances, exactly as if the
// instance were in-process.
//
// # Wire format
//
// Every message is a 4-byte big-endian length followed by a frame. A frame is
// an envelope — RequestFrame on the client-to-server direction, ResponseFrame
// on the way back — carrying a Header plus either one Request/Response
// (FrameSingle) or a BatchRequest/BatchResponse holding many registry
// operations (FrameBatch). Both directions are the hand-rolled binary layout
// of frame.go: a format byte (one per direction, so a request is never taken
// for a reply), one 19-byte header, then a body by frame kind. There is one
// encoder and one decoder per direction (appendRequestFrame and
// decodeRequestPreamble with decodeRequestBody, appendResponseFrame and
// decodeResponseFrame) and nothing is negotiated: a peer of another generation has its first frame refused on
// the format byte and its connection closed, and nothing it sent is executed.
//
// The Header tags each request with a client-assigned ID that the server
// echoes in the matching response. Because responses are correlated by ID
// rather than by arrival order, a client may keep many requests in flight on
// one connection (pipelining) and the server may answer them out of order;
// Client additionally spreads calls over a configurable connection pool.
// A batch frame carries many independent registry operations in a single
// round trip; the server executes them in order and returns one Response per
// operation, so a batch is semantically equivalent to issuing the operations
// back-to-back on a dedicated connection.
//
// # Deadline propagation
//
// The Header optionally carries the client's remaining time budget
// (Header.TimeoutNs, nanoseconds until the context deadline, measured when
// the frame is built; 0 means no deadline). The budget is relative rather
// than an absolute timestamp on purpose: the server re-anchors it on its own
// clock, so client/server clock skew cannot shift — or instantly expire —
// every propagated deadline (the price is that network transit time extends
// the effective deadline by a round-trip's worth, which is the standard
// trade-off). The server derives the context it runs the dispatched handler
// under from this budget, so work whose client has given up is abandoned
// rather than executed: a request arriving with a non-positive budget is
// answered with ErrDeadline without touching the registry, and a batch stops
// between operations once the budget runs out. Cancellation is client-side
// only — an abandoned request's ID is simply retired, and the late response
// (if the server still sends one) is discarded by the demultiplexer while
// the connection keeps serving the other in-flight requests.
//
// # Error codes
//
// A failed operation travels as a structured error frame: Response.Err is a
// machine-readable classification (one byte on the wire, see errCodes) and
// Response.Detail the human-readable message. Client maps codes back to the
// sentinel errors, so errors.Is works across the wire:
//
//	code                sentinel the client surfaces
//	----                ---------------------------------
//	not-found           registry.ErrNotFound
//	exists              registry.ErrExists
//	conflict            registry.ErrConflict
//	invalid             registry.ErrInvalidEntry
//	unavailable         registry.ErrUnavailable
//	deadline-exceeded   context.DeadlineExceeded
//	canceled            context.Canceled
//	overloaded          limits.ErrOverloaded (carries Response.RetryAfterNs)
//	bad-op, internal    (no sentinel; opaque remote error)
//
// # Tenancy and admission control
//
// Header.Tenant names the tenant a request is accounted against; an empty
// field maps to limits.DefaultTenant. A server configured with a limits.Limiter (see
// WithServerLimits) admits or rejects each frame before dispatching any
// registry work; rejections travel as code "overloaded" with a retry-after
// backoff hint in Response.RetryAfterNs, which the client surfaces as a
// *limits.Overload matching limits.ErrOverloaded. Overloaded is deliberately
// distinct from deadline-exceeded: the request was never started, so
// retrying after the hint cannot duplicate work.
//
// # One wire version
//
// A server reads the request layout and writes the reply layout, and speaks
// nothing else. Anything that does not start with the request format byte — a
// gob envelope of an earlier release, a bare gob Request of the first one,
// garbage — is handled alike: the server logs the frame and closes the
// connection without dispatching or charging anything. A client does the same
// with a reply that does not start with the reply format byte.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/registry"
)

// FrameKind discriminates what a frame's payload carries.
type FrameKind uint8

// Frame kinds.
const (
	// FrameSingle carries one Request (or Response).
	FrameSingle FrameKind = 1
	// FrameBatch carries a BatchRequest (or BatchResponse).
	FrameBatch FrameKind = 2
)

// Header is the frame header of every protocol message. A request carries all
// of it; a reply carries ID and Kind (and the tracing fields).
type Header struct {
	// ID tags the request; the server echoes it in the matching response so
	// the client can demultiplex pipelined responses arriving out of order.
	ID uint64
	// Kind selects between a single operation and a batch.
	Kind FrameKind
	// TimeoutNs is the client's remaining time budget in nanoseconds —
	// time.Until the call context's deadline, measured when the frame is
	// built; 0 means no deadline, a negative value an already-expired one.
	// It is deliberately relative, not an absolute timestamp, so the server
	// can anchor it on its own clock and client/server clock skew cannot
	// distort the propagated deadline (see the package documentation).
	TimeoutNs int64
	// Tenant names the tenant this request is accounted against for
	// admission control; empty means limits.DefaultTenant.
	Tenant string

	// sampled and trace are the header's sampled bit and trace ID, reserved
	// for request tracing: carried both ways, set and read by nothing yet.
	sampled bool
	trace   uint64
}

// headerTimeout converts a context's deadline into the wire representation:
// the remaining budget relative to now. An already-expired deadline yields a
// negative budget (never 0, which would read as "no deadline").
func headerTimeout(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ns := int64(time.Until(dl))
	if ns == 0 {
		ns = -1
	}
	return ns
}

// deadlineContext derives the server-side context for a request from the
// propagated time budget, re-anchored on the server's clock: base itself
// when the header carries none, a deadline-bounded child otherwise. The
// returned cancel func must be called once the request is answered.
func deadlineContext(base context.Context, timeoutNs int64) (context.Context, context.CancelFunc) {
	if timeoutNs == 0 {
		// No deadline: run directly under base (cancelled on server close).
		// Skipping the child context keeps the deadline-free hot path free
		// of per-request allocations and parent-lock contention.
		return base, func() {}
	}
	return context.WithDeadline(base, time.Now().Add(time.Duration(timeoutNs)))
}

// BatchRequest carries many registry operations in one round trip.
type BatchRequest struct {
	// Ops are executed by the server in order.
	Ops []Request
}

// BatchResponse answers a BatchRequest with one Response per operation, in
// the same order.
type BatchResponse struct {
	Ops []Response
}

// RequestFrame is the client-to-server envelope.
type RequestFrame struct {
	Header Header
	// Req is the payload of a FrameSingle frame.
	Req Request
	// Batch is the payload of a FrameBatch frame.
	Batch BatchRequest
	// Watch is the payload of a FrameWatch frame (see watch.go).
	Watch WatchRequest
}

// ResponseFrame is the server-to-client envelope. Of its Header a reply
// carries Kind and ID (and the tracing fields): deadline and tenant belong to
// requests.
type ResponseFrame struct {
	Header Header
	// Resp is the payload of a FrameSingle frame. Watch frames reuse it
	// for their success/error status.
	Resp Response
	// Batch is the payload of a FrameBatch frame.
	Batch BatchResponse
	// Watch is the payload of the FrameWatch acknowledgement (see
	// watch.go).
	Watch WatchAck
	// Events is the payload of a FrameWatchEvent frame.
	Events []feed.Event
}

// Op identifies the requested registry operation. On the wire it is this
// byte; String gives the name logs, trace events and error details use.
type Op uint8

// Supported operations. They mirror registry.API one-to-one, and each has a
// row in opTable. 0 is not an operation, so the zero Request names none; 8
// was the retired names listing and is refused like any undefined byte.
const (
	OpPing       Op = 1
	OpSite       Op = 2
	OpCreate     Op = 3
	OpPut        Op = 4
	OpGet        Op = 5
	OpAddLoc     Op = 6
	OpDelete     Op = 7
	OpEntries    Op = 9
	OpGetMany    Op = 10
	OpPutMany    Op = 11
	OpDeleteMany Op = 12
	OpMerge      Op = 13
	OpLen        Op = 14
	// OpWatch is the watch operation. It exists so single and batch frames
	// naming it are refused deterministically with bad-op rather than as an
	// undefined op: watching requires the streaming frames (see watch.go).
	OpWatch Op = 15
)

// opBody says which of a Request's fields an operation has, which are the
// ones its request carries on the wire.
type opBody uint8

const (
	bodyNone         opBody = iota
	bodyName                // Name
	bodyEntry               // Entry
	bodyNameLocation        // Name, Location
	bodyNames               // Names
	bodyEntries             // Entries
)

// opTable is the one list of operations: an operation is its constant above and
// its row here, from which the request codec takes the body, both ends' logs
// and trace rings the name, and the server what to execute.
var opTable = [...]struct {
	name string
	body opBody
	// exec takes the request by value: through a pointer every request a
	// server decodes would escape to the heap.
	exec func(ctx context.Context, reg registry.API, req Request) Response
}{
	OpPing: {"ping", bodyNone, func(context.Context, registry.API, Request) Response {
		return Response{OK: true}
	}},
	OpSite: {"site", bodyNone, func(_ context.Context, reg registry.API, _ Request) Response {
		return Response{OK: true, N: int(reg.Site())}
	}},
	OpCreate: {"create", bodyEntry, func(ctx context.Context, reg registry.API, req Request) Response {
		return entryResult(reg.Create(ctx, req.Entry))
	}},
	OpPut: {"put", bodyEntry, func(ctx context.Context, reg registry.API, req Request) Response {
		return entryResult(reg.Put(ctx, req.Entry))
	}},
	OpGet: {"get", bodyName, func(ctx context.Context, reg registry.API, req Request) Response {
		return entryResult(reg.Get(ctx, req.Name))
	}},
	OpAddLoc: {"addloc", bodyNameLocation, func(ctx context.Context, reg registry.API, req Request) Response {
		return entryResult(reg.AddLocation(ctx, req.Name, req.Location))
	}},
	OpDelete: {"delete", bodyName, func(ctx context.Context, reg registry.API, req Request) Response {
		return countResult(0, reg.Delete(ctx, req.Name))
	}},
	OpEntries: {"entries", bodyNone, func(ctx context.Context, reg registry.API, _ Request) Response {
		return entriesResult(reg.Entries(ctx))
	}},
	OpGetMany: {"getmany", bodyNames, func(ctx context.Context, reg registry.API, req Request) Response {
		return entriesResult(reg.GetMany(ctx, req.Names))
	}},
	OpPutMany: {"putmany", bodyEntries, func(ctx context.Context, reg registry.API, req Request) Response {
		return versionsResult(reg.PutMany(ctx, req.Entries))
	}},
	OpDeleteMany: {"deletemany", bodyNames, func(ctx context.Context, reg registry.API, req Request) Response {
		return countResult(reg.DeleteMany(ctx, req.Names))
	}},
	OpMerge: {"merge", bodyEntries, func(ctx context.Context, reg registry.API, req Request) Response {
		return countResult(reg.Merge(ctx, req.Entries))
	}},
	OpLen: {"len", bodyNone, func(ctx context.Context, reg registry.API, _ Request) Response {
		return Response{OK: true, N: reg.Len(ctx)}
	}},
	// Watching is a streaming exchange: it cannot be expressed in the
	// one-response-per-request shape.
	OpWatch: {"watch", bodyNone, func(context.Context, registry.API, Request) Response {
		return Response{Err: ErrBadOp, Detail: "watch requires a watch frame"}
	}},
}

// defined reports whether op is an operation of the protocol.
func (op Op) defined() bool { return int(op) < len(opTable) && opTable[op].exec != nil }

// String returns the operation's name; a byte that names none still gets a
// string of its own.
func (op Op) String() string {
	if op.defined() {
		return opTable[op].name
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// traceNames holds each operation's name in the trace rings of both ends,
// resolved once: building it per call cost an allocation per round trip and
// end.
var traceNames = func() (names [len(opTable)]string) {
	for op := range names {
		names[op] = "rpc." + Op(op).String()
	}
	return names
}()

// traceName returns "rpc." + the op's name; a byte outside the table still
// gets its own name.
func traceName(op Op) string {
	if int(op) < len(traceNames) {
		return traceNames[op]
	}
	return "rpc." + op.String()
}

func entryResult(e registry.Entry, err error) Response {
	if err != nil {
		return failure(err)
	}
	return Response{OK: true, Entry: e}
}

func entriesResult(entries []registry.Entry, err error) Response {
	if err != nil {
		return failure(err)
	}
	return Response{OK: true, Entries: entries}
}

// versionsResult answers a PutMany with the version of each stored entry, in
// request order: the rest of each entry is what the client sent.
func versionsResult(stored []registry.Entry, err error) Response {
	if err != nil {
		return failure(err)
	}
	versions := make([]uint64, len(stored))
	for i := range stored {
		versions[i] = stored[i].Version
	}
	return Response{OK: true, Versions: versions}
}

func countResult(n int, err error) Response {
	if err != nil {
		return failure(err)
	}
	return Response{OK: true, N: n}
}

func failure(err error) Response {
	code, detail := encodeErr(err)
	return Response{OK: false, Err: code, Detail: detail, RetryAfterNs: retryAfterNs(err)}
}

// Request is one client-to-server operation.
type Request struct {
	// Op selects the operation.
	Op Op
	// Name is the entry name for Get/AddLoc/Delete.
	Name string
	// Names carries the name list for GetMany/DeleteMany.
	Names []string
	// Entry carries the payload for Create/Put.
	Entry registry.Entry
	// Entries carries the payload for Merge/PutMany.
	Entries []registry.Entry
	// Location carries the payload for AddLoc.
	Location registry.Location
}

// Response is one server-to-client result.
type Response struct {
	// OK reports whether the operation succeeded.
	OK bool
	// Err is the error classification when OK is false.
	Err ErrCode
	// Detail is the error message when OK is false.
	Detail string
	// Entry is the result of Create/Put/Get/AddLoc.
	Entry registry.Entry
	// Entries is the result of Entries/GetMany.
	Entries []registry.Entry
	// N is the result of Len/Merge/DeleteMany, and carries the SiteID for
	// OpSite.
	N int
	// Versions is the result of PutMany: the version each request entry was
	// stored under, in request order.
	Versions []uint64
	// RetryAfterNs is the backoff hint in nanoseconds accompanying an
	// ErrOverloaded rejection (0 otherwise): how long the client should
	// wait before retrying. It travels with a failed response only.
	RetryAfterNs int64
}

// ErrCode classifies errors across the wire so clients can map them back to
// the registry sentinel errors. On the wire a code is its byte in errCodes.
type ErrCode string

// Error classifications. See the package documentation for the full
// code-to-sentinel table.
const (
	ErrNone     ErrCode = ""
	ErrNotFound ErrCode = "not-found"
	ErrExists   ErrCode = "exists"
	ErrConflict ErrCode = "conflict"
	ErrInvalid  ErrCode = "invalid"
	ErrInternal ErrCode = "internal"
	ErrBadOp    ErrCode = "bad-op"
	// ErrUnavailable reports that the registry behind the server could not
	// be reached (relevant when the server proxies a further hop).
	ErrUnavailable ErrCode = "unavailable"
	// ErrDeadline reports that the operation's propagated deadline passed
	// before (or while) the server executed it.
	ErrDeadline ErrCode = "deadline-exceeded"
	// ErrCanceled reports that the operation's server-side context was
	// cancelled (e.g. the server is shutting down).
	ErrCanceled ErrCode = "canceled"
	// ErrOverloaded reports that admission control rejected the request
	// before any registry work was performed (rate limit, byte quota, or
	// load shed). The response's RetryAfterNs carries the backoff hint.
	ErrOverloaded ErrCode = "overloaded"
)

// MaxMessageSize bounds a single framed message (16 MiB), protecting both
// ends from corrupt length prefixes.
const MaxMessageSize = 16 << 20

// encodeErr converts a server-side error into a wire classification. Context
// errors are checked first: a deadline-exceeded create must round-trip as
// deadline-exceeded, not as whatever registry error it got wrapped into.
func encodeErr(err error) (ErrCode, string) {
	switch {
	case err == nil:
		return ErrNone, ""
	case errors.Is(err, limits.ErrOverloaded):
		return ErrOverloaded, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline, err.Error()
	case errors.Is(err, context.Canceled):
		return ErrCanceled, err.Error()
	case errors.Is(err, registry.ErrNotFound):
		return ErrNotFound, err.Error()
	case errors.Is(err, registry.ErrExists):
		return ErrExists, err.Error()
	case errors.Is(err, registry.ErrConflict):
		return ErrConflict, err.Error()
	case errors.Is(err, registry.ErrInvalidEntry):
		return ErrInvalid, err.Error()
	case errors.Is(err, registry.ErrUnavailable):
		return ErrUnavailable, err.Error()
	default:
		return ErrInternal, err.Error()
	}
}

// wireError is a decoded remote failure: its message is the server's detail
// string verbatim (which already names the sentinel once) and it unwraps to
// the matching sentinel, so errors.Is works on the client exactly as it does
// in-process without duplicating the cause in the text.
type wireError struct {
	detail string
	cause  error
}

func (e *wireError) Error() string { return e.detail }
func (e *wireError) Unwrap() error { return e.cause }

// decodeErr converts a wire classification back into an error matching the
// corresponding sentinel under errors.Is.
func decodeErr(code ErrCode, detail string) error {
	switch code {
	case ErrNone:
		return nil
	case ErrNotFound:
		return &wireError{detail: detail, cause: registry.ErrNotFound}
	case ErrExists:
		return &wireError{detail: detail, cause: registry.ErrExists}
	case ErrConflict:
		return &wireError{detail: detail, cause: registry.ErrConflict}
	case ErrInvalid:
		return &wireError{detail: detail, cause: registry.ErrInvalidEntry}
	case ErrUnavailable:
		return &wireError{detail: detail, cause: registry.ErrUnavailable}
	case ErrDeadline:
		return &wireError{detail: "rpc: remote: " + detail, cause: context.DeadlineExceeded}
	case ErrCanceled:
		return &wireError{detail: "rpc: remote: " + detail, cause: context.Canceled}
	case ErrOverloaded:
		return &wireError{detail: detail, cause: &limits.Overload{}}
	default:
		return fmt.Errorf("rpc: remote error: %s", detail)
	}
}

// decodeRespErr converts a Response's error fields back into an error. It
// extends decodeErr with the overload retry-after hint, which travels in its
// own Response field rather than inside the code.
func decodeRespErr(resp Response) error {
	if resp.Err == ErrOverloaded {
		return &wireError{
			detail: resp.Detail,
			cause:  &limits.Overload{RetryAfter: time.Duration(resp.RetryAfterNs)},
		}
	}
	return decodeErr(resp.Err, resp.Detail)
}

// retryAfterNs extracts the wire representation of an error's backoff hint
// (0 when it carries none).
func retryAfterNs(err error) int64 {
	if d, ok := limits.RetryAfter(err); ok {
		return int64(d)
	}
	return 0
}

// maxPooledFrame caps what the frame pool and a connection's buffers retain:
// a buffer grown past it (one oversized bulk frame) is dropped instead of
// pinning megabytes for the connection's lifetime.
const maxPooledFrame = 1 << 20

// frameBuf is a pooled encode buffer holding one length-prefixed message,
// ready to be written with a single Write call.
type frameBuf struct{ b []byte }

// framePool recycles encode buffers across frames. Every message on the wire
// — request, response, batch, watch event — renders into a pooled buffer,
// which goes back via releaseFrame once its bytes are written, so steady-state
// traffic stops allocating a fresh buffer (and its growth) per frame.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// takeFrame returns a pooled buffer holding only the four bytes of a length
// prefix, which sealFrame fills in once the message is behind them.
func takeFrame() *frameBuf {
	frame := framePool.Get().(*frameBuf)
	frame.b = append(frame.b[:0], 0, 0, 0, 0)
	return frame
}

// sealFrame writes the length prefix of the message frame holds. A message
// larger than MaxMessageSize is not to be sent: sealFrame releases the frame
// and reports the size.
func sealFrame(frame *frameBuf) (size int, ok bool) {
	size = len(frame.b) - 4
	if size > MaxMessageSize {
		releaseFrame(frame)
		return size, false
	}
	binary.BigEndian.PutUint32(frame.b, uint32(size))
	return size, true
}

// releaseFrame returns an encode buffer to the pool. The frame's bytes must
// not be referenced afterwards.
func releaseFrame(frame *frameBuf) {
	if cap(frame.b) > maxPooledFrame {
		return
	}
	framePool.Put(frame)
}

// encodeRequest renders one length-prefixed request into a pooled buffer, so
// callers keep the encoding outside their connection write locks. The caller
// must hand the buffer to releaseFrame after writing it (encodeRequest
// releases it itself on error).
func encodeRequest(f *RequestFrame) (*frameBuf, error) {
	frame := takeFrame()
	frame.b = appendRequestFrame(frame.b, f)
	if n, ok := sealFrame(frame); !ok {
		return nil, fmt.Errorf("rpc: message of %d bytes exceeds limit", n)
	}
	return frame, nil
}

// encodeReply renders one length-prefixed reply into a pooled buffer, to be
// written and released like encodeRequest's. A reply that outgrows
// MaxMessageSize is not sent, and its connection is not given up either: the
// caller of every operation it answers gets an internal error naming the
// size instead, and substituted reports that. (Event frames are encoded by
// appendEventFrame.)
func encodeReply(f *ResponseFrame) (frame *frameBuf, substituted bool, err error) {
	frame = takeFrame()
	frame.b = appendResponseFrame(frame.b, f)
	n, ok := sealFrame(frame)
	if ok {
		return frame, false, nil
	}
	refusal := Response{Err: ErrInternal, Detail: fmt.Sprintf("rpc: reply of %d bytes exceeds the message limit of %d", n, MaxMessageSize)}
	small := ResponseFrame{Header: f.Header, Resp: refusal}
	if f.Header.Kind == FrameBatch {
		small.Batch.Ops = make([]Response, len(f.Batch.Ops))
		for i := range small.Batch.Ops {
			small.Batch.Ops[i] = refusal
		}
	}
	frame = takeFrame()
	frame.b = appendResponseFrame(frame.b, &small)
	if _, ok := sealFrame(frame); !ok {
		return nil, false, errors.New(refusal.Detail)
	}
	return frame, true, nil
}

// siteFromN converts the N field of an OpSite response into a SiteID.
func siteFromN(n int) cloud.SiteID { return cloud.SiteID(n) }
