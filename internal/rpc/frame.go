package rpc

import (
	"encoding/binary"
	"errors"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/registry"
)

// The frame encoding (docs/WIRE.md, "Request frames" and "Reply frames"): what
// either end writes after the 4-byte length. Both directions open with one
// header,
//
//	format byte (requestFormat or replyFormat)
//	frame kind
//	flags; bit 0 is the sampled bit, the others are zero
//	request ID, 8 bytes big-endian
//	trace ID, 8 bytes big-endian
//
// after which a request carries
//
//	varint TimeoutNs
//	uvarint len(Tenant), Tenant
//	FrameBatch:       uvarint count, that many requests
//	FrameWatch:       uvarint FromSeq, uvarint len(Prefix), Prefix,
//	                  NoFallback (0 or 1)
//	FrameWatchCancel: nothing
//	any other kind:   one request
//
// where a request is its op byte and the body that op has (opTable):
//
//	bodyNone          nothing
//	bodyName          uvarint len(Name), Name
//	bodyEntry         uvarint length, the entry's encoding
//	bodyNameLocation  uvarint len(Name), uvarint len(Path), varint Site,
//	                  varint Node, Name, Path
//	bodyNames         uvarint count, that many uvarint lengths, the names
//	bodyEntries       uvarint count, that many (uvarint length, encoding)
//
// and a reply carries
//
//	FrameSingle:     response
//	FrameBatch:      uvarint count, that many responses
//	FrameWatch:      response, uvarint StartSeq, Fallback (0 or 1)
//	FrameWatchEvent: response, uvarint count, that many events
//
// A response is
//
//	status: 0, or the error code's byte followed by
//	        uvarint len(Detail), Detail, varint RetryAfterNs
//	shape:  one bit per result field that follows, in this order
//	  shapeEntry    uvarint length, the entry's encoding
//	  shapeEntries  uvarint count, that many (uvarint length, encoding)
//	  shapeN        varint N
//	  shapeVersions uvarint count, that many uvarint versions
//
// and an event is
//
//	uvarint Seq, Op with Sync in bit 7, varint Commit,
//	uvarint len(Name), uvarint len(Origin), uvarint len(Value),
//	Name, Origin, Value
//
// An entry's encoding is registry.AppendEntry's bytes. Every number is in its
// shortest form, a shape bit is set only over a field that is not empty, and
// nothing follows the frame, so a frame has exactly one encoding.

// requestFormat and replyFormat are the first byte of a request and of a
// reply. encoding/gob opens a stream with an unsigned integer whose first byte
// is below 0x80 or from 0xf8 up, so no gob stream of any type starts with
// either, and a gob decoder handed a frame fails on it: the generations cannot
// be taken for each other, and neither can the directions.
const (
	requestFormat = 0x84
	replyFormat   = 0x83
)

// entryFormat is registry's entry format byte. An entry inside a frame starts
// with it, and an entry that does not is refused before it is decoded.
const entryFormat = 0x01

// headerLen counts the bytes of the header both directions share.
const headerLen = 1 + 1 + 1 + 8 + 8

const flagSampled = 0x01

// Shape bits of a response. 0x04 and 0x08 are not defined: they were the
// results of operations the protocol no longer has, and are refused like any
// other undefined bit.
const (
	shapeEntry    = 0x01
	shapeEntries  = 0x02
	shapeN        = 0x10
	shapeVersions = 0x40
	shapeMask     = shapeEntry | shapeEntries | shapeN | shapeVersions
)

// The least an element of each counted list occupies; a count is checked
// against the bytes that remain divided by it before the list is allocated.
const (
	minRequestBytes  = 1 // op
	minResponseBytes = 2 // status, shape
	minEntryBytes    = 9 // length, then format byte and seven one-byte numbers
	minNameBytes     = 1 // length
	minEventBytes    = 6 // Seq, Op, Commit, three lengths
	minVersionBytes  = 1 // a one-byte uvarint
)

// internalByte is ErrInternal's byte in errCodes, which a code without one
// travels as.
const internalByte = 5

// errCodes maps an error code's byte on the wire to the code; index 0 is the
// status of a response that succeeded.
var errCodes = [...]ErrCode{
	1:  ErrNotFound,
	2:  ErrExists,
	3:  ErrConflict,
	4:  ErrInvalid,
	5:  ErrInternal,
	6:  ErrBadOp,
	7:  ErrUnavailable,
	8:  ErrDeadline,
	9:  ErrCanceled,
	10: ErrOverloaded,
	11: ErrCursorTooOld,
	12: ErrFeedLagged,
	13: ErrFeedClosed,
}

// errCodeByte returns code's byte. A code outside the table, the empty one of
// a failed response included, travels as internal.
func errCodeByte(code ErrCode) byte {
	for b := 1; b < len(errCodes); b++ {
		if errCodes[b] == code {
			return byte(b)
		}
	}
	return internalByte
}

// What the decoders refuse. The errors are static so that refusing hostile
// bytes allocates nothing for the error.
var (
	errRequestFormat = errors.New("rpc: decode request: first byte is not the request format byte 0x84: the peer speaks another wire generation")
	// errRequestOp is the one refusal a server answers instead of closing the
	// connection over: an undefined op has no body to skip, but the frame's
	// header has said whom to tell.
	errRequestOp = errors.New("rpc: decode request: undefined op byte")

	errReplyFormat     = errors.New("rpc: decode reply: first byte is not the reply format byte 0x83: the peer speaks another wire generation")
	errReplyKind       = errors.New("rpc: decode reply: unknown frame kind")
	errReplyCode       = errors.New("rpc: decode reply: unknown error code")
	errReplyShape      = errors.New("rpc: decode reply: undefined shape bit")
	errReplyEmptyField = errors.New("rpc: decode reply: shape bit set over an empty field")

	errFrameTruncated   = errors.New("rpc: decode frame: frame, field or number cut short")
	errFrameNotShortest = errors.New("rpc: decode frame: number not in its shortest form")
	errFrameLength      = errors.New("rpc: decode frame: length or count exceeds the bytes that remain")
	errFrameFlags       = errors.New("rpc: decode frame: undefined flag bit")
	errFrameEntryForm   = errors.New("rpc: decode frame: entry does not start with the entry format byte")
	errFrameBool        = errors.New("rpc: decode frame: boolean byte is neither 0 nor 1")
	errFrameTrailing    = errors.New("rpc: decode frame: bytes after the frame")
)

// appendHeader appends the header both directions share.
func appendHeader(dst []byte, format byte, h *Header) []byte {
	var flags byte
	if h.sampled {
		flags = flagSampled
	}
	dst = append(dst, format, byte(h.Kind), flags)
	dst = binary.BigEndian.AppendUint64(dst, h.ID)
	return binary.BigEndian.AppendUint64(dst, h.trace)
}

// decodeHeader reads the header of a payload that must start with format —
// wrongFormat is the error if it does not — into *h, and returns a reader over
// what follows it. The kind is whatever byte the payload holds.
func decodeHeader(payload []byte, format byte, wrongFormat error, h *Header) frameReader {
	switch {
	case len(payload) == 0 || payload[0] != format:
		return frameReader{err: wrongFormat}
	case len(payload) < headerLen:
		return frameReader{err: errFrameTruncated}
	case payload[2]&^flagSampled != 0:
		return frameReader{err: errFrameFlags}
	}
	*h = Header{
		Kind:    FrameKind(payload[1]),
		ID:      binary.BigEndian.Uint64(payload[3:]),
		sampled: payload[2]&flagSampled != 0,
		trace:   binary.BigEndian.Uint64(payload[11:]),
	}
	return frameReader{rest: payload[headerLen:]}
}

// appendRequestFrame appends f's encoding to dst and returns the extended
// slice. It cannot fail and allocates only to grow dst. The payload written is
// the one Header.Kind selects, and of each request the fields its op has; an
// undefined op is written as its byte alone, for a server to refuse.
func appendRequestFrame(dst []byte, f *RequestFrame) []byte {
	dst = appendHeader(dst, requestFormat, &f.Header)
	dst = binary.AppendVarint(dst, f.Header.TimeoutNs)
	dst = appendString(dst, f.Header.Tenant)
	switch f.Header.Kind {
	case FrameBatch:
		dst = binary.AppendUvarint(dst, uint64(len(f.Batch.Ops)))
		for i := range f.Batch.Ops {
			dst = appendRequest(dst, &f.Batch.Ops[i])
		}
	case FrameWatch:
		dst = binary.AppendUvarint(dst, f.Watch.FromSeq)
		dst = appendString(dst, f.Watch.Prefix)
		dst = appendBool(dst, f.Watch.NoFallback)
	case FrameWatchCancel:
	default:
		dst = appendRequest(dst, &f.Req)
	}
	return dst
}

func appendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, byte(req.Op))
	if !req.Op.defined() {
		return dst
	}
	switch opTable[req.Op].body {
	case bodyName:
		dst = appendString(dst, req.Name)
	case bodyEntry:
		dst = appendEntry(dst, &req.Entry)
	case bodyNameLocation:
		dst = binary.AppendUvarint(dst, uint64(len(req.Name)))
		dst = binary.AppendUvarint(dst, uint64(len(req.Location.Path)))
		dst = binary.AppendVarint(dst, int64(req.Location.Site))
		dst = binary.AppendVarint(dst, int64(req.Location.Node))
		dst = append(dst, req.Name...)
		dst = append(dst, req.Location.Path...)
	case bodyNames:
		dst = appendNames(dst, req.Names)
	case bodyEntries:
		dst = appendEntries(dst, req.Entries)
	}
	return dst
}

// appendResponseFrame appends f's encoding to dst and returns the extended
// slice. It cannot fail and allocates only to grow dst. Of f.Header it writes
// Kind and ID; the payload written is the one Kind selects.
func appendResponseFrame(dst []byte, f *ResponseFrame) []byte {
	dst = appendHeader(dst, replyFormat, &f.Header)
	switch f.Header.Kind {
	case FrameBatch:
		dst = binary.AppendUvarint(dst, uint64(len(f.Batch.Ops)))
		for i := range f.Batch.Ops {
			dst = appendResponse(dst, &f.Batch.Ops[i])
		}
	case FrameWatch:
		dst = appendResponse(dst, &f.Resp)
		dst = binary.AppendUvarint(dst, f.Watch.StartSeq)
		dst = appendBool(dst, f.Watch.Fallback)
	case FrameWatchEvent:
		dst = appendResponse(dst, &f.Resp)
		dst = binary.AppendUvarint(dst, uint64(len(f.Events)))
		for i := range f.Events {
			dst = appendEvent(dst, &f.Events[i])
		}
	default:
		dst = appendResponse(dst, &f.Resp)
	}
	return dst
}

func appendResponse(dst []byte, r *Response) []byte {
	if r.OK {
		dst = append(dst, 0)
	} else {
		dst = append(dst, errCodeByte(r.Err))
		dst = appendString(dst, r.Detail)
		dst = binary.AppendVarint(dst, r.RetryAfterNs)
	}
	shapeAt := len(dst)
	dst = append(dst, 0)
	var shape byte
	if !entryIsZero(&r.Entry) {
		shape |= shapeEntry
		dst = appendEntry(dst, &r.Entry)
	}
	if len(r.Entries) > 0 {
		shape |= shapeEntries
		dst = appendEntries(dst, r.Entries)
	}
	if r.N != 0 {
		shape |= shapeN
		dst = binary.AppendVarint(dst, int64(r.N))
	}
	if len(r.Versions) > 0 {
		shape |= shapeVersions
		dst = binary.AppendUvarint(dst, uint64(len(r.Versions)))
		for _, v := range r.Versions {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	dst[shapeAt] = shape
	return dst
}

func appendEntry(dst []byte, e *registry.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(registry.EncodedSize(*e)))
	return registry.AppendEntry(dst, *e)
}

func appendEntries(dst []byte, entries []registry.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		dst = appendEntry(dst, &entries[i])
	}
	return dst
}

// appendNames writes a name list with all the lengths before all the bytes,
// so that a decoder keeps one copy of the bytes and slices it.
func appendNames(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
	}
	for _, name := range names {
		dst = append(dst, name...)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// entryIsZero reports whether e encodes as the entry a response without
// shapeEntry decodes to.
func entryIsZero(e *registry.Entry) bool {
	return e.Name == "" && e.Size == 0 && e.Producer == "" && len(e.Locations) == 0 &&
		e.Created.IsZero() && e.Version == 0
}

func appendEvent(dst []byte, ev *feed.Event) []byte {
	op := byte(ev.Op) & 0x7f
	if ev.Sync {
		op |= 0x80
	}
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = append(dst, op)
	dst = binary.AppendVarint(dst, ev.Commit)
	dst = binary.AppendUvarint(dst, uint64(len(ev.Name)))
	dst = binary.AppendUvarint(dst, uint64(len(ev.Origin)))
	dst = binary.AppendUvarint(dst, uint64(len(ev.Value)))
	dst = append(dst, ev.Name...)
	dst = append(dst, ev.Origin...)
	return append(dst, ev.Value...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// decodeResponseFrame is the inverse of appendResponseFrame; it overwrites
// *f, whose Header gets Kind and ID. What it keeps of payload it copies —
// the connection's buffer is read over the moment this returns — and
// every length and count is checked against the bytes that remain before
// anything is allocated for it. After an error *f holds whatever was decoded
// before the rule that failed and must not be used.
func decodeResponseFrame(payload []byte, f *ResponseFrame) error {
	*f = ResponseFrame{}
	r := decodeHeader(payload, replyFormat, errReplyFormat, &f.Header)
	if r.err != nil {
		return r.err
	}
	kind := f.Header.Kind
	if kind < FrameSingle || kind > FrameWatchEvent {
		return errReplyKind
	}
	switch kind {
	case FrameBatch:
		if n := r.count(minResponseBytes); n > 0 {
			f.Batch.Ops = make([]Response, n)
			for i := 0; i < n && r.err == nil; i++ {
				r.response(&f.Batch.Ops[i])
			}
		}
	case FrameWatch:
		r.response(&f.Resp)
		f.Watch.StartSeq = r.uvarint()
		f.Watch.Fallback = r.bool()
	case FrameWatchEvent:
		r.response(&f.Resp)
		if n := r.count(minEventBytes); n > 0 {
			f.Events = make([]feed.Event, n)
			for i := 0; i < n && r.err == nil; i++ {
				r.event(&f.Events[i])
			}
		}
	default:
		r.response(&f.Resp)
	}
	if r.err == nil && len(r.rest) > 0 {
		r.err = errFrameTrailing
	}
	return r.err
}

// decodeRequestPreamble decodes what admission control needs of a request and
// nothing more: the header, the deadline, the tenant and — a batch's count
// sits right behind them, checked against the bytes that remain — how many
// operations the frame carries. It allocates the tenant's string at most. A
// server decodes the rest, with decodeRequestBody, only for a frame it admits.
func decodeRequestPreamble(payload []byte, f *RequestFrame) (body frameReader, ops int, err error) {
	*f = RequestFrame{}
	r := decodeHeader(payload, requestFormat, errRequestFormat, &f.Header)
	f.Header.TimeoutNs = r.varint()
	f.Header.Tenant = r.string()
	ops = 1
	if f.Header.Kind == FrameBatch {
		ops = r.count(minRequestBytes)
	}
	return r, ops, r.err
}

// decodeRequestBody decodes what follows the preamble into f. A kind that is
// neither batch nor one of the watch kinds holds a single request.
func decodeRequestBody(r frameReader, ops int, f *RequestFrame) error {
	switch f.Header.Kind {
	case FrameBatch:
		if ops > 0 {
			f.Batch.Ops = make([]Request, ops)
			for i := 0; i < ops && r.err == nil; i++ {
				r.request(&f.Batch.Ops[i])
			}
		}
	case FrameWatch:
		f.Watch.FromSeq = r.uvarint()
		f.Watch.Prefix = r.string()
		f.Watch.NoFallback = r.bool()
	case FrameWatchCancel:
	default:
		r.request(&f.Req)
	}
	if r.err == nil && len(r.rest) > 0 {
		r.err = errFrameTrailing
	}
	return r.err
}

// frameReader consumes a frame's body front to back. The first failure sticks
// in err, after which every read returns zero and allocates nothing, so the
// decoders read a run of fields and check once.
type frameReader struct {
	rest []byte
	err  error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *frameReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.rest) == 0 {
		r.err = errFrameTruncated
		return 0
	}
	b := r.rest[0]
	r.rest = r.rest[1:]
	return b
}

func (r *frameReader) bool() bool {
	b := r.byte()
	if b > 1 {
		r.fail(errFrameBool)
	}
	return b == 1
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.err = errFrameTruncated
		return 0
	}
	// binary.Uvarint accepts zero bytes at a number's most significant end;
	// its shortest form has none.
	if n > 1 && r.rest[n-1] == 0 {
		r.err = errFrameNotShortest
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

func (r *frameReader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// count reads the number of elements of a list that is still to come, each
// at least min bytes long.
func (r *frameReader) count(min int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.rest)/min) {
		r.err = errFrameLength
		return 0
	}
	return int(v)
}

// length reads the length of bytes that are still to come. Checked one by
// one, lengths that are added up before they are taken cannot wrap.
func (r *frameReader) length() int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.rest)) {
		r.err = errFrameLength
		return 0
	}
	return int(v)
}

// take returns the next n bytes, still part of the payload.
func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.err = errFrameLength
		return nil
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

// string returns a copy of the next length-prefixed bytes.
func (r *frameReader) string() string { return string(r.take(r.length())) }

func (r *frameReader) response(resp *Response) {
	status := r.byte()
	switch {
	case status == 0:
		resp.OK = true
	case int(status) >= len(errCodes):
		r.fail(errReplyCode)
	default:
		resp.Err = errCodes[status]
		resp.Detail = r.string()
		resp.RetryAfterNs = r.varint()
	}
	shape := r.byte()
	if shape&^shapeMask != 0 {
		r.fail(errReplyShape)
	}
	if shape&shapeEntry != 0 {
		resp.Entry = r.entry()
		if r.err == nil && entryIsZero(&resp.Entry) {
			r.err = errReplyEmptyField
		}
	}
	if shape&shapeEntries != 0 {
		resp.Entries = r.entries(r.nonEmpty(minEntryBytes))
	}
	if shape&shapeN != 0 {
		resp.N = int(r.varint())
		if r.err == nil && resp.N == 0 {
			r.err = errReplyEmptyField
		}
	}
	if shape&shapeVersions != 0 {
		resp.Versions = r.versions(r.nonEmpty(minVersionBytes))
	}
}

// nonEmpty is count for a list behind a shape bit, which is not empty.
func (r *frameReader) nonEmpty(min int) int {
	n := r.count(min)
	if r.err == nil && n == 0 {
		r.err = errReplyEmptyField
	}
	return n
}

// entry decodes one length-prefixed entry. registry.DecodeEntry copies what
// it keeps and applies the entry encoding's own rules.
func (r *frameReader) entry() registry.Entry {
	data := r.take(r.length())
	if r.err != nil {
		return registry.Entry{}
	}
	if len(data) == 0 || data[0] != entryFormat {
		r.err = errFrameEntryForm
		return registry.Entry{}
	}
	e, err := registry.DecodeEntry(data)
	if err != nil {
		r.err = err
	}
	return e
}

// names decodes n names at the cost of two allocations: the slice, and one
// copy of all the names that its elements are slices of.
func (r *frameReader) names(n int) []string {
	lengths := frameReader{rest: r.rest}
	total := 0
	for i := 0; i < n && r.err == nil; i++ {
		total += r.length()
	}
	blob := string(r.take(total))
	if r.err != nil || n == 0 {
		return nil
	}
	names := make([]string, n)
	for i := range names {
		l := lengths.uvarint()
		names[i], blob = blob[:l], blob[l:]
	}
	return names
}

// versions decodes n uvarints at the cost of one allocation.
func (r *frameReader) versions(n int) []uint64 {
	if r.err != nil || n == 0 {
		return nil
	}
	versions := make([]uint64, n)
	for i := range versions {
		versions[i] = r.uvarint()
	}
	return versions
}

// entries decodes n length-prefixed entries.
func (r *frameReader) entries(n int) []registry.Entry {
	if r.err != nil || n == 0 {
		return nil
	}
	entries := make([]registry.Entry, n)
	for i := 0; i < n && r.err == nil; i++ {
		entries[i] = r.entry()
	}
	return entries
}

// request decodes one operation: its op byte, which must be defined, and the
// body that op has. Lists may be empty, and decode as nil.
func (r *frameReader) request(req *Request) {
	op := Op(r.byte())
	if r.err != nil {
		return
	}
	if !op.defined() {
		r.err = errRequestOp
		return
	}
	req.Op = op
	switch opTable[op].body {
	case bodyName:
		req.Name = r.string()
	case bodyEntry:
		req.Entry = r.entry()
	case bodyNameLocation:
		nameLen, pathLen := r.length(), r.length()
		site, node := r.varint(), r.varint()
		blob := string(r.take(nameLen + pathLen))
		if r.err != nil {
			return
		}
		req.Name = blob[:nameLen]
		req.Location = registry.Location{Site: cloud.SiteID(site), Node: cloud.NodeID(node), Path: blob[nameLen:]}
	case bodyNames:
		req.Names = r.names(r.count(minNameBytes))
	case bodyEntries:
		req.Entries = r.entries(r.count(minEntryBytes))
	}
}

func (r *frameReader) event(ev *feed.Event) {
	ev.Seq = r.uvarint()
	op := r.byte()
	ev.Op, ev.Sync = feed.Op(op&0x7f), op&0x80 != 0
	ev.Commit = r.varint()
	nameLen, originLen, valueLen := r.length(), r.length(), r.length()
	blob := string(r.take(nameLen + originLen))
	value := r.take(valueLen)
	if r.err != nil {
		return
	}
	ev.Name, ev.Origin = blob[:nameLen], blob[nameLen:]
	if len(value) > 0 {
		ev.Value = append([]byte(nil), value...)
	}
}
