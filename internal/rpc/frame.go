package rpc

import (
	"encoding/binary"
	"errors"

	"geomds/internal/registry"
)

// The reply encoding (docs/WIRE.md, "Reply frames"): what a server writes
// after the 4-byte length, whatever the frame carries.
//
//	format byte (replyFormat)
//	frame kind
//	flags; bit 0 is the sampled bit, the others are zero
//	request ID, 8 bytes big-endian
//	trace ID, 8 bytes big-endian
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
//	  shapeNames    uvarint count, that many uvarint lengths, the names
//	  shapeN        varint N
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

// replyFormat is the first byte of a reply. encoding/gob opens a stream with
// an unsigned integer whose first byte is below 0x80 or from 0xf8 up, so no
// gob stream of any type starts with this byte, and a gob decoder handed a
// reply fails on it: the two generations cannot be taken for each other.
const replyFormat = 0x83

// entryFormat is registry's entry format byte. An entry inside a frame starts
// with it; the gob values registry.DecodeEntry also reads for the sake of old
// data directories are never valid on the wire.
const entryFormat = 0x01

// replyHeaderLen counts the bytes before the per-kind body.
const replyHeaderLen = 1 + 1 + 1 + 8 + 8

const flagSampled = 0x01

// Shape bits of a response. 0x08 is not defined: it was the result of an
// operation the protocol no longer has, and is refused like any other
// undefined bit.
const (
	shapeEntry   = 0x01
	shapeEntries = 0x02
	shapeNames   = 0x04
	shapeN       = 0x10
	shapeMask    = shapeEntry | shapeEntries | shapeNames | shapeN
)

// The least an element of each counted list occupies; a count is checked
// against the bytes that remain divided by it before the list is allocated.
const (
	minResponseBytes = 2 // status, shape
	minEntryBytes    = 9 // length, then format byte and seven one-byte numbers
	minNameBytes     = 1 // length
	minEventBytes    = 6 // Seq, Op, Commit, three lengths
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

// What decodeResponseFrame refuses. The errors are static so that refusing
// hostile bytes allocates nothing for the error.
var (
	errReplyFormat      = errors.New("rpc: decode reply: first byte is not the reply format byte 0x83: the peer speaks another wire generation")
	errReplyTruncated   = errors.New("rpc: decode reply: frame, field or number cut short")
	errReplyNotShortest = errors.New("rpc: decode reply: number not in its shortest form")
	errReplyLength      = errors.New("rpc: decode reply: length or count exceeds the bytes that remain")
	errReplyKind        = errors.New("rpc: decode reply: unknown frame kind")
	errReplyFlags       = errors.New("rpc: decode reply: undefined flag bit")
	errReplyCode        = errors.New("rpc: decode reply: unknown error code")
	errReplyShape       = errors.New("rpc: decode reply: undefined shape bit")
	errReplyEmptyField  = errors.New("rpc: decode reply: shape bit set over an empty field")
	errReplyEntryForm   = errors.New("rpc: decode reply: entry does not start with the entry format byte")
	errReplyBool        = errors.New("rpc: decode reply: boolean byte is neither 0 nor 1")
	errReplyTrailing    = errors.New("rpc: decode reply: bytes after the frame")
)

// appendResponseFrame appends f's encoding to dst and returns the extended
// slice. It cannot fail and allocates only to grow dst. Of f.Header it writes
// Kind and ID; the payload written is the one Kind selects.
func appendResponseFrame(dst []byte, f *ResponseFrame) []byte {
	var flags byte
	if f.sampled {
		flags = flagSampled
	}
	dst = append(dst, replyFormat, byte(f.Header.Kind), flags)
	dst = binary.BigEndian.AppendUint64(dst, f.Header.ID)
	dst = binary.BigEndian.AppendUint64(dst, f.trace)
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
		dst = binary.AppendUvarint(dst, uint64(len(r.Detail)))
		dst = append(dst, r.Detail...)
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
		dst = binary.AppendUvarint(dst, uint64(len(r.Entries)))
		for i := range r.Entries {
			dst = appendEntry(dst, &r.Entries[i])
		}
	}
	if len(r.Names) > 0 {
		shape |= shapeNames
		dst = binary.AppendUvarint(dst, uint64(len(r.Names)))
		for _, name := range r.Names {
			dst = binary.AppendUvarint(dst, uint64(len(name)))
		}
		for _, name := range r.Names {
			dst = append(dst, name...)
		}
	}
	if r.N != 0 {
		shape |= shapeN
		dst = binary.AppendVarint(dst, int64(r.N))
	}
	dst[shapeAt] = shape
	return dst
}

func appendEntry(dst []byte, e *registry.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(registry.EncodedSize(*e)))
	return registry.AppendEntry(dst, *e)
}

// entryIsZero reports whether e encodes as the entry a response without
// shapeEntry decodes to.
func entryIsZero(e *registry.Entry) bool {
	return e.Name == "" && e.Size == 0 && e.Producer == "" && len(e.Locations) == 0 &&
		e.Created.IsZero() && e.Version == 0
}

func appendEvent(dst []byte, ev *WatchEvent) []byte {
	op := ev.Op & 0x7f
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
// readPayload's buffer goes back to its pool the moment this returns — and
// every length and count is checked against the bytes that remain before
// anything is allocated for it. After an error *f holds whatever was decoded
// before the rule that failed and must not be used.
func decodeResponseFrame(payload []byte, f *ResponseFrame) error {
	*f = ResponseFrame{}
	if len(payload) == 0 || payload[0] != replyFormat {
		return errReplyFormat
	}
	if len(payload) < replyHeaderLen {
		return errReplyTruncated
	}
	kind, flags := FrameKind(payload[1]), payload[2]
	if kind < FrameSingle || kind > FrameWatchEvent {
		return errReplyKind
	}
	if flags&^flagSampled != 0 {
		return errReplyFlags
	}
	f.Header.Kind = kind
	f.Header.ID = binary.BigEndian.Uint64(payload[3:])
	f.sampled = flags&flagSampled != 0
	f.trace = binary.BigEndian.Uint64(payload[11:])

	r := replyReader{rest: payload[replyHeaderLen:]}
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
			f.Events = make([]WatchEvent, n)
			for i := 0; i < n && r.err == nil; i++ {
				r.event(&f.Events[i])
			}
		}
	default:
		r.response(&f.Resp)
	}
	if r.err == nil && len(r.rest) > 0 {
		r.err = errReplyTrailing
	}
	return r.err
}

// replyReader consumes a frame's body front to back. The first failure sticks
// in err, after which every read returns zero and allocates nothing, so the
// decoders read a run of fields and check once.
type replyReader struct {
	rest []byte
	err  error
}

func (r *replyReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *replyReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.rest) == 0 {
		r.err = errReplyTruncated
		return 0
	}
	b := r.rest[0]
	r.rest = r.rest[1:]
	return b
}

func (r *replyReader) bool() bool {
	b := r.byte()
	if b > 1 {
		r.fail(errReplyBool)
	}
	return b == 1
}

func (r *replyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.err = errReplyTruncated
		return 0
	}
	// binary.Uvarint accepts zero bytes at a number's most significant end;
	// its shortest form has none.
	if n > 1 && r.rest[n-1] == 0 {
		r.err = errReplyNotShortest
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

func (r *replyReader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// count reads the number of elements of a list that is still to come, each
// at least min bytes long.
func (r *replyReader) count(min int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.rest)/min) {
		r.err = errReplyLength
		return 0
	}
	return int(v)
}

// length reads the length of bytes that are still to come. Checked one by
// one, lengths that are added up before they are taken cannot wrap.
func (r *replyReader) length() int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.rest)) {
		r.err = errReplyLength
		return 0
	}
	return int(v)
}

// take returns the next n bytes, still part of the payload.
func (r *replyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.err = errReplyLength
		return nil
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

func (r *replyReader) response(resp *Response) {
	status := r.byte()
	switch {
	case status == 0:
		resp.OK = true
	case int(status) >= len(errCodes):
		r.fail(errReplyCode)
	default:
		resp.Err = errCodes[status]
		resp.Detail = string(r.take(r.length()))
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
		if n := r.nonEmpty(minEntryBytes); n > 0 {
			resp.Entries = make([]registry.Entry, n)
			for i := 0; i < n && r.err == nil; i++ {
				resp.Entries[i] = r.entry()
			}
		}
	}
	if shape&shapeNames != 0 {
		resp.Names = r.names()
	}
	if shape&shapeN != 0 {
		resp.N = int(r.varint())
		if r.err == nil && resp.N == 0 {
			r.err = errReplyEmptyField
		}
	}
}

// nonEmpty is count for a list behind a shape bit, which is not empty.
func (r *replyReader) nonEmpty(min int) int {
	n := r.count(min)
	if r.err == nil && n == 0 {
		r.err = errReplyEmptyField
	}
	return n
}

// entry decodes one length-prefixed entry. registry.DecodeEntry copies what
// it keeps and applies the entry encoding's own rules.
func (r *replyReader) entry() registry.Entry {
	data := r.take(r.length())
	if r.err != nil {
		return registry.Entry{}
	}
	if len(data) == 0 || data[0] != entryFormat {
		r.err = errReplyEntryForm
		return registry.Entry{}
	}
	e, err := registry.DecodeEntry(data)
	if err != nil {
		r.err = err
	}
	return e
}

// names decodes a name list at the cost of two allocations: the slice, and
// one copy of all the names that its elements are slices of.
func (r *replyReader) names() []string {
	n := r.nonEmpty(minNameBytes)
	lengths := replyReader{rest: r.rest}
	total := 0
	for i := 0; i < n && r.err == nil; i++ {
		total += r.length()
	}
	blob := string(r.take(total))
	if r.err != nil {
		return nil
	}
	names := make([]string, n)
	for i := range names {
		l := lengths.uvarint()
		names[i], blob = blob[:l], blob[l:]
	}
	return names
}

func (r *replyReader) event(ev *WatchEvent) {
	ev.Seq = r.uvarint()
	op := r.byte()
	ev.Op, ev.Sync = op&0x7f, op&0x80 != 0
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
