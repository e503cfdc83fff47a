package registry

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"time"

	"geomds/internal/cloud"
)

// The entry encoding (docs/WIRE.md, "Entry encoding"). Every stored value,
// WAL payload, snapshot record and feed event carries an entry as these
// bytes, and the strategies model a message's size with EncodedSize:
//
//	format byte (entryFormat)
//	uvarint Version
//	varint  Size
//	varint  Created, seconds since the Unix epoch
//	uvarint Created, nanoseconds within the second (< 1e9)
//	uvarint len(Name)
//	uvarint len(Producer)
//	uvarint len(Locations)
//	per location: varint Site, varint Node, uvarint len(Path)
//	Name, Producer and the paths, back to back
//
// Every number is in its shortest form and nothing follows the last path, so
// an entry has exactly one encoding.

// entryFormat is the first byte of an encoded entry. A gob stream opens with
// the length of a type-definition message, which is never 0 or 1, so the byte
// also tells these bytes from the gob values older releases stored
// (codec_gob.go).
const entryFormat = 0x01

// What DecodeEntry refuses. The errors are static so that refusing hostile
// bytes allocates nothing.
var (
	errEntryEmpty       = errors.New("registry: decode entry: no bytes")
	errEntryTruncated   = errors.New("registry: decode entry: number cut short or too long")
	errEntryNotShortest = errors.New("registry: decode entry: number not in its shortest form")
	errEntryNanos       = errors.New("registry: decode entry: nanoseconds out of range")
	errEntryLength      = errors.New("registry: decode entry: length or count exceeds the bytes that remain")
	errEntryTrailing    = errors.New("registry: decode entry: bytes after the last path")
)

// minLocationBytes is the least a location adds to an encoding (site, node
// and path length, one byte each): a location count is checked against the
// bytes that remain with it.
const minLocationBytes = 3

// AppendEntry appends e's encoding to dst and returns the extended slice. It
// cannot fail, and it does not allocate when dst has EncodedSize(e) bytes of
// spare capacity.
func AppendEntry(dst []byte, e Entry) []byte {
	dst = append(dst, entryFormat)
	dst = binary.AppendUvarint(dst, e.Version)
	dst = binary.AppendVarint(dst, e.Size)
	dst = binary.AppendVarint(dst, e.Created.Unix())
	dst = binary.AppendUvarint(dst, uint64(e.Created.Nanosecond()))
	dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
	dst = binary.AppendUvarint(dst, uint64(len(e.Producer)))
	dst = binary.AppendUvarint(dst, uint64(len(e.Locations)))
	for _, l := range e.Locations {
		dst = binary.AppendVarint(dst, int64(l.Site))
		dst = binary.AppendVarint(dst, int64(l.Node))
		dst = binary.AppendUvarint(dst, uint64(len(l.Path)))
	}
	dst = append(dst, e.Name...)
	dst = append(dst, e.Producer...)
	for _, l := range e.Locations {
		dst = append(dst, l.Path...)
	}
	return dst
}

// EncodedSize returns len(AppendEntry(nil, e)) without encoding anything.
func EncodedSize(e Entry) int {
	n := 1 + uvarintLen(e.Version) + varintLen(e.Size) +
		varintLen(e.Created.Unix()) + uvarintLen(uint64(e.Created.Nanosecond())) +
		uvarintLen(uint64(len(e.Name))) + uvarintLen(uint64(len(e.Producer))) +
		uvarintLen(uint64(len(e.Locations))) +
		len(e.Name) + len(e.Producer)
	for _, l := range e.Locations {
		n += varintLen(int64(l.Site)) + varintLen(int64(l.Node)) + uvarintLen(uint64(len(l.Path))) + len(l.Path)
	}
	return n
}

// encodeEntry returns e's encoding in a buffer of its own, sized exactly.
// Stored values are encoded with it and never into a shared scratch buffer:
// the slice handed to the store is also what the WAL appends and what the
// change feed publishes, without a copy.
func encodeEntry(e Entry) []byte {
	return AppendEntry(make([]byte, 0, EncodedSize(e)), e)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// DecodeEntry is the inverse of AppendEntry. The result shares no memory with
// data and costs at most two allocations: one copy of all the strings, of
// which Name, Producer and the paths are slices, and one []Location. The
// whole of data is checked before either is made — every count and length
// against the bytes that remain — so a length that lies costs an error, not
// memory. The instant of Created is kept and decodes as UTC; the zero time
// decodes as the zero time.
//
// Bytes that do not start with the format byte are taken for a value stored
// by a release that encoded entries with encoding/gob, and decoded as one.
func DecodeEntry(data []byte) (Entry, error) {
	if len(data) == 0 {
		return Entry{}, errEntryEmpty
	}
	if data[0] != entryFormat {
		return decodeGobEntry(data)
	}
	r := entryReader{rest: data[1:]}
	version := r.uvarint()
	size := r.varint()
	sec := r.varint()
	nsec := r.uvarint()
	nameLen := r.length()
	producerLen := r.length()
	nloc := r.uvarint()
	if r.err == nil && nsec >= 1e9 {
		r.err = errEntryNanos
	}
	if r.err == nil && nloc > uint64(len(r.rest)/minLocationBytes) {
		r.err = errEntryLength
	}
	// First pass over the locations: nothing is kept, the numbers are only
	// checked and the path lengths added up.
	locs := r.rest
	strBytes := uint64(nameLen) + uint64(producerLen)
	for i := uint64(0); i < nloc && r.err == nil; i++ {
		r.varint() // site
		r.varint() // node
		strBytes += uint64(r.length())
	}
	switch {
	case r.err != nil:
		return Entry{}, r.err
	case strBytes > uint64(len(r.rest)):
		return Entry{}, errEntryLength
	case strBytes < uint64(len(r.rest)):
		return Entry{}, errEntryTrailing
	}

	e := Entry{Version: version, Size: size}
	// time.Unix(zero time's seconds, 0).UTC() is the zero Time value itself.
	e.Created = time.Unix(sec, int64(nsec)).UTC()
	blob := string(r.rest)
	e.Name, blob = blob[:nameLen], blob[nameLen:]
	e.Producer, blob = blob[:producerLen], blob[producerLen:]
	if nloc > 0 {
		e.Locations = make([]Location, nloc)
		r = entryReader{rest: locs}
		for i := range e.Locations {
			l := &e.Locations[i]
			l.Site = cloud.SiteID(r.varint())
			l.Node = cloud.NodeID(r.varint())
			n := r.length()
			l.Path, blob = blob[:n], blob[n:]
		}
	}
	return e, nil
}

// entryReader consumes the numbers at the front of an encoding. The first
// failure sticks in err and every later read returns zero, so a decoder reads
// a run of fields and checks once.
type entryReader struct {
	rest []byte
	err  error
}

func (r *entryReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.err = errEntryTruncated
		return 0
	}
	// The shortest form of a number has no zero byte at its most significant
	// end; binary.Uvarint accepts any number of them.
	if n > 1 && r.rest[n-1] == 0 {
		r.err = errEntryNotShortest
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

func (r *entryReader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// length reads the length of a string that is still to come, so it cannot
// exceed the bytes that remain.
func (r *entryReader) length() int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.rest)) {
		r.err = errEntryLength
		return 0
	}
	return int(v)
}

// GobCodec is the entry codec under the name it had while entries were
// encoded with encoding/gob. The name is historical: the benchmark module's
// ladder times the codec through it. Code in this module calls AppendEntry,
// EncodedSize and DecodeEntry directly.
type GobCodec struct{}

// Encode returns e's encoding in a new buffer; the error is always nil.
func (GobCodec) Encode(e Entry) ([]byte, error) { return encodeEntry(e), nil }

// Decode is DecodeEntry.
func (GobCodec) Decode(data []byte) (Entry, error) { return DecodeEntry(data) }
