package registry

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
)

// errGobFraming is returned for bytes that are not a whole number of gob
// messages.
var errGobFraming = errors.New("registry: decode entry: neither the entry format nor a stored gob value")

// decodeGobEntry reads a value written by a release that stored entries as
// one encoding/gob stream each. It exists so that WAL segments, snapshots and
// feed replays written before the entry format still open; nothing writes
// this form any more, and the next write of a name replaces it.
func decodeGobEntry(data []byte) (Entry, error) {
	if !gobFramed(data) {
		return Entry{}, errGobFraming
	}
	var e Entry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return Entry{}, fmt.Errorf("registry: gob decode: %w", err)
	}
	// time.Time's binary form, which gob carries, is not checked for its
	// nanoseconds on the way in; a Time that breaks that invariant would
	// encode to bytes DecodeEntry refuses.
	if e.Created.Nanosecond() >= 1e9 {
		return Entry{}, errEntryNanos
	}
	return e, nil
}

// gobFramed reports whether data is exactly a sequence of gob messages, each
// a length and that many bytes — what an Encoder writes for one value. The
// gob decoder allocates a message's declared length before it reads it, so
// this is checked first: a length that lies is refused here, for free.
func gobFramed(data []byte) bool {
	for len(data) > 0 {
		// gob's unsigned integer: one byte below 128, otherwise the negated
		// count of big-endian bytes that follow.
		n := uint64(data[0])
		data = data[1:]
		if n > 0x7f {
			width := 256 - int(n)
			if width > 8 || width > len(data) {
				return false
			}
			n = 0
			for _, b := range data[:width] {
				n = n<<8 | uint64(b)
			}
			data = data[width:]
		}
		if n == 0 || n > uint64(len(data)) {
			return false
		}
		data = data[n:]
	}
	return true
}
