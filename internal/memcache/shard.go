package memcache

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync"
)

// A shard is a log-structured store: records are appended to pointer-free
// pages and found through an open-addressing index of 8-byte references.
//
// Pages are append-only. A record is never rewritten and a page's buffer is
// never reused, so a value handed to a caller — a slice of its page — stays
// intact whatever happens to its key afterwards, and the collector frees the
// page when the index and the last such slice have let go of it. That is the
// whole memory-safety argument; pooling page buffers would break it.
//
// An overwrite or a delete leaves the old record dead in its page. A page
// other than the head that is more than half dead is evacuated: the records
// the index still points at are re-appended to the head and the page is
// dropped, so record bytes stay within twice the live ones plus a head page.
type shard struct {
	mu   sync.RWMutex
	seed maphash.Seed

	// index is a power-of-two table of references (0 = empty), linearly
	// probed from the hash's low bits, kept at most three quarters full.
	index []uint64
	count int

	// pages is indexed by page id; id 0 is never used, so no reference is
	// zero, and the ids of dropped pages wait in free.
	pages []page
	free  []uint32
	// head is the page records are appended to (0 before the first put);
	// headSize is the capacity the next head gets.
	head     uint32
	headSize int

	usage usage
}

type page struct {
	buf  []byte
	dead int
}

// usage is a shard's memory account, kept under its lock; the cache
// publishes the difference an operation made.
type usage struct {
	resident  int64 // page capacity + index bytes
	dead      int64 // bytes of dead records in pages still held
	evacuated int64 // bytes of live records copied out of evacuated pages
}

const (
	// pageSize is the capacity of a page once a shard has warmed up, and the
	// largest record that shares one: a larger record gets a page of exactly
	// its size. The first pages of a shard start at minPageSize and double.
	pageSize    = 16 << 10
	minPageSize = 256
	minIndex    = 8

	// A reference is tag · page id · offset; its location is the last two.
	offBits  = 14
	pageBits = 30
	tagShift = offBits + pageBits
	locMask  = 1<<tagShift - 1
	maxPages = 1 << pageBits

	// One hash serves the whole operation: its low bits choose the slot, the
	// next twenty the tag and the top sixteen the shard.
	hashTagShift   = 28
	hashShardShift = 48
)

func tagOf(h uint64) uint64    { return h >> hashTagShift << tagShift }
func pageOf(ref uint64) uint32 { return uint32(ref & locMask >> offBits) }

// record is a decoded view of one stored record; key and value alias the
// page.
type record struct {
	key, value []byte
	version    uint64
	size       int
}

// item rebuilds the Item callers see. The value's capacity ends with it, so
// an append by the caller cannot reach the next record.
func (r record) item(key string) Item {
	return Item{Key: key, Value: r.value, Version: r.version}
}

// A record is laid out as: uvarint key length, value length and version, key
// bytes, value bytes.
func recordSize(key string, value []byte, version uint64) int {
	return uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(value))) + uvarintLen(version) + len(key) + len(value)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// writeRecord fills dst, which is recordSize long, and returns the stored
// value.
func writeRecord(dst []byte, key string, value []byte, version uint64) []byte {
	n := binary.PutUvarint(dst, uint64(len(key)))
	n += binary.PutUvarint(dst[n:], uint64(len(value)))
	n += binary.PutUvarint(dst[n:], version)
	n += copy(dst[n:], key)
	copy(dst[n:], value)
	return dst[n:len(dst):len(dst)]
}

// readRecord decodes the record that starts b.
func readRecord(b []byte) record {
	var r record
	klen, n := binary.Uvarint(b)
	vlen, w := binary.Uvarint(b[n:])
	n += w
	r.version, w = binary.Uvarint(b[n:])
	n += w
	k, v := n+int(klen), n+int(klen)+int(vlen)
	r.key, r.value, r.size = b[n:k], b[k:v:v], v
	return r
}

func (sh *shard) at(ref uint64) record {
	return readRecord(sh.pages[pageOf(ref)].buf[ref&(1<<offBits-1):])
}

// find probes for key, whose hash is h. When the key is absent, slot is
// where it would go (given a non-empty index).
func (sh *shard) find(h uint64, key string) (slot int, rec record, ok bool) {
	if len(sh.index) == 0 {
		return 0, record{}, false
	}
	mask := len(sh.index) - 1
	tag := tagOf(h)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		ref := sh.index[i]
		if ref == 0 {
			return i, record{}, false
		}
		if ref&^locMask == tag {
			if rec := sh.at(ref); string(rec.key) == key {
				return i, rec, true
			}
		}
	}
}

// reserve makes room in the index for one more key. It runs before find, so
// that the slot find returns stays good until the put that uses it.
func (sh *shard) reserve() {
	if (sh.count+1)*4 <= len(sh.index)*3 {
		return
	}
	old := sh.index
	sh.index = make([]uint64, max(minIndex, 2*len(old)))
	sh.usage.resident += int64(8 * (len(sh.index) - len(old)))
	mask := len(sh.index) - 1
	for _, ref := range old {
		if ref == 0 {
			continue
		}
		i := int(maphash.Bytes(sh.seed, sh.at(ref).key)) & mask
		for sh.index[i] != 0 {
			i = (i + 1) & mask
		}
		sh.index[i] = ref
	}
}

// put appends a record for key and points slot at it. replaces is the size
// of the key's previous record, which slot holds and which dies, or 0 for a
// new key; the stored value is returned.
func (sh *shard) put(h uint64, slot, replaces int, key string, value []byte, version uint64) []byte {
	loc, dst := sh.alloc(recordSize(key, value, version))
	stored := writeRecord(dst, key, value, version)
	// Read the old reference only now: making room may have evacuated the
	// page it pointed into.
	old := sh.index[slot]
	sh.index[slot] = tagOf(h) | loc
	if replaces == 0 {
		sh.count++
	} else {
		sh.kill(old, replaces)
	}
	return stored
}

// remove takes the key at slot out of the index, closing the gap by shifting
// the rest of its probe run back (so there are no tombstones), and leaves
// its record dead.
func (sh *shard) remove(slot, size int) {
	ref := sh.index[slot]
	mask := len(sh.index) - 1
	i := slot
	for j := (i + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		home := int(maphash.Bytes(sh.seed, sh.at(sh.index[j]).key)) & mask
		if (j-home)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = 0
	sh.count--
	sh.kill(ref, size)
}

// kill accounts for the record at ref, which the index no longer points at,
// and evacuates its page if that left it more than half dead.
func (sh *shard) kill(ref uint64, size int) {
	id := pageOf(ref)
	p := &sh.pages[id]
	p.dead += size
	sh.usage.dead += int64(size)
	if id != sh.head && p.dead*2 > len(p.buf) {
		sh.evacuate(id)
	}
}

// alloc returns size bytes at the end of the head page — or a page of their
// own if they are more than a page — and where they are.
func (sh *shard) alloc(size int) (loc uint64, dst []byte) {
	if size > pageSize {
		id := sh.newPage(size)
		p := &sh.pages[id]
		p.buf = p.buf[:size]
		return uint64(id) << offBits, p.buf
	}
	// Retiring a head can evacuate it into the new one, which may then be
	// too full in its turn; the head after that starts empty.
	for sh.head == 0 || cap(sh.pages[sh.head].buf)-len(sh.pages[sh.head].buf) < size {
		sh.rotate(size)
	}
	p := &sh.pages[sh.head]
	off := len(p.buf)
	p.buf = p.buf[:off+size]
	return uint64(sh.head)<<offBits | uint64(off), p.buf[off:]
}

// rotate starts a new head page with room for size bytes and evacuates the
// old one if it retires more than half dead.
func (sh *shard) rotate(size int) {
	if sh.headSize == 0 {
		sh.headSize = minPageSize
	}
	for sh.headSize < size {
		sh.headSize *= 2
	}
	old := sh.head
	sh.head = sh.newPage(sh.headSize)
	sh.headSize = min(2*sh.headSize, pageSize)
	if old != 0 && sh.pages[old].dead*2 > len(sh.pages[old].buf) {
		sh.evacuate(old)
	}
}

func (sh *shard) newPage(capacity int) uint32 {
	var id uint32
	if n := len(sh.free); n > 0 {
		id, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		if len(sh.pages) == 0 {
			sh.pages = append(sh.pages, page{})
		}
		if len(sh.pages) == maxPages {
			// 16 TiB of pages in one shard: out of memory by another name.
			panic("memcache: a shard is out of page ids")
		}
		id = uint32(len(sh.pages))
		sh.pages = append(sh.pages, page{})
	}
	sh.pages[id] = page{buf: make([]byte, 0, capacity)}
	sh.usage.resident += int64(capacity)
	return id
}

// evacuate re-appends the live records of page id, which is not the head, to
// the head and drops the page. A record is live if the index still holds
// exactly its reference. The page's buffer is left as it is for whoever
// still holds a value from it.
func (sh *shard) evacuate(id uint32) {
	buf := sh.pages[id].buf
	mask := len(sh.index) - 1
	for off := 0; off < len(buf); {
		rec := readRecord(buf[off:])
		h := maphash.Bytes(sh.seed, rec.key)
		ref := tagOf(h) | uint64(id)<<offBits | uint64(off)
		for i := int(h) & mask; sh.index[i] != 0; i = (i + 1) & mask {
			if sh.index[i] == ref {
				loc, dst := sh.alloc(rec.size)
				copy(dst, buf[off:off+rec.size])
				sh.index[i] = tagOf(h) | loc
				sh.usage.evacuated += int64(rec.size)
				break
			}
		}
		off += rec.size
	}
	sh.usage.resident -= int64(cap(buf))
	sh.usage.dead -= int64(sh.pages[id].dead)
	sh.pages[id] = page{}
	sh.free = append(sh.free, id)
}

// each calls fn with every record the index points at.
func (sh *shard) each(fn func(record)) {
	for _, ref := range sh.index {
		if ref != 0 {
			fn(sh.at(ref))
		}
	}
}
