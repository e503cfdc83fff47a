package memcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/metrics"
)

// checkStore verifies what the log-structured store promises about its own
// shape, from the inside: every index reference resolves to a record that a
// probe for its key reaches, the pages' live bytes are exactly the indexed
// records, no page but the head is more than half dead, free page ids name
// dropped pages, and the published account matches the shards'.
func checkStore(t *testing.T, c *Cache) {
	t.Helper()
	var items int
	var valueBytes, resident, dead int64
	for n, sh := range c.shards {
		var refs, liveBytes, pageBytes int
		for slot, ref := range sh.index {
			if ref == 0 {
				continue
			}
			refs++
			if id := pageOf(ref); id == 0 || int(id) >= len(sh.pages) || sh.pages[id].buf == nil {
				t.Fatalf("shard %d slot %d: reference %#x names page %d, which is not held", n, slot, ref, id)
			}
			rec := sh.at(ref)
			h := maphash.Bytes(sh.seed, rec.key)
			if got, _, ok := sh.find(h, string(rec.key)); !ok || got != slot {
				t.Fatalf("shard %d slot %d holds %q, but a probe for it ends at slot %d (found %v)", n, slot, rec.key, got, ok)
			}
			if c.shards[h>>hashShardShift%uint64(len(c.shards))] != sh {
				t.Fatalf("shard %d holds %q, which hashes to another shard", n, rec.key)
			}
			liveBytes += rec.size
			valueBytes += int64(len(rec.value))
		}
		if refs != sh.count {
			t.Fatalf("shard %d: count = %d, the index holds %d references", n, sh.count, refs)
		}
		if sh.count*4 > len(sh.index)*3 {
			t.Fatalf("shard %d: %d keys in an index of %d", n, sh.count, len(sh.index))
		}
		items += refs
		free := make(map[uint32]bool)
		for _, id := range sh.free {
			if free[id] || sh.pages[id].buf != nil {
				t.Fatalf("shard %d: free page id %d is listed twice or still holds a buffer", n, id)
			}
			free[id] = true
		}
		for id, p := range sh.pages {
			if p.buf == nil {
				if id != 0 && !free[uint32(id)] {
					t.Fatalf("shard %d: page %d is dropped but its id is not free", n, id)
				}
				continue
			}
			if uint32(id) != sh.head && (p.dead*2 > len(p.buf) || len(p.buf) == 0) {
				t.Fatalf("shard %d: page %d is not the head and has %d of %d bytes dead", n, id, p.dead, len(p.buf))
			}
			if cap(p.buf) > pageSize && p.dead != 0 {
				t.Fatalf("shard %d: page %d holds one dead record of %d bytes", n, id, len(p.buf))
			}
			pageBytes += len(p.buf) - p.dead
			resident += int64(cap(p.buf))
			dead += int64(p.dead)
		}
		if pageBytes != liveBytes {
			t.Fatalf("shard %d: pages hold %d bytes that are not dead, the indexed records take %d", n, pageBytes, liveBytes)
		}
		resident += int64(8 * len(sh.index))
		if sh.usage.resident < 0 || sh.usage.dead < 0 {
			t.Fatalf("shard %d: account %+v", n, sh.usage)
		}
	}
	st := c.Stats()
	if st.Items != items || st.Bytes != valueBytes || st.Resident != resident || st.Dead != dead {
		t.Fatalf("Stats = items %d, bytes %d, resident %d, dead %d; the shards hold %d, %d, %d, %d",
			st.Items, st.Bytes, st.Resident, st.Dead, items, valueBytes, resident, dead)
	}
}

// An op program is a byte string: two header bytes (key space; one shard or
// two in the fifth bit, the low four are ignored) and then four bytes per op —
// opcode, a 16-bit key number, an argument. Both
// TestShardAgainstMap (seeded) and FuzzShardOps (fuzzer-driven) run programs
// through runProgram, which compares the cache with a map after every op.
const (
	opPut = iota
	opPutTTL
	opCAS
	opDelete
	opGet
	opTick
	opPutBig
	opBatch
	opPutBatch
	opCount
)

var keySpaces = []int{1, 2, 7, 64, 1000, 4000}

type program []byte

func newProgram(keySpace, shards int) program {
	for i, n := range keySpaces {
		if n == keySpace {
			return program{byte(i), byte((shards - 1) << 4)}
		}
	}
	panic("no such key space")
}

func (p program) op(code, key, arg int) program {
	return append(p, byte(code), byte(key), byte(key>>8), byte(arg))
}

type modelItem struct {
	value   []byte
	version uint64
	expires time.Time
}

// runProgram drives a cache and a map model with the same ops.
// An expired item stays in the model until an op that would evict it from the
// cache touches it, so Len and Stats.Bytes can be compared exactly.
func runProgram(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 2 {
		return
	}
	keySpace := keySpaces[int(data[0])%len(keySpaces)]
	now := time.Unix(1_000_000, 0)
	c := New(Config{Shards: 1 + int(data[1])>>4&1, Now: func() time.Time { return now }})
	model := make(map[string]modelItem)
	name := func(k int) string { return "data/f" + strconv.Itoa(k%keySpace) }
	// live drops key from the model if it has expired, as an op on it does in
	// the cache, and returns what is left.
	live := func(key string) (modelItem, bool) {
		m, ok := model[key]
		if ok && !m.expires.IsZero() && now.After(m.expires) {
			delete(model, key)
			return modelItem{}, false
		}
		return m, ok
	}
	var serial uint32
	payload := func(n int) []byte {
		serial++
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(serial) + byte(i)
		}
		if n >= 4 {
			binary.LittleEndian.PutUint32(v, serial)
		}
		return v
	}
	// put is Put when expected is nil and CAS otherwise.
	put := func(step int, key string, value []byte, ttl time.Duration, expected *uint64) {
		var it Item
		var err error
		if expected == nil {
			it, err = c.Put(key, value, ttl)
		} else {
			it, err = c.CAS(key, value, ttl, *expected)
		}
		cur, ok := live(key)
		switch {
		case expected != nil && cur.version != *expected:
			if !errors.Is(err, ErrVersionConflict) {
				t.Fatalf("op %d: CAS %q at %d over version %d = %v, want a conflict", step, key, *expected, cur.version, err)
			}
			if ok && (it.Key != key || !bytes.Equal(it.Value, cur.value) || it.Version != cur.version) {
				t.Fatalf("op %d: the conflicting item is %+v, want %+v", step, it, cur)
			}
			return
		case err != nil:
			t.Fatalf("op %d: put %q: %v", step, key, err)
		}
		next := modelItem{value: value, version: cur.version + 1}
		if ttl > 0 {
			next.expires = now.Add(ttl)
		}
		if it.Key != key || !bytes.Equal(it.Value, value) || it.Version != next.version || !it.Expires.Equal(next.expires) {
			t.Fatalf("op %d: put %q returned %+v, want %+v", step, key, it, next)
		}
		if cap(it.Value) != len(it.Value) {
			t.Fatalf("op %d: put %q returned a value of length %d with capacity %d", step, key, len(it.Value), cap(it.Value))
		}
		model[key] = next
	}
	get := func(step int, key string, it Item, err error) {
		want, ok := live(key)
		if !ok {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: get of absent %q = %+v, %v", step, key, it, err)
			}
			return
		}
		if err != nil || it.Key != key || !bytes.Equal(it.Value, want.value) || it.Version != want.version || !it.Expires.Equal(want.expires) {
			t.Fatalf("op %d: get %q = %+v, %v; want %+v", step, key, it, err, want)
		}
		if cap(it.Value) != len(it.Value) {
			t.Fatalf("op %d: get %q returned a value of length %d with capacity %d", step, key, len(it.Value), cap(it.Value))
		}
	}

	ops := data[2:]
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		code, k, arg := int(ops[0])%opCount, int(binary.LittleEndian.Uint16(ops[1:])), int(ops[3])
		key := name(k)
		switch code {
		case opPut:
			put(step, key, payload(arg%81), 0, nil)
		case opPutTTL:
			put(step, key, payload(arg%81), time.Duration(1+arg%4)*time.Second, nil)
		case opCAS:
			// Three in four at the version the key has, the rest one behind.
			cur, _ := live(key)
			expected := cur.version
			if arg%4 == 0 && expected > 0 {
				expected--
			}
			put(step, key, payload(arg%81), 0, &expected)
		case opPutBig:
			// One value in eight is larger than a page and two are a few to a
			// page, so that a head retires with room to spare and an evacuation
			// can fill the next; more would make a long program all copying.
			n := arg % 81
			switch arg % 8 {
			case 0:
				n = pageSize + arg
			case 1, 2:
				n = 1000 + 40*arg
			}
			put(step, key, payload(n), 0, nil)
		case opDelete:
			err := c.Delete(key)
			if _, ok := live(key); ok != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
				t.Fatalf("op %d: delete %q = %v, the model has it: %v", step, key, err, ok)
			}
			delete(model, key)
		case opGet:
			it, err := c.Get(key)
			get(step, key, it, err)
		case opTick:
			now = now.Add(time.Duration(arg%3) * time.Second)
		case opBatch:
			// GetBatch of three neighbours, then DeleteBatch of the first two.
			keys := []string{key, name(k + 1), name(k + 2)}
			found, missing, err := c.GetBatch(keys)
			if err != nil || len(found)+len(missing) != len(keys) {
				t.Fatalf("op %d: GetBatch(%q) = %v, %v, %v", step, keys, found, missing, err)
			}
			for _, it := range found {
				get(step, it.Key, it, nil)
			}
			for _, key := range missing {
				get(step, key, Item{}, ErrNotFound)
			}
			want := 0
			for _, key := range dedup(keys[:2]) {
				if _, ok := live(key); ok {
					want++
				}
				delete(model, key)
			}
			if n, err := c.DeleteBatch(keys[:2]); err != nil || n != want {
				t.Fatalf("op %d: DeleteBatch(%q) = %d, %v; the model had %d", step, keys[:2], n, err, want)
			}
		case opPutBatch:
			// Three neighbours in one PutBatch, the second with a TTL.
			kvs := []KV{{Key: key, Value: payload(arg % 81)}, {Key: name(k + 1), Value: payload(arg % 7), TTL: time.Second}, {Key: name(k + 2), Value: payload(80)}}
			items, err := c.PutBatch(kvs)
			if err != nil || len(items) != len(kvs) {
				t.Fatalf("op %d: PutBatch = %v, %v", step, items, err)
			}
			for i, kv := range kvs {
				cur, _ := live(kv.Key)
				next := modelItem{value: kv.Value, version: cur.version + 1}
				if kv.TTL > 0 {
					next.expires = now.Add(kv.TTL)
				}
				if it := items[i]; it.Key != kv.Key || !bytes.Equal(it.Value, kv.Value) || it.Version != next.version || !it.Expires.Equal(next.expires) {
					t.Fatalf("op %d: PutBatch item %d = %+v, want %+v", step, i, it, next)
				}
				model[kv.Key] = next
			}
		}
		if c.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, the model holds %d", step, c.Len(), len(model))
		}
		// The whole-store check reads every record: after every op while the
		// store is small, every 64th once it is not.
		if len(model) <= 64 || step%64 == 0 {
			checkStore(t, c)
		}
	}
	checkStore(t, c)
	snap := c.Snapshot()
	for _, it := range snap {
		want, ok := model[it.Key]
		if !ok || !bytes.Equal(it.Value, want.value) || it.Version != want.version || !it.Expires.Equal(want.expires) {
			t.Fatalf("Snapshot holds %+v, the model %+v (present %v)", it, want, ok)
		}
		delete(model, it.Key)
	}
	for key, m := range model {
		if m.expires.IsZero() || !now.After(m.expires) {
			t.Fatalf("Snapshot lacks %q, which the model holds unexpired", key)
		}
	}
}

func dedup(keys []string) []string {
	if len(keys) == 2 && keys[0] == keys[1] {
		return keys[:1]
	}
	return keys
}

func TestShardAgainstMap(t *testing.T) {
	ops := 6000
	if testing.Short() {
		ops = 1500
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keySpace := keySpaces[int(seed)%len(keySpaces)]
		// max<n> names the item bound the program's header once carried. The
		// cache has none now; the draw stays so each subtest keeps its name
		// and its program.
		bound := 0
		if seed%4 == 0 {
			bound = 1 + rng.Intn(15)
		}
		p := newProgram(keySpace, 1+int(seed)%2)
		for i := 0; i < ops; i++ {
			code := rng.Intn(opCount)
			if code == opPutBig && rng.Intn(4) != 0 {
				code = opPut
			}
			p = p.op(code, rng.Intn(keySpace), rng.Intn(256))
		}
		t.Run(fmt.Sprintf("seed%d/keys%d/max%d", seed, keySpace, bound), func(t *testing.T) { runProgram(t, p) })
	}
}

// shardSeeds are the programs committed as FuzzShardOps' corpus, which plain
// `go test` runs too: each aims at one corner of the store. The index hash is seeded per cache, so which slots
// the keys take differs from process to process; the programs are long enough
// that the corner is met under most seeds, and TestIndexWrapAround and
// TestValueSurvivesEvacuation meet two of them deterministically.
func shardSeeds() []program {
	var seeds []program

	// Overwrite one key until its page has been evacuated twice: 80-byte
	// values fill the doubling pages, each of which retires all dead but for
	// at most the last record.
	p := newProgram(1, 1)
	for i := 0; i < 1200; i++ {
		p = p.op(opPut, 0, 80)
	}
	seeds = append(seeds, p) // seed#0

	// Six keys in the smallest index (eight slots) leave two empty slots, so
	// some probe run wraps past the last slot; delete and reinsert each key
	// in turn, reading all of them in between.
	p = newProgram(7, 1)
	for k := 0; k < 6; k++ {
		p = p.op(opPut, k, 8)
	}
	for round := 0; round < 8; round++ {
		for k := 0; k < 6; k++ {
			p = p.op(opDelete, k, 0).op(opBatch, 0, 0).op(opPut, k, 8+round)
			p = p.op(opPut, 0, 3).op(opPut, 1, 3)
			for g := 0; g < 6; g++ {
				p = p.op(opGet, g, 0)
			}
		}
	}
	seeds = append(seeds, p) // seed#1

	// A value larger than a page: stored, overwritten by another, by a small
	// one, deleted, among small neighbours.
	p = newProgram(7, 1)
	p = p.op(opPut, 1, 40).op(opPutBig, 0, 8).op(opPut, 2, 40).op(opGet, 0, 0)
	p = p.op(opPutBig, 0, 16).op(opGet, 0, 0).op(opPutBig, 3, 64).op(opPut, 0, 5).op(opGet, 0, 0)
	p = p.op(opDelete, 3, 0).op(opGet, 3, 0).op(opGet, 1, 0).op(opGet, 2, 0)
	seeds = append(seeds, p) // seed#2

	// A head that retires more than half dead is evacuated into the next,
	// which then has no room for the record that caused the rotation: 6 KiB
	// live, 6 and 4 KiB dead, then 11 KiB. (Argument 129 is a 6160-byte
	// value, 74 a 3960-byte one, 250 an 11000-byte one.)
	p = newProgram(7, 1)
	for fill := 0; fill < 12; fill++ { // through the doubling pages
		p = p.op(opPutBig, 3, 129)
	}
	p = p.op(opPutBig, 0, 250).op(opPutBig, 0, 129).op(opPutBig, 1, 129).op(opPutBig, 2, 74)
	p = p.op(opPutBig, 1, 3).op(opPutBig, 2, 3).op(opPutBig, 4, 250).op(opGet, 0, 0).op(opGet, 4, 0)
	seeds = append(seeds, p) // seed#3

	// Entries freed by a delete and by an expiry, then their keys taken
	// again: a put and an add-CAS over records whose TTL has passed evict
	// them on the way in.
	p = newProgram(64, 2)
	p = p.op(opPut, 0, 10).op(opPutTTL, 1, 0).op(opPutTTL, 2, 0).op(opPut, 3, 10).op(opCAS, 4, 1)
	p = p.op(opPut, 0, 20).op(opDelete, 0, 0).op(opPut, 3, 10).op(opPut, 0, 10)
	p = p.op(opTick, 0, 2).op(opTick, 0, 2).op(opPut, 1, 10).op(opCAS, 2, 1).op(opGet, 1, 0).op(opGet, 2, 0)
	p = p.op(opDelete, 1, 0).op(opPut, 5, 10).op(opPut, 1, 10)
	seeds = append(seeds, p) // seed#4

	// Index growth amid evacuation: every new key (growing the index as it
	// goes) is followed by overwrites of old ones, which keep pages dying.
	p = newProgram(1000, 2)
	for k := 0; k < 400; k++ {
		p = p.op(opPut, k, 60)
		for j := 0; j < 3; j++ {
			p = p.op(opPut, (k*7+j)%(k+1), 70)
		}
		if k%5 == 0 {
			p = p.op(opDelete, k/2, 0)
		}
	}
	seeds = append(seeds, p) // seed#5
	return seeds
}

func FuzzShardOps(f *testing.F) {
	for _, p := range shardSeeds() {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The corpus programs are a few thousand ops; longer inputs only slow
		// the fuzzer down.
		if len(data) > 2+4*6000 {
			data = data[:2+4*6000]
		}
		runProgram(t, data)
	})
}

// Deleting from a probe run that wraps past the index's last slot shifts the
// right keys back: with the smallest index, find keys whose home is the last
// slot, so the second and third of them live in slots 0 and 1.
func TestIndexWrapAround(t *testing.T) {
	c := New(Config{Shards: 1})
	sh := c.shards[0]
	var last, first []string // keys at home in slot 7, keys at home in slot 0
	for i := 0; len(last) < 3 || len(first) < 1; i++ {
		key := keyName(i)
		switch maphash.String(c.seed, key) & (minIndex - 1) {
		case minIndex - 1:
			last = append(last, key)
		case 0:
			first = append(first, key)
		}
	}
	keys := append(last[:3:3], first[0])
	for _, key := range keys {
		if _, err := c.Put(key, []byte(key), 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(sh.index) != minIndex || sh.index[minIndex-1] == 0 || sh.index[0] == 0 || sh.index[1] == 0 || sh.index[2] == 0 {
		t.Fatalf("index = %x, want slots 7, 0, 1 and 2 taken", sh.index)
	}
	gone := make(map[string]bool)
	for _, key := range []string{last[0], last[2], first[0], last[1]} {
		if err := c.Delete(key); err != nil {
			t.Fatal(err)
		}
		gone[key] = true
		checkStore(t, c)
		for _, key := range keys {
			it, err := c.Get(key)
			if gone[key] != errors.Is(err, ErrNotFound) || (err == nil && string(it.Value) != key) {
				t.Errorf("with %d keys deleted, Get(%q) = %q, %v", len(gone), key, it.Value, err)
			}
		}
		if c.Len() != len(keys)-len(gone) {
			t.Errorf("with %d keys deleted, Len = %d", len(gone), c.Len())
		}
	}
	for _, key := range keys {
		if _, err := c.Put(key, []byte(key), 0); err != nil {
			t.Fatal(err)
		}
		checkStore(t, c)
	}
}

// AUDIT M8: an expired item that has not been evicted yet is as absent to
// Delete and DeleteBatch as it is to Get.
func TestDeleteOfExpiredItemIsNotFound(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(Config{Now: func() time.Time { return now }})
	for _, key := range []string{"a", "b", "live"} {
		ttl := time.Minute
		if key == "live" {
			ttl = 0
		}
		if _, err := c.Put(key, []byte("v"), ttl); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Minute)
	if err := c.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete of an expired item = %v, want ErrNotFound", err)
	}
	if n, err := c.DeleteBatch([]string{"b", "live", "absent"}); err != nil || n != 1 {
		t.Errorf("DeleteBatch of an expired, a live and an absent key = %d, %v; want 1", n, err)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Items != 0 || st.Bytes != 0 || c.Len() != 0 {
		t.Errorf("after deleting two expired items and a live one: %+v, Len %d", st, c.Len())
	}
	checkStore(t, c)
}

const benchValueLen = 38 // geobench's encoded entry

func keyName(i int) string { return fmt.Sprintf("data/f%07d", i) }

// A value read before its key is overwritten — until the page it lies in has
// been evacuated and dropped — is untouched afterwards, ends at its capacity,
// and appending to it leaves the store alone. Pages are never reused; this is
// the test that would catch a pool.
func TestValueSurvivesEvacuation(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Shards: 1, Metrics: reg})
	sh := c.shards[0]
	const keys = 600 // 33 KiB of records: the first 16 KiB page is among them
	value := func(k, version int) []byte {
		return []byte(fmt.Sprintf("%s@%04d:%s", keyName(k), version, bytes.Repeat([]byte{'.'}, 20)))
	}
	for k := 0; k < keys; k++ {
		if _, err := c.Put(keyName(k), value(k, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Hold a value from every page but the head.
	type held struct {
		key   string
		value []byte
		base  *byte
	}
	var holds []held
	for id, p := range sh.pages {
		if p.buf == nil || uint32(id) == sh.head {
			continue
		}
		key := string(readRecord(p.buf).key)
		it, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if cap(it.Value) != len(it.Value) {
			t.Errorf("Get(%q) returned a value of length %d and capacity %d", key, len(it.Value), cap(it.Value))
		}
		holds = append(holds, held{key: key, value: it.Value, base: &p.buf[0]})
	}
	if len(holds) < 4 {
		t.Fatalf("%d keys made %d retired pages, want the doubling ones and a full one", keys, len(holds))
	}
	want := make([][]byte, len(holds))
	for i, h := range holds {
		want[i] = bytes.Clone(h.value)
	}
	stillHeld := func(buf *byte) bool {
		for _, p := range sh.pages {
			if p.buf != nil && &p.buf[:1][0] == buf {
				return true
			}
		}
		return false
	}
	for version := 2; ; version++ {
		for k := 0; k < keys; k++ {
			if _, err := c.Put(keyName(k), value(k, version), 0); err != nil {
				t.Fatal(err)
			}
		}
		checkStore(t, c)
		gone := 0
		for _, h := range holds {
			if !stillHeld(h.base) {
				gone++
			}
		}
		if gone == len(holds) {
			break
		}
		if version > 10 {
			t.Fatalf("after %d rounds of overwrites %d of %d first pages are still held", version, len(holds)-gone, len(holds))
		}
	}
	if got := reg.Counter("memcache_evacuated_bytes_total").Value(); got == 0 {
		t.Error("pages were dropped but memcache_evacuated_bytes_total is 0")
	}
	for i, h := range holds {
		if !bytes.Equal(h.value, want[i]) {
			t.Errorf("the value of %q read before its page was evacuated is now %q, was %q", h.key, h.value, want[i])
		}
		_ = append(h.value, "scribble past the end"...)
	}
	for k := 0; k < keys; k++ {
		it, err := c.Get(keyName(k))
		if err != nil || it.Version < 2 || !bytes.Equal(it.Value, value(k, int(it.Version))) {
			t.Fatalf("after appends to old values, Get(%q) = %q at version %d, %v", keyName(k), it.Value, it.Version, err)
		}
	}
	st := c.Stats()
	if st.Resident != reg.Gauge("memcache_resident_bytes").Value() || st.Dead != reg.Gauge("memcache_dead_bytes").Value() {
		t.Errorf("Stats says resident %d, dead %d; the gauges %d, %d", st.Resident, st.Dead,
			reg.Gauge("memcache_resident_bytes").Value(), reg.Gauge("memcache_dead_bytes").Value())
	}
}

// Readers hold values across evacuations that writers cause: every value read
// decodes to a version its key's writer wrote. Run under -race (ci.yml).
func TestReadersAcrossEvacuation(t *testing.T) {
	const keys, readers, writers = 2000, 8, 2
	reg := metrics.NewRegistry()
	c := New(Config{Shards: 4, Metrics: reg})
	// A value names its key and version and repeats the version at its end,
	// so a torn or rewritten one does not check; it is 200 bytes so that the
	// writers, who get a fifth of the processors, fill pages quickly.
	const valueLen = 200
	encode := func(k int, version uint64) []byte {
		v := make([]byte, valueLen)
		binary.LittleEndian.PutUint64(v, uint64(k))
		binary.LittleEndian.PutUint64(v[8:], version)
		binary.LittleEndian.PutUint64(v[valueLen-8:], version)
		return v
	}
	check := func(it Item) error {
		k, err := strconv.Atoi(it.Key[len("data/f"):])
		if err != nil || len(it.Value) != valueLen {
			return fmt.Errorf("item %q holds %d bytes", it.Key, len(it.Value))
		}
		id, v1, v2 := binary.LittleEndian.Uint64(it.Value), binary.LittleEndian.Uint64(it.Value[8:]), binary.LittleEndian.Uint64(it.Value[valueLen-8:])
		if id != uint64(k) || v1 != v2 || v1 != it.Version {
			return fmt.Errorf("item %q at version %d holds key %d, versions %d and %d", it.Key, it.Version, id, v1, v2)
		}
		return nil
	}
	for k := 0; k < keys; k++ {
		if _, err := c.Put(keyName(k), encode(k, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Each evacuation copies less than half a page, so this many bytes
	// evacuated means more than a hundred evacuations.
	const enough = 100 * pageSize / 2
	evacuated := reg.Counter("memcache_evacuated_bytes_total")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				// A writer owns the keys of its parity, so it knows the
				// version its next put makes.
				k := rng.Intn(keys/writers)*writers + w
				key := keyName(k)
				if rng.Intn(8) == 0 {
					if err := c.Delete(key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Delete(%q): %v", key, err)
					}
					continue
				}
				var next uint64 = 1
				if it, err := c.Get(key); err == nil {
					next = it.Version + 1
				}
				if it, err := c.CAS(key, encode(k, next), 0, next-1); err != nil || check(it) != nil {
					t.Errorf("CAS(%q) to version %d = %v, %v", key, next, err, check(it))
					return
				}
			}
		}(w)
	}
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var kept []Item // values held across later writes
			for !stop.Load() {
				var got []Item
				switch n := rng.Intn(64); {
				case n == 0:
					got = c.Snapshot()
				case n < 16:
					batch := make([]string, 16)
					for i := range batch {
						batch[i] = keyName(rng.Intn(keys))
					}
					found, _, err := c.GetBatch(batch)
					if err != nil {
						t.Errorf("GetBatch: %v", err)
						return
					}
					got = found
				default:
					if it, err := c.Get(keyName(rng.Intn(keys))); err == nil {
						got = []Item{it}
					}
				}
				if len(got) > 0 {
					kept = append(kept, got[rng.Intn(len(got))])
				}
				if len(kept) > 256 {
					got, kept = append(got, kept...), kept[:0]
				}
				for _, it := range got {
					if err := check(it); err != nil {
						t.Error(err)
						return
					}
				}
				reads.Add(int64(len(got)))
			}
		}(r)
	}
	deadline := time.Now().Add(30 * time.Second)
	for evacuated.Value() < enough && time.Now().Before(deadline) && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if evacuated.Value() < enough {
		t.Errorf("evacuated %d bytes in 30 s, want %d", evacuated.Value(), enough)
	}
	if reads.Load() == 0 {
		t.Error("the readers read nothing")
	}
	checkStore(t, c)
}

// What a resident entry costs, by the heap: 200k of geobench's entries (a
// 13-byte key, a 38-byte value) through Put. 147.9 bytes each with a map
// of slots; the packed record is 55 and its index slot 8, at a load between
// 3/8 and 3/4.
func TestResidentBytesPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("stores 200k entries")
	}
	const entries, bound = 200_000, 96
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	value := make([]byte, benchValueLen)
	var key []byte // the key strings made from it are garbage by the time the heap is read
	fill := func(c *Cache) {
		for i := 0; i < entries; i++ {
			key = fmt.Appendf(key[:0], "data/f%07d", i)
			binary.LittleEndian.PutUint32(value, uint32(i))
			if _, err := c.Put(string(key), value, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := heap()
	c := New(Config{})
	fill(c)
	perEntry := float64(int64(heap())-int64(before)) / entries
	st := c.Stats()
	t.Logf("%.1f heap bytes per entry; resident %.1f, dead %.1f", perEntry, float64(st.Resident)/entries, float64(st.Dead)/entries)
	if perEntry > bound {
		t.Errorf("a resident entry costs %.1f heap bytes, want at most %d", perEntry, bound)
	}
	for round := 0; round < 3; round++ {
		fill(c)
	}
	perEntry = float64(int64(heap())-int64(before)) / entries
	st = c.Stats()
	t.Logf("after three overwrites of every key: %.1f heap bytes per entry; resident %.1f, dead %.1f", perEntry, float64(st.Resident)/entries, float64(st.Dead)/entries)
	if perEntry > 2*bound {
		t.Errorf("after three overwrites of every key an entry costs %.1f heap bytes, want at most %d", perEntry, 2*bound)
	}
	if c.Len() != entries {
		t.Errorf("Len = %d", c.Len())
	}
	runtime.KeepAlive(c)
}

// Get allocates nothing, and neither does a Put into a warm cache but for
// the page it starts every few hundred records.
func TestCacheAllocations(t *testing.T) {
	c := New(Config{})
	keys := make([]string, 1024)
	value := make([]byte, benchValueLen)
	for i := range keys {
		keys[i] = keyName(i)
		if _, err := c.Put(keys[i], value, 0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		c.Get(keys[i%len(keys)]) //nolint:errcheck // counted, not checked
		i++
	}); allocs != 0 {
		t.Errorf("Get cost %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(2000, func() {
		c.Put(keys[i%len(keys)], value, 0) //nolint:errcheck // counted, not checked
		i++
	}); allocs > 0.1 {
		t.Errorf("Put on a warm cache cost %v allocations, want at most 0.1", allocs)
	}
}

// The in-package rungs of the ladder (benchmark/ladder.go's memcache.get_ns
// and memcache.put_ns time the same calls from outside): geobench's key and
// its 38-byte value.
func BenchmarkCacheGet(b *testing.B) {
	c, keys, _ := benchCache(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachePutOverwrite(b *testing.B) {
	c, keys, value := benchCache(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(keys[i%len(keys)], value, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Every put is of a key the cache has not seen: index growth and page
// allocation included. The cache is replaced when the keys run out.
func BenchmarkCachePutFresh(b *testing.B) {
	c, keys, value := benchCache(0)
	for i := 0; i < 1<<18; i++ {
		keys = append(keys, keyName(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 && i > 0 {
			b.StopTimer()
			c = New(Config{})
			b.StartTimer()
		}
		if _, err := c.Put(keys[i%len(keys)], value, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCache(n int) (*Cache, []string, []byte) {
	c := New(Config{})
	keys := make([]string, n)
	value := make([]byte, benchValueLen)
	for i := range keys {
		keys[i] = keyName(i)
		c.Put(keys[i], value, 0) //nolint:errcheck // no capacity bound, not stopped
	}
	return c, keys, value
}
