package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func newTestCache() *Cache {
	return New(Config{Shards: 4})
}

func TestPutGet(t *testing.T) {
	c := newTestCache()
	it, err := c.Put("file1", []byte("loc:siteA"), 0)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if it.Version != 1 {
		t.Errorf("first Put version = %d, want 1", it.Version)
	}
	got, err := c.Get("file1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Value) != "loc:siteA" {
		t.Errorf("value = %q", got.Value)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestGetMissing(t *testing.T) {
	c := newTestCache()
	_, err := c.Get("absent")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestPutOverwritesAndBumpsVersion(t *testing.T) {
	c := newTestCache()
	c.Put("k", []byte("v1"), 0)
	it, _ := c.Put("k", []byte("v2"), 0)
	if it.Version != 2 {
		t.Errorf("version = %d, want 2", it.Version)
	}
	got, _ := c.Get("k")
	if string(got.Value) != "v2" {
		t.Errorf("value = %q, want v2", got.Value)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCASAddSemantics(t *testing.T) {
	c := newTestCache()
	// expectedVersion 0 == "key must not exist".
	if _, err := c.CAS("k", []byte("v1"), 0, 0); err != nil {
		t.Fatalf("CAS add: %v", err)
	}
	_, err := c.CAS("k", []byte("v2"), 0, 0)
	if !errors.Is(err, ErrVersionConflict) {
		t.Errorf("CAS add on existing = %v, want ErrVersionConflict", err)
	}
}

func TestCASVersionedUpdate(t *testing.T) {
	c := newTestCache()
	it, _ := c.Put("k", []byte("v1"), 0)
	if _, err := c.CAS("k", []byte("v2"), 0, it.Version); err != nil {
		t.Fatalf("CAS with matching version: %v", err)
	}
	_, err := c.CAS("k", []byte("v3"), 0, it.Version)
	if !errors.Is(err, ErrVersionConflict) {
		t.Errorf("CAS with stale version = %v, want ErrVersionConflict", err)
	}
	if c.Stats().Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", c.Stats().Conflicts)
	}
}

func TestDelete(t *testing.T) {
	c := newTestCache()
	c.Put("k", []byte("v"), 0)
	if err := c.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if c.Contains("k") {
		t.Error("key still present after delete")
	}
	if err := c.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete = %v, want ErrNotFound", err)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

func TestStop(t *testing.T) {
	c := newTestCache()
	c.Put("k", []byte("v"), 0)
	c.Stop()
	if _, err := c.Get("k"); !errors.Is(err, ErrStopped) {
		t.Errorf("Get after stop = %v, want ErrStopped", err)
	}
	if _, err := c.Put("k", nil, 0); !errors.Is(err, ErrStopped) {
		t.Errorf("Put after stop = %v, want ErrStopped", err)
	}
	if err := c.Delete("k"); !errors.Is(err, ErrStopped) {
		t.Errorf("Delete after stop = %v, want ErrStopped", err)
	}
	if _, err := c.CAS("k", nil, 0, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("CAS after stop = %v, want ErrStopped", err)
	}
	if _, _, err := c.GetBatch([]string{"k"}); !errors.Is(err, ErrStopped) {
		t.Errorf("GetBatch after stop = %v, want ErrStopped", err)
	}
	if _, err := c.PutBatch([]KV{{Key: "k"}}); !errors.Is(err, ErrStopped) {
		t.Errorf("PutBatch after stop = %v, want ErrStopped", err)
	}
	if _, err := c.DeleteBatch([]string{"k"}); !errors.Is(err, ErrStopped) {
		t.Errorf("DeleteBatch after stop = %v, want ErrStopped", err)
	}
	if !c.Contains("k") || c.Len() != 1 {
		t.Error("the item is gone after stop; Contains and Len still see the cache")
	}
}

// commitEvent is one OnCommit invocation.
type commitEvent struct {
	key, value    string
	deleted, bulk bool
}

// TestOnCommitSeesEachChangeOnce: the observer sees every stored value,
// every successful CAS and every delete of a present key once, in apply
// order, with bulk set for the batch calls only; a conflict, an absent
// delete and a stopped cache report nothing, and nil removes the observer.
func TestOnCommitSeesEachChangeOnce(t *testing.T) {
	c := newTestCache()
	var got []commitEvent
	var seen []byte
	c.OnCommit(func(key string, value []byte, deleted, bulk bool) {
		got = append(got, commitEvent{key, string(value), deleted, bulk})
		seen = value
	})
	value := []byte("1")
	it, _ := c.Put("a", value, 0)
	if &seen[0] != &value[0] {
		t.Error("the observer was not handed the caller's value slice")
	}
	c.CAS("a", []byte("2"), 0, it.Version)                   //nolint:errcheck // observed
	c.CAS("a", []byte("x"), 0, it.Version)                   //nolint:errcheck // a conflict
	c.CAS("b", []byte("3"), 0, 0)                            //nolint:errcheck // observed
	c.Delete("ghost")                                        //nolint:errcheck // absent
	c.PutBatch([]KV{{"c", []byte("4")}, {"a", []byte("5")}}) //nolint:errcheck // observed
	c.Delete("b")                                            //nolint:errcheck // observed
	c.DeleteBatch([]string{"ghost", "c"})                    //nolint:errcheck // c observed
	c.OnCommit(nil)
	c.Put("quiet", nil, 0) //nolint:errcheck // no observer
	c.OnCommit(func(key string, value []byte, deleted, bulk bool) {
		got = append(got, commitEvent{key, string(value), deleted, bulk})
	})
	c.Stop()
	c.Put("late", nil, 0)           //nolint:errcheck // stopped
	c.DeleteBatch([]string{"a"})    //nolint:errcheck // stopped
	c.PutBatch([]KV{{Key: "late"}}) //nolint:errcheck // stopped

	want := []commitEvent{
		{"a", "1", false, false},
		{"a", "2", false, false},
		{"b", "3", false, false},
		{"c", "4", false, true},
		{"a", "5", false, true},
		{"b", "", true, false},
		{"c", "", true, true},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("observer saw\n  %v\nwant\n  %v", got, want)
	}
}

func TestKeysAndSnapshot(t *testing.T) {
	c := newTestCache()
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, 0)
	}
	snap := c.Snapshot()
	if len(snap) != 10 {
		t.Errorf("Snapshot len = %d, want 10", len(snap))
	}
	seen := make(map[string]bool)
	for _, it := range snap {
		seen[it.Key] = true
	}
	for i := 0; i < 10; i++ {
		if !seen[fmt.Sprintf("k%d", i)] {
			t.Errorf("snapshot missing k%d", i)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	c := newTestCache()
	c.Put("a", []byte("12345"), 0)
	c.Get("a")
	c.Get("missing")
	c.CAS("b", []byte("x"), 0, 0)
	c.Delete("a")
	s := c.Stats()
	if s.Puts != 1 || s.Gets != 2 || s.Hits != 1 || s.Misses != 1 || s.CASes != 1 || s.Deletes != 1 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if s.Items != 1 {
		t.Errorf("Items = %d, want 1", s.Items)
	}
	if s.Bytes != 1 {
		t.Errorf("Bytes = %d, want 1", s.Bytes)
	}
}

func TestValueIsCopied(t *testing.T) {
	c := newTestCache()
	buf := []byte("original")
	c.Put("k", buf, 0)
	buf[0] = 'X'
	got, _ := c.Get("k")
	if string(got.Value) != "original" {
		t.Errorf("stored value aliased the caller's buffer: %q", got.Value)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if _, err := c.Put(key, []byte(key), 0); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := c.Get(key); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", c.Len(), 8*200)
	}
}

func TestConcurrentCASOnlyOneWins(t *testing.T) {
	c := newTestCache()
	const writers = 16
	var mu sync.Mutex
	winners := 0
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.CAS("contended", []byte{byte(i)}, 0, 0); err == nil {
				mu.Lock()
				winners++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if winners != 1 {
		t.Errorf("winners = %d, want exactly 1", winners)
	}
}

// Property: after any sequence of Put operations on distinct keys, Len equals
// the number of distinct keys and every key is retrievable.
func TestPutGetProperty(t *testing.T) {
	f := func(keys []string) bool {
		c := newTestCache()
		distinct := make(map[string]bool)
		for _, k := range keys {
			if k == "" {
				continue
			}
			distinct[k] = true
			if _, err := c.Put(k, []byte(k), 0); err != nil {
				return false
			}
		}
		if c.Len() != len(distinct) {
			return false
		}
		for k := range distinct {
			it, err := c.Get(k)
			if err != nil || string(it.Value) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: versions grow strictly monotonically under repeated Put on the
// same key.
func TestVersionMonotonicityProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		c := newTestCache()
		var last uint64
		for i := 0; i < n; i++ {
			it, err := c.Put("k", []byte{byte(i)}, 0)
			if err != nil || it.Version != last+1 {
				return false
			}
			last = it.Version
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every way out of the cache rebuilds the same Item from the slot: key, value
// and version.
func TestItemIsRebuiltOnTheWayOut(t *testing.T) {
	c := newTestCache()
	put, err := c.Put("k", []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("other", []byte("w"), 0); err != nil {
		t.Fatal(err)
	}
	want := Item{Key: "k", Value: []byte("v"), Version: 1}
	same := func(what string, got Item) {
		t.Helper()
		if got.Key != want.Key || string(got.Value) != string(want.Value) || got.Version != want.Version {
			t.Errorf("%s = %+v, want %+v", what, got, want)
		}
	}
	same("Put", put)
	got, err := c.Get("k")
	same("Get", got)
	if err != nil {
		t.Fatal(err)
	}
	found, missing, err := c.GetBatch([]string{"k", "absent"})
	if err != nil || len(found) != 1 || len(missing) != 1 {
		t.Fatalf("GetBatch = %v, %v, %v", found, missing, err)
	}
	same("GetBatch", found[0])
	held, err := c.CAS("k", []byte("x"), 0, 7)
	if !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("CAS at a stale version = %v", err)
	}
	same("the item a CAS conflict returns", held)
	if held, err := c.CAS("absent", []byte("x"), 0, 7); !errors.Is(err, ErrVersionConflict) || held.Key != "" || held.Version != 0 {
		t.Errorf("CAS of an absent key at version 7 = %+v, %v; want the zero Item and a conflict", held, err)
	}
	for _, it := range c.Snapshot() {
		switch it.Key {
		case "k":
			same("Snapshot", it)
		case "other":
		default:
			t.Errorf("Snapshot holds %q", it.Key)
		}
	}
}

// The cache retains nothing of the caller's: the key may be a slice of a much
// larger string (a decoded entry's Name shares one buffer with its other
// strings) and the value a buffer the caller reuses, so both are copied into
// a page — on an insert and on an overwrite.
func TestSlotSizeAndOwnedKey(t *testing.T) {
	backing := bytes.Repeat([]byte("x"), 1<<16)
	copy(backing[len(backing)-3:], "key")
	big := unsafe.String(&backing[0], len(backing))
	key := big[len(big)-3:]
	value := []byte("value")
	c := newTestCache()
	for version := uint64(1); version <= 2; version++ {
		copy(backing[len(backing)-3:], "key")
		copy(value, "value")
		put, err := c.Put(key, value, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Scribble over the memory the key string and the value share with
		// the caller.
		copy(backing[len(backing)-3:], "???")
		copy(value, "?????")
		if string(put.Value) != "value" || put.Version != version {
			t.Errorf("Put %d returned %q at version %d", version, put.Value, put.Version)
		}
		got, err := c.Get("key")
		if err != nil || string(got.Value) != "value" || got.Version != version {
			t.Errorf("after put %d and a scribble, Get = %q at version %d, %v", version, got.Value, got.Version, err)
		}
		if snap := c.Snapshot(); len(snap) != 1 || snap[0].Key != "key" || string(snap[0].Value) != "value" {
			t.Errorf("after put %d and a scribble, Snapshot = %+v", version, snap)
		}
	}
}
