package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// Every data-plane call is charged one service time, a batch of n items
// serviceTime·(1+n/16); the control-plane reads are not charged at all.
func TestCapacityStoreServiceTime(t *testing.T) {
	const st = 16 * time.Millisecond
	var slept []time.Duration
	s := CapacityStore(memcache.New(memcache.Config{}), st, 0, func(d time.Duration) { slept = append(slept, d) }, nil)

	s.Put("a", []byte("1"), 0)
	s.CAS("b", []byte("2"), 0, 0)
	s.Get("a")
	s.Delete("b")
	kvs := make([]memcache.KV, 32)
	for i := range kvs {
		kvs[i] = memcache.KV{Key: fmt.Sprintf("k%d", i)}
	}
	s.PutBatch(kvs)
	s.GetBatch([]string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"})
	s.DeleteBatch([]string{"k0", "k1", "k2", "k3"})
	want := []time.Duration{st, st, st, st, st + 2*st, st + st/2, st + st/4}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}

	s.Keys()
	s.Snapshot()
	s.Contains("a")
	if n := s.Len(); n != 29 {
		t.Errorf("Len = %d, want 29", n)
	}
	if len(slept) != len(want) {
		t.Errorf("the control-plane reads slept %v", slept[len(want):])
	}
}

// Without a service time or a bound there is nothing to model: the store is
// handed back as it is.
func TestCapacityStoreZeroIsTheStore(t *testing.T) {
	c := memcache.New(memcache.Config{})
	if got := CapacityStore(c, 0, 0, nil, metrics.NewRegistry()); got != registry.Store(c) {
		t.Errorf("CapacityStore(c, 0, 0) = %T, want c itself", got)
	}
}

// gatedStore holds every Put until the test opens the gate, and records the
// most calls that were ever inside it at once.
type gatedStore struct {
	registry.Store
	gate, entered chan struct{}
	inside, peak  atomic.Int32
}

func (g *gatedStore) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	n := g.inside.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.entered <- struct{}{}
	<-g.gate
	g.inside.Add(-1)
	return g.Store.Put(key, value, ttl)
}

// No more than concurrency calls are ever inside the store, each call's wait
// for a slot is observed, and the control-plane reads take no slot.
func TestCapacityStoreBoundsConcurrency(t *testing.T) {
	const bound, callers = 2, 6
	reg := metrics.NewRegistry()
	g := &gatedStore{Store: memcache.New(memcache.Config{}), gate: make(chan struct{}), entered: make(chan struct{}, callers)}
	s := CapacityStore(g, 0, bound, nil, reg)

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Put(fmt.Sprintf("k%d", i), nil, 0)
		}(i)
	}
	for i := 0; i < bound; i++ {
		<-g.entered
	}
	select {
	case <-g.entered:
		t.Fatalf("a call entered the store past the bound of %d", bound)
	case <-time.After(20 * time.Millisecond):
	}

	read := make(chan struct{})
	go func() {
		s.Keys()
		s.Snapshot()
		s.Contains("k0")
		s.Len()
		close(read)
	}()
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("the control-plane reads waited for a worker slot")
	}

	close(g.gate)
	wg.Wait()
	if peak := g.peak.Load(); peak != bound {
		t.Errorf("at most %d calls were inside the store at once, want %d", peak, bound)
	}
	if n := reg.Histogram("memcache_slot_wait_ns").Count(); n != callers {
		t.Errorf("memcache_slot_wait_ns has %d observations, want %d", n, callers)
	}
}
