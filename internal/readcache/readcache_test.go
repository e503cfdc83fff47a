package readcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

var ctx = context.Background()

// countingAPI wraps a registry.API and counts the operations that actually
// reach it, so tests can assert which reads the cache absorbed. getGate,
// when non-nil, is received from at the top of every Get — the fence tests
// use it to hold a fill mid-flight — and gateReached, when non-nil, is sent
// to as each Get arrives there.
type countingAPI struct {
	registry.API
	gets        atomic.Int64
	getGate     chan struct{}
	gateReached chan struct{}
	// held, when set, is taken by the next Get or GetMany to read the
	// origin: it holds that call's answer (see heldRead).
	held atomic.Pointer[heldRead]
}

// heldRead holds one origin call after it has read: reached is closed once
// the answer is in hand, and the call returns it on a receive from release.
type heldRead struct{ reached, release chan struct{} }

func (a *countingAPI) afterRead() {
	if h := a.held.Swap(nil); h != nil {
		close(h.reached)
		<-h.release
	}
}

func (a *countingAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	if a.getGate != nil {
		if a.gateReached != nil {
			a.gateReached <- struct{}{}
		}
		<-a.getGate
	}
	a.gets.Add(1)
	e, err := a.API.Get(ctx, name)
	a.afterRead()
	return e, err
}

func (a *countingAPI) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	a.gets.Add(int64(len(names)))
	es, err := a.API.GetMany(ctx, names)
	a.afterRead()
	return es, err
}

// newFedInstance builds a feeding in-process instance plus its feed source.
func newFedInstance(t *testing.T, site cloud.SiteID) (*registry.Instance, feed.Source) {
	t.Helper()
	inst := registry.NewInstance(site, memcache.New(memcache.Config{}), registry.WithChangeFeed())
	t.Cleanup(func() { _ = inst.Close() })
	return inst, feed.Source{
		Name: "origin",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			return inst.ChangeFeed().Subscribe(from)
		},
		Snapshot: inst.FeedSnapshot,
	}
}

func entry(name string, size int64) registry.Entry {
	return registry.NewEntry(name, size, "test", registry.Location{Site: 1, Node: 1})
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// attach wires the cache to the source and waits until the subscription is
// live (the cache serves through until then).
func attach(t *testing.T, c *Cache, src feed.Source) {
	t.Helper()
	actx, cancel := context.WithCancel(ctx)
	t.Cleanup(cancel)
	c.AttachFeed(actx, []feed.Source{src})
	t.Cleanup(func() { _ = c.Close() })
	waitFor(t, "feed subscription", func() bool { return !c.serveThrough() })
}

func TestGetCachesAndServesLocally(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("a", 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Get(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}
	// The put's own feed event may invalidate the first fill; after the
	// feed quiesces every further Get must be local.
	before := origin.gets.Load()
	for i := 0; i < 10; i++ {
		if _, err := c.Get(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.gets.Load() - before; got > 1 {
		t.Fatalf("%d Gets reached the origin; want at most 1 (cache should absorb them)", got)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("no hits recorded: %+v", st)
	}
}

// TestZipfianMixHalvesOriginGets is the near cache's acceptance bar, counted
// rather than timed: a seeded Zipfian mix over 1,024 keys with 1% writes,
// through a feed-coherent cache, sends the origin at most half the Gets it
// receives without one. Behind a capacity-bound origin, throughput follows
// the calls that reach it.
func TestZipfianMixHalvesOriginGets(t *testing.T) {
	const keys, ops = 1024, 8192
	originGets := func(cached bool) int64 {
		inst, src := newFedInstance(t, 1)
		preload := make([]registry.Entry, keys)
		for i := range preload {
			preload[i] = entry(fmt.Sprintf("zipf/%d", i), 4096)
		}
		if _, err := inst.PutMany(ctx, preload); err != nil {
			t.Fatal(err)
		}
		origin := &countingAPI{API: inst}
		var api registry.API = origin
		if cached {
			c := New(origin, Options{Capacity: 2 * keys})
			attach(t, c, src)
			api = c
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.1, 1, keys-1)
		for i := 0; i < ops; i++ {
			name := fmt.Sprintf("zipf/%d", zipf.Uint64())
			var err error
			if i%100 == 0 {
				_, err = api.AddLocation(ctx, name, registry.Location{Site: 1, Node: cloud.NodeID(i % 16)})
			} else {
				_, err = api.Get(ctx, name)
			}
			if err != nil {
				t.Fatalf("op %d on %s: %v", i, name, err)
			}
		}
		return origin.gets.Load()
	}
	without, with := originGets(false), originGets(true)
	t.Logf("origin Gets: %d without the cache, %d through it", without, with)
	if 2*with > without {
		t.Fatalf("the origin served %d Gets through the cache and %d without it; want at most half", with, without)
	}
}

func TestNegativeCaching(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	for i := 0; i < 5; i++ {
		if _, err := c.Get(ctx, "ghost"); !errors.Is(err, registry.ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin Gets for a repeated not-found; want 1", got)
	}
}

// TestFillDoesNotOverwriteInvalidation pins the fencing protocol: a fill
// that started before an invalidation event must not install its (stale)
// result after the event was applied.
func TestFillDoesNotOverwriteInvalidation(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst, getGate: make(chan struct{}, 16), gateReached: make(chan struct{}, 16)}
	c := New(origin, Options{})
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "put event applied", func() bool { return c.Stats().Invalidations+int64(c.CachedLen()) > 0 })

	// Start a fill and hold it at the origin.
	fillDone := make(chan registry.Entry, 1)
	go func() {
		e, err := c.Get(ctx, "k")
		if err != nil {
			t.Error(err)
		}
		fillDone <- e
	}()
	// Let the fill record its fence and block in origin.Get.
	<-origin.gateReached

	// A newer write lands at the origin; its event invalidates "k".
	inv := c.Stats().Invalidations
	if _, err := inst.Put(ctx, entry("k", 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "invalidation applied", func() bool {
		st := c.Stats()
		return st.Invalidations > inv || func() bool {
			e, _, ok := c.lookup("k")
			return ok && e.Size == 2
		}()
	})

	// Release the held fill: its result (read either before or after the
	// write — both are possible) must not mask the newer value.
	close(origin.getGate)
	<-fillDone

	e, err := c.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 2 {
		t.Fatalf("stale entry served after invalidation: size %d, want 2", e.Size)
	}
}

// TestFillAfterStaleReadIsFenced closes the gap the test above leaves open:
// there the held fill has not read yet, so it always reads the newer value.
// Here the origin has answered with the old entry before the write lands, and
// the fill installs only after the write's event was applied; the fence must
// reject it. Each case runs through Get and GetMany, for a key the cache has
// never held and for one it holds (installed by a second fill) when the event
// arrives. The write goes behind the cache's back, so the event is the only
// invalidation.
func TestFillAfterStaleReadIsFenced(t *testing.T) {
	for _, tc := range []struct {
		name string
		bulk bool
		held bool
	}{
		{"Get/never held", false, false},
		{"Get/held", false, true},
		{"GetMany/never held", true, false},
		{"GetMany/held", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, src := newFedInstance(t, 1)
			origin := &countingAPI{API: inst}
			c := New(origin, Options{})
			attach(t, c, src)

			if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "put event applied", func() bool { return c.Stats().Invalidations == 1 })

			h := &heldRead{reached: make(chan struct{}), release: make(chan struct{})}
			origin.held.Store(h)
			defer close(h.release)
			fillDone := make(chan error, 1)
			go func() {
				var err error
				if tc.bulk {
					_, err = c.GetMany(ctx, []string{"k"})
				} else {
					_, err = c.Get(ctx, "k")
				}
				fillDone <- err
			}()
			<-h.reached // the fill holds the origin's answer: size 1

			if tc.held {
				if e, err := c.Get(ctx, "k"); err != nil || e.Size != 1 {
					t.Fatalf("second fill = %v, %v; want size 1", e, err)
				}
				if _, _, ok := c.lookup("k"); !ok {
					t.Fatal("the second fill was not installed")
				}
			}

			inv := c.Stats().Invalidations
			if _, err := inst.Put(ctx, entry("k", 2)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "invalidation applied", func() bool { return c.Stats().Invalidations > inv })

			h.release <- struct{}{} // the held fill installs now, if the fence lets it
			if err := <-fillDone; err != nil {
				t.Fatal(err)
			}
			e, err := c.Get(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			if e.Size != 2 {
				t.Fatalf("stale entry served after invalidation: size %d, want 2", e.Size)
			}
		})
	}
}

// TestFenceRaceUnderLoad hammers one key with concurrent fills, writes and
// event-driven invalidations; at every quiescent point the cache must agree
// with the origin. Run with -race; the nightly chaos loop runs it -count=20.
func TestFenceRaceUnderLoad(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)

	const (
		writers = 4
		readers = 8
		rounds  = 200
	)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 1; i <= rounds; i++ {
				if _, err := c.Put(ctx, entry(fmt.Sprintf("hot/%d", w%2), int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Get(ctx, fmt.Sprintf("hot/%d", r%2))
				if err != nil && !errors.Is(err, registry.ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	// Quiesce: drain the feed, then the cache must agree with the origin.
	head, err := inst.FeedBarrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "feed drained", func() bool { return c.combiner.Cursor("origin") >= head })
	for k := 0; k < 2; k++ {
		name := fmt.Sprintf("hot/%d", k)
		want, err := inst.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != want.Size {
			t.Fatalf("%s: cache size %d, origin size %d", name, got.Size, want.Size)
		}
	}
}

// TestDeleteEventPurgesPositiveAndNegative pins the issue's requirement:
// a deletion event must purge both entry kinds.
func TestDeleteEventPurgesPositiveAndNegative(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	// Positive entry cached, then deleted behind the cache's back (directly
	// on the instance, so only the event can tell the cache).
	if _, err := inst.Put(ctx, entry("pos", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "pos"); err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(ctx, "pos"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delete event", func() bool {
		_, err := c.Get(ctx, "pos")
		return errors.Is(err, registry.ErrNotFound)
	})

	// Negative entry cached, then the name appears: the put event must
	// purge the remembered not-found.
	if _, err := c.Get(ctx, "neg"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatal("want not-found")
	}
	if _, err := inst.Put(ctx, entry("neg", 7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "put event purging the negative entry", func() bool {
		e, err := c.Get(ctx, "neg")
		return err == nil && e.Size == 7
	})
}

func TestWriteThroughInvalidation(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)

	if _, err := c.Put(ctx, entry("w", 1)); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "w"); err != nil || e.Size != 1 {
		t.Fatalf("read-your-write failed: %v %v", e, err)
	}
	if _, err := c.Put(ctx, entry("w", 2)); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "w"); err != nil || e.Size != 2 {
		t.Fatalf("read-your-write after overwrite failed: %v %v", e, err)
	}
	if err := c.Delete(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "w"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("read-your-delete failed: %v", err)
	}
	// Bulk write-through.
	if _, err := c.PutMany(ctx, []registry.Entry{entry("w", 3), entry("x", 1)}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "w"); err != nil || e.Size != 3 {
		t.Fatalf("read-your-PutMany failed: %v %v", e, err)
	}
	if _, err := c.DeleteMany(ctx, []string{"w", "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "x"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatal("read-your-DeleteMany failed")
	}
	if _, err := c.Merge(ctx, []registry.Entry{entry("m", 5)}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "m"); err != nil || e.Size != 5 {
		t.Fatalf("read-your-Merge failed: %v %v", e, err)
	}
	if _, err := c.Create(ctx, entry("c", 9)); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "c"); err != nil || e.Size != 9 {
		t.Fatalf("read-your-Create failed: %v %v", e, err)
	}
	if _, err := c.AddLocation(ctx, "c", registry.Location{Site: 2, Node: 3}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "c"); err != nil || len(e.Locations) != 2 {
		t.Fatalf("read-your-AddLocation failed: %v %v", e, err)
	}
}

// droppableStream is a feed.Stream the test ends on demand, simulating a
// lag drop (or compaction, shard restart, transport loss — the cache cannot
// tell and must not care).
type droppableStream struct {
	ch  chan feed.Event
	err error
}

func (s *droppableStream) Events() <-chan feed.Event { return s.ch }
func (s *droppableStream) Err() error                { return s.err }
func (s *droppableStream) Close()                    {}

// TestLagFlushesAndServesThrough pins the staleness contract: the moment the
// feed stream ends (lag drop here), the cache must flush and serve through;
// once resubscribed it caches again.
func TestLagFlushesAndServesThrough(t *testing.T) {
	inst := registry.NewInstance(1, memcache.New(memcache.Config{}))
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})

	var (
		mu      sync.Mutex
		stream  = &droppableStream{ch: make(chan feed.Event)}
		allowed = true
	)
	src := feed.Source{
		Name: "origin",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			mu.Lock()
			defer mu.Unlock()
			if !allowed {
				return nil, errors.New("subscribe refused")
			}
			stream = &droppableStream{ch: make(chan feed.Event)}
			return stream, nil
		},
	}
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin gets priming the cache; want 1", got)
	}

	// Drop the stream with resubscription refused: the cache must flush and
	// serve every read through while the gap is open.
	mu.Lock()
	allowed = false
	flushes := c.Stats().Flushes
	close(stream.ch)
	stream.err = feed.ErrLagged
	mu.Unlock()
	waitFor(t, "lag-induced flush", func() bool { return c.Stats().Flushes > flushes })
	waitFor(t, "serve-through state", func() bool { return c.serveThrough() })
	before := origin.gets.Load()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.gets.Load() - before; got != 3 {
		t.Fatalf("%d origin gets while degraded; want 3 (no caching)", got)
	}

	// Allow the resubscribe: the cache must start filling again.
	mu.Lock()
	allowed = true
	mu.Unlock()
	waitFor(t, "resubscribe", func() bool { return !c.serveThrough() })
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	before = origin.gets.Load()
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if origin.gets.Load() != before {
		t.Fatal("Get reached the origin after resubscription; want a cache hit")
	}
}

func TestFeedlessTTLFallback(t *testing.T) {
	inst := registry.NewInstance(1, memcache.New(memcache.Config{}))
	origin := &countingAPI{API: inst}
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c := New(origin, Options{Now: clock})

	if _, err := inst.Put(ctx, entry("t", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin gets before TTL expiry; want 1", got)
	}
	// Cross the default max-staleness bound: the entry must be refetched.
	mu.Lock()
	now = now.Add(DefaultMaxStaleness + time.Millisecond)
	mu.Unlock()
	if _, err := c.Get(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 2 {
		t.Fatalf("%d origin gets after TTL expiry; want 2 (refetch)", got)
	}
}

func TestLRUEvictionBoundsOccupancy(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{Capacity: 32})
	attach(t, c, src)

	for i := 0; i < 256; i++ {
		if _, err := inst.Put(ctx, entry(fmt.Sprintf("e/%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("e/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.CachedLen(); n > 32 {
		t.Fatalf("cache holds %d entries; capacity is 32", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

// TestBulkWriteLeavesNoSlots: writing keys the cache does not hold, with no
// fill in flight, leaves nothing behind once the writes' events have arrived
// too — no tombstones, so nothing the cache could serve is evicted for them.
func TestBulkWriteLeavesNoSlots(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{Capacity: 64})
	attach(t, c, src)

	for b := 0; b < 16; b++ {
		batch := make([]registry.Entry, 64)
		for i := range batch {
			batch[i] = entry(fmt.Sprintf("bulk/%d/%d", b, i), 1)
		}
		if _, err := c.PutMany(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	head, err := inst.FeedBarrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "feed drained", func() bool { return c.combiner.Cursor("origin") >= head })
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 0 {
		t.Fatalf("after a bulk write of uncached keys: %d evictions, %d slots; want 0 and 0", st.Evictions, st.Entries)
	}
}

func TestGetManyMixesHitsAndFills(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	for i := 0; i < 4; i++ {
		if _, err := inst.Put(ctx, entry(fmt.Sprintf("gm/%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// The puts' own feed events invalidate whatever is filled before they
	// arrive; let all four land (each bumps the fence) before filling.
	waitFor(t, "the puts' feed events", func() bool { return c.fence.Load() >= 4 })
	// Prime two of them (plus one negative).
	if _, err := c.Get(ctx, "gm/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "gm/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "gm/absent"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatal("want not-found")
	}

	names := []string{"gm/0", "gm/absent", "gm/1", "gm/2", "gm/none", "gm/3"}
	got, err := c.GetMany(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.GetMany(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("GetMany returned %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Size != want[i].Size {
			t.Fatalf("GetMany[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Everything is now cached: a repeat must not touch the origin.
	before := origin.gets.Load()
	if _, err := c.GetMany(ctx, names); err != nil {
		t.Fatal(err)
	}
	if origin.gets.Load() != before {
		t.Fatal("repeat GetMany reached the origin")
	}
}

// TestCacheOffEquivalence drives an identical seeded operation mix against a
// raw instance and a cache-wrapped twin; every result — values, errors,
// listing sizes — must match. This is the correctness-suite equivalence the
// issue requires.
func TestCacheOffEquivalence(t *testing.T) {
	raw := registry.NewInstance(1, memcache.New(memcache.Config{}))
	cachedInst, src := newFedInstance(t, 1)
	c := New(cachedInst, Options{})
	attach(t, c, src)

	rng := rand.New(rand.NewSource(7))
	key := func() string { return fmt.Sprintf("eq/%d", rng.Intn(32)) }
	for i := 0; i < 2000; i++ {
		name := key()
		switch rng.Intn(6) {
		case 0:
			a, aerr := raw.Put(ctx, entry(name, int64(i)))
			b, berr := c.Put(ctx, entry(name, int64(i)))
			checkSame(t, i, "Put", a, aerr, b, berr)
		case 1:
			aerr := raw.Delete(ctx, name)
			berr := c.Delete(ctx, name)
			checkSame(t, i, "Delete", registry.Entry{}, aerr, registry.Entry{}, berr)
		case 2:
			a, aerr := raw.Create(ctx, entry(name, int64(i)))
			b, berr := c.Create(ctx, entry(name, int64(i)))
			checkSame(t, i, "Create", a, aerr, b, berr)
		case 3:
			a, aerr := raw.AddLocation(ctx, name, registry.Location{Site: 2, Node: cloud.NodeID(i % 8)})
			b, berr := c.AddLocation(ctx, name, registry.Location{Site: 2, Node: cloud.NodeID(i % 8)})
			checkSame(t, i, "AddLocation", a, aerr, b, berr)
		default:
			a, aerr := raw.Get(ctx, name)
			b, berr := c.Get(ctx, name)
			checkSame(t, i, "Get", a, aerr, b, berr)
		}
	}
	if raw.Len(ctx) != c.Len(ctx) {
		t.Fatalf("Len differs: raw %d, cached %d", raw.Len(ctx), c.Len(ctx))
	}
}

// checkSame asserts two results agree on success/failure class and payload.
func checkSame(t *testing.T, i int, op string, a registry.Entry, aerr error, b registry.Entry, berr error) {
	t.Helper()
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("op %d %s: error mismatch: raw %v, cached %v", i, op, aerr, berr)
	}
	if aerr != nil {
		for _, sentinel := range []error{registry.ErrNotFound, registry.ErrExists, registry.ErrConflict} {
			if errors.Is(aerr, sentinel) != errors.Is(berr, sentinel) {
				t.Fatalf("op %d %s: sentinel mismatch: raw %v, cached %v", i, op, aerr, berr)
			}
		}
		return
	}
	if a.Name != b.Name || a.Size != b.Size || len(a.Locations) != len(b.Locations) {
		t.Fatalf("op %d %s: entry mismatch: raw %+v, cached %+v", i, op, a, b)
	}
}

// TestRouterResyncSafety runs the cache over a replicated feeding Router
// while a shard is down and comes back: after the feed drains, every key must
// read back its latest value through the cache.
func TestRouterResyncSafety(t *testing.T) {
	newShard := func(id cloud.SiteID) *registry.Instance {
		return registry.NewInstance(id, memcache.New(memcache.Config{}), registry.WithChangeFeed())
	}
	shards := []registry.API{newShard(1), newShard(2), newShard(3)}
	// An hour-long probe interval leaves the breaker to the test.
	router, err := registry.NewRouter(1, shards,
		registry.WithRouterReplication(2),
		registry.WithRouterHealth(3, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	c := New(router, Options{})
	attach(t, c, feed.Source{
		Name: "tier",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			return router.ChangeFeed().Subscribe(from)
		},
		Snapshot: router.FeedSnapshot,
	})

	const keys = 64
	for i := 0; i < keys; i++ {
		if _, err := c.Put(ctx, entry(fmt.Sprintf("rb/%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("rb/%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// An outage and a recovery: while shard 0 is down, overwrite everything
	// through the router (bypassing the cache's write-through), so the
	// size-2 entries land on substitutes and shard 0 keeps its size-1 copies;
	// then bring it back, and the re-sync sweep merges the new values onto
	// it and deletes the substitutes' copies.
	router.MarkShardDown(0)
	for i := 0; i < keys; i++ {
		if _, err := router.Put(ctx, entry(fmt.Sprintf("rb/%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	router.MarkShardUp(0)
	router.Wait()

	// Drain the relay feed up to a barrier, then wait for the cache to apply
	// it (the cursor advances when an event is handed to the combiner's
	// output buffer, the cache applies asynchronously): every key must
	// converge to its latest value — the sweep's put/delete pairs included.
	head, err := router.FeedBarrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "relay feed drained", func() bool { return c.combiner.Cursor("tier") >= head })
	waitFor(t, "cache converged on re-synced values", func() bool {
		for i := 0; i < keys; i++ {
			e, err := c.Get(ctx, fmt.Sprintf("rb/%d", i))
			if err != nil || e.Size != 2 {
				return false
			}
		}
		return true
	})
}

// TestCloseDetachesAndServesThrough: after Close the cache serves every Get
// from the origin, whether it subscribed to the feed or observed the log, and
// the log's events reach it no more.
func TestCloseDetachesAndServesThrough(t *testing.T) {
	for _, observe := range []bool{false, true} {
		t.Run(fmt.Sprintf("observe=%v", observe), func(t *testing.T) {
			inst, src := newFedInstance(t, 1)
			origin := &countingAPI{API: inst}
			c := New(origin, Options{})
			if observe {
				c.AttachLog(inst.ChangeFeed())
			} else {
				attach(t, c, src)
			}

			if _, err := inst.Put(ctx, entry("cl", 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get(ctx, "cl"); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "post-close flush", func() bool { return c.serveThrough() })
			if observe {
				// The observer slot is empty: a later put does not reach the cache.
				invalidations := c.Stats().Invalidations
				if _, err := inst.Put(ctx, entry("cl", 2)); err != nil {
					t.Fatal(err)
				}
				if got := c.Stats().Invalidations; got != invalidations || c.CachedLen() != 0 {
					t.Errorf("after Close: %d invalidations (was %d), %d slots; want a put not to reach the cache, and 0 slots",
						got, invalidations, c.CachedLen())
				}
			}
			// Still correct, just uncached: every Get reaches the origin.
			before := origin.gets.Load()
			for i := 0; i < 3; i++ {
				if _, err := c.Get(ctx, "cl"); err != nil {
					t.Fatal(err)
				}
			}
			if got := origin.gets.Load() - before; got != 3 {
				t.Fatalf("%d origin gets after Close; want 3 (serve-through)", got)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err) // idempotent
			}
		})
	}
}

// observedRouter builds a router over shards feeding instances and a cache
// in front of it, attached to the router's relay as site.Build attaches it.
func observedRouter(t *testing.T, shards int) (*registry.Router, *countingAPI, *Cache) {
	t.Helper()
	apis := make([]registry.API, shards)
	for i := range apis {
		apis[i] = registry.NewInstance(1, memcache.New(memcache.Config{}), registry.WithChangeFeed())
	}
	router, err := registry.NewRouter(1, apis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	origin := &countingAPI{API: router}
	c := New(origin, Options{})
	c.AttachLog(router.ChangeFeed())
	t.Cleanup(func() { _ = c.Close() })
	return router, origin, c
}

// TestObservedLogServesWritesBehindTheCache: with the cache observing the
// relay, a write made on the router behind the cache's back has invalidated
// the key when it returns, so the very next Get through the cache reads it,
// for every kind of write. Each round caches v1 (a fill, then a hit), writes
// v2 on the router, and reads once more.
func TestObservedLogServesWritesBehindTheCache(t *testing.T) {
	const rounds = 1000
	for _, row := range []struct {
		name  string
		write func(*registry.Router, string) error
		gone  bool // v2 is a deletion
	}{
		{"Put", func(r *registry.Router, k string) error { _, err := r.Put(ctx, entry(k, 2)); return err }, false},
		{"PutMany", func(r *registry.Router, k string) error {
			_, err := r.PutMany(ctx, []registry.Entry{entry(k, 2)})
			return err
		}, false},
		{"Merge", func(r *registry.Router, k string) error {
			_, err := r.Merge(ctx, []registry.Entry{entry(k, 2)})
			return err
		}, false},
		{"Delete", func(r *registry.Router, k string) error { return r.Delete(ctx, k) }, true},
		{"DeleteMany", func(r *registry.Router, k string) error { _, err := r.DeleteMany(ctx, []string{k}); return err }, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			router, origin, c := observedRouter(t, 4)
			stale := 0
			for i := range rounds {
				k := fmt.Sprintf("coh/%d", i)
				if _, err := router.Put(ctx, entry(k, 1)); err != nil {
					t.Fatal(err)
				}
				for range 2 {
					if e, err := c.Get(ctx, k); err != nil || e.Size != 1 {
						t.Fatalf("round %d: Get of v1 = %+v, %v", i, e, err)
					}
				}
				if err := row.write(router, k); err != nil {
					t.Fatal(err)
				}
				e, err := c.Get(ctx, k)
				if row.gone && !errors.Is(err, registry.ErrNotFound) || !row.gone && (err != nil || e.Size != 2) {
					stale++
				}
			}
			if stale > 0 {
				t.Errorf("%d of %d reads right after a %s behind the cache were stale", stale, rounds, row.name)
			}
			if got := origin.gets.Load(); got != 2*rounds {
				t.Errorf("%d origin gets over %d rounds, want %d: v1 must be cached, and only v1", got, rounds, 2*rounds)
			}
		})
	}
}

// TestObservedLogCloseServesThrough: once the observed log closes (the
// router closes its relay while the cache is open), the cache flushes,
// serves every read through and caches nothing.
func TestObservedLogCloseServesThrough(t *testing.T) {
	router, origin, c := observedRouter(t, 2)
	if _, err := router.Put(ctx, entry("lc", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "lc"); err != nil {
		t.Fatal(err)
	}
	router.Close()
	if c.CachedLen() != 0 || c.Stats().Flushes != 1 {
		t.Fatalf("after the log closed: %d slots, %d flushes; want 0 and 1", c.CachedLen(), c.Stats().Flushes)
	}
	before := origin.gets.Load()
	for range 3 {
		if _, err := c.Get(ctx, "lc"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.gets.Load() - before; got != 3 || c.CachedLen() != 0 {
		t.Errorf("after the log closed: %d origin gets for 3 Gets, %d slots; want 3 and 0", got, c.CachedLen())
	}
}

func TestFeedSurfaceForwarding(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)
	if c.ChangeFeed() != inst.ChangeFeed() {
		t.Fatal("ChangeFeed not forwarded")
	}
	if _, err := c.FeedBarrier(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FeedSnapshot(ctx); err != nil {
		t.Fatal(err)
	}

	plain := New(registry.NewInstance(2, memcache.New(memcache.Config{})), Options{})
	if plain.ChangeFeed() != nil {
		t.Fatal("feedless origin must forward a nil feed")
	}
	if _, err := plain.FeedBarrier(ctx); err == nil {
		t.Fatal("want error from FeedBarrier on a feedless origin")
	}
	if _, _, err := plain.FeedSnapshot(ctx); err == nil {
		t.Fatal("want error from FeedSnapshot on a feedless origin")
	}
	if plain.Site() != 2 {
		t.Fatalf("Site() = %d, want 2", plain.Site())
	}
}

func TestPassThroughReads(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)
	if _, err := c.Put(ctx, entry("p/1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, entry("p/2", 2)); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(ctx); n != 2 {
		t.Fatalf("Len: %d, want 2", n)
	}
	es, err := c.Entries(ctx)
	if err != nil || len(es) != 2 {
		t.Fatalf("Entries: %v %v", es, err)
	}
	if n := c.Len(ctx); n != 2 {
		t.Fatalf("Len: %d, want 2", n)
	}
}

func TestMetricsSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{Metrics: reg})
	attach(t, c, src)
	if _, err := c.Put(ctx, entry("m", 1)); err != nil {
		t.Fatal(err)
	}
	// The Put's own feed event must land before the fill below, or it
	// invalidates the fill and the second Get is a miss too.
	waitFor(t, "the put's feed event", func() bool { return c.Stats().Invalidations >= 2 })
	if _, err := c.Get(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("readcache_hits_total").Value() == 0 {
		t.Fatal("readcache_hits_total not reported")
	}
	if reg.Counter("readcache_misses_total").Value() == 0 {
		t.Fatal("readcache_misses_total not reported")
	}
	if reg.Counter("readcache_invalidations_total").Value() == 0 {
		t.Fatal("readcache_invalidations_total not reported")
	}
	if reg.Gauge("readcache_entries").Value() != int64(c.CachedLen()) {
		t.Fatal("readcache_entries gauge out of sync with occupancy")
	}
}

// nullOrigin answers every Get with its entry and does no other work, so a
// benchmark over it times the cache's own cost.
type nullOrigin struct {
	registry.API
	entry registry.Entry
}

func (o nullOrigin) Get(context.Context, string) (registry.Entry, error) { return o.entry, nil }

// newBenchCache is the cache geobench's ladder times: feedless, TTL-bounded,
// default capacity, over an origin that costs nothing.
func newBenchCache() *Cache {
	return New(nullOrigin{entry: entry("bench", 1)}, Options{MaxStaleness: time.Hour})
}

// benchNames returns n distinct keys.
func benchNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("bench/%d", i)
	}
	return names
}

// TestCacheAllocations is the allocation gate of the two paths a read-mostly
// site runs most: a hit, and the invalidation a write of a key the cache
// does not hold costs (each run a key not seen before), called directly and
// reached through an observed log.
func TestCacheAllocations(t *testing.T) {
	c, absent := newBenchCache(), benchNames(256)
	log := feed.NewLog()
	c.AttachLog(log)
	if _, err := c.Get(ctx, "hit"); err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"hit", func() {
			if _, err := c.Get(ctx, "hit"); err != nil {
				t.Error(err)
			}
		}},
		{"invalidation of an uncached key", func() { c.invalidate(absent[next]); next++ }},
		{"observed invalidation of an uncached key", func() { log.Append(feed.OpPut, absent[next], nil); next++ }},
	} {
		if allocs := testing.AllocsPerRun(100, row.op); allocs != 0 {
			t.Errorf("%s: %.1f allocations, want 0", row.name, allocs)
		}
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := newBenchCache()
	if _, err := c.Get(ctx, "hit"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Get(ctx, "hit"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheInvalidate times one invalidation of a key the cache does
// not hold, of one it holds, and of one it does not hold while a fill is in
// flight on every shard, which leaves a tombstone (and, past capacity, evicts).
func BenchmarkCacheInvalidate(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		c, names := newBenchCache(), benchNames(4*DefaultCapacity)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			c.invalidate(names[i%len(names)])
		}
	})
	b.Run("cached", func(b *testing.B) {
		c, names := newBenchCache(), benchNames(DefaultCapacity/4)
		b.ReportAllocs()
		for done := 0; done < b.N; {
			n := min(len(names), b.N-done)
			b.StopTimer()
			for _, name := range names[:n] {
				if _, err := c.Get(ctx, name); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			for _, name := range names[:n] {
				c.invalidate(name)
			}
			done += n
		}
	})
	b.Run("fencing", func(b *testing.B) {
		c, names := newBenchCache(), benchNames(4*DefaultCapacity)
		for _, sh := range c.shards {
			sh.filling.Add(1)
		}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			c.invalidate(names[i%len(names)])
		}
	})
}

// BenchmarkCacheFill times a miss that fills: every key is read once per
// pass over four times the capacity, so each fill also evicts.
func BenchmarkCacheFill(b *testing.B) {
	c, names := newBenchCache(), benchNames(4*DefaultCapacity)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := c.Get(ctx, names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFlushFencesFillsInFlight: a fill that read the origin before a Flush
// does not install after it, because Flush raises every shard's floor past
// the fences the fills in flight hold.
func TestFlushFencesFillsInFlight(t *testing.T) {
	inst := registry.NewInstance(1, memcache.New(memcache.Config{}))
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	h := &heldRead{reached: make(chan struct{}), release: make(chan struct{})}
	origin.held.Store(h)
	fillDone := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k")
		fillDone <- err
	}()
	<-h.reached // the fill holds the origin's answer
	c.Flush()
	h.release <- struct{}{}
	if err := <-fillDone; err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.lookup("k"); ok {
		t.Fatal("a fill that read the origin before Flush installed after it")
	}
}

// TestEvictedTombstoneKeepsFencing: an invalidation that meets a fill in
// flight leaves a tombstone; when the LRU evicts the tombstone, its fence
// moves into the shard's floor, so the fill, which read the old value, still
// cannot install it.
func TestEvictedTombstoneKeepsFencing(t *testing.T) {
	inst, _ := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{Capacity: 1}) // one lock shard of one slot
	c.AttachLog(inst.ChangeFeed())
	t.Cleanup(func() { _ = c.Close() })
	if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	h := &heldRead{reached: make(chan struct{}), release: make(chan struct{})}
	origin.held.Store(h)
	fillDone := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k")
		fillDone <- err
	}()
	<-h.reached // the fill holds size 1

	evictions := c.Stats().Evictions
	if _, err := inst.Put(ctx, entry("k", 2)); err != nil { // leaves a tombstone for k
		t.Fatal(err)
	}
	if _, err := inst.Put(ctx, entry("other", 1)); err != nil { // its tombstone evicts k's
		t.Fatal(err)
	}
	if c.Stats().Evictions == evictions {
		t.Fatal("the second tombstone evicted nothing")
	}
	h.release <- struct{}{}
	if err := <-fillDone; err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "k"); err != nil || e.Size != 2 {
		t.Fatalf("get after the evicted tombstone = size %d, %v; want 2: the held fill installed its stale read", e.Size, err)
	}
}
