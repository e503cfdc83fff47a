package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/site"
	"geomds/internal/store"
)

// TestFabricShardPersistence pins the fabric-level durability contract: a
// fabric built with a site.Config.DataDir recovers every site's entries —
// across a sharded tier — after Close and rebuild over the same directory,
// even under the relaxed fsync policy (Close must flush).
func TestFabricShardPersistence(t *testing.T) {
	dir := t.TempDir()
	persist := []FabricOption{
		WithSite(site.Config{DataDir: dir, Fsync: store.FsyncNever, Shards: 2}),
		WithMetricsRegistry(nil),
	}

	fabric := newTestFabric(persist...)
	site := fabric.Sites()[0]
	inst, err := fabric.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := inst.Create(tctx, testEntry(fmt.Sprintf("f/%d", i), site)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	revived := newTestFabric(persist...)
	defer revived.Close()
	inst, err = revived.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	if n := inst.Len(tctx); n != 20 {
		t.Errorf("recovered site holds %d entries, want 20", n)
	}
	for i := 0; i < 20; i++ {
		if _, err := inst.Get(tctx, fmt.Sprintf("f/%d", i)); err != nil {
			t.Errorf("f/%d not recovered: %v", i, err)
		}
	}
	// Other sites recovered empty (their directories exist but hold nothing).
	other := revived.Sites()[1]
	oinst, err := revived.Instance(other)
	if err != nil {
		t.Fatal(err)
	}
	if n := oinst.Len(tctx); n != 0 {
		t.Errorf("untouched site recovered %d entries, want 0", n)
	}
}

func TestFabricCloseRejectsFurtherWrites(t *testing.T) {
	fabric := newTestFabric(WithSite(site.Config{DataDir: t.TempDir()}), WithMetricsRegistry(nil))
	site := fabric.Sites()[0]
	inst, err := fabric.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Create(tctx, testEntry("f/0", site)); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Create(tctx, testEntry("f/1", site)); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Create after fabric Close = %v, want store.ErrClosed", err)
	}
	// A memory-only fabric closes trivially.
	if err := newTestFabric().Close(); err != nil {
		t.Errorf("memory-only Close: %v", err)
	}
}

// TestFabricNearCacheServesStoredVersion pins the near cache a fabric puts in
// front of a feeding site: once the feed has delivered a key's put events, a
// Get still returns the version the store assigned to the last Put — feed
// events carry the entry as submitted (version 0) and must only invalidate.
func TestFabricNearCacheServesStoredVersion(t *testing.T) {
	fabric := newTestFabric(WithSite(site.Config{Feed: true, NearCache: true}), WithMetricsRegistry(nil))
	defer fabric.Close()
	s := fabric.Sites()[0]
	inst, err := fabric.Instance(s)
	if err != nil {
		t.Fatal(err)
	}
	cache, ok := inst.(*readcache.Cache)
	if !ok {
		t.Fatalf("site %d serves a %T, want *readcache.Cache", s, inst)
	}
	var acked uint64
	for i := 0; i < 3; i++ {
		e := testEntry("f/versioned", s)
		e.Size = int64(i + 1)
		stored, err := inst.Put(tctx, e)
		if err != nil {
			t.Fatal(err)
		}
		acked = stored.Version
	}
	// Three write-through invalidations plus the three feed events.
	for deadline := time.Now().Add(5 * time.Second); cache.Stats().Invalidations < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("feed did not drain: %d invalidations, want 6", cache.Stats().Invalidations)
		}
		time.Sleep(time.Millisecond)
	}
	got, err := inst.Get(tctx, "f/versioned")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != acked || got.Size != 3 {
		t.Errorf("Get after the feed drained = version %d size %d, want the acknowledged version %d size 3", got.Version, got.Size, acked)
	}
}

// TestWithSiteRefusesPerSiteFields: the fields the fabric fills in per site
// are refused in the template rather than silently overwritten.
func TestWithSiteRefusesPerSiteFields(t *testing.T) {
	for name, cfg := range map[string]site.Config{
		"Site":     {Site: 2},
		"Remote":   {Remote: []registry.API{registry.NewInstance(0, memcache.New(memcache.Config{}))}},
		"NewStore": {NewStore: func() registry.Store { return memcache.New(memcache.Config{}) }},
		"Metrics":  {Metrics: metrics.NewRegistry()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFabric accepted a WithSite template that sets %s", name)
				}
			}()
			newTestFabric(WithSite(cfg)).Close()
		}()
	}
}
