package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/dht"
	"geomds/internal/latency"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

var tctx = context.Background()

// newTestFabric builds a 4-site fabric whose latency model never actually
// sleeps, so strategy-logic tests run instantly. The cache capacity model is
// disabled for the same reason.
func newTestFabric(opts ...FabricOption) *Fabric {
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
	base := []FabricOption{WithCacheCapacity(0, 0)}
	return NewFabric(topo, lat, append(base, opts...)...)
}

func testEntry(name string, site cloud.SiteID) registry.Entry {
	return registry.NewEntry(name, 4096, "task-x", registry.Location{Site: site, Node: 1})
}

// holds reports whether the instance stores name, the way a caller finds
// out: a Get that answers or fails ErrNotFound. Any other failure fails the
// test.
func holds(t *testing.T, inst registry.API, name string) bool {
	t.Helper()
	_, err := inst.Get(tctx, name)
	if err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatalf("get %q: %v", name, err)
	}
	return err == nil
}

func TestStrategyKindStrings(t *testing.T) {
	cases := map[StrategyKind][2]string{
		Centralized:             {"centralized", "C"},
		Replicated:              {"replicated", "R"},
		Decentralized:           {"decentralized-nonrep", "DN"},
		DecentralizedReplicated: {"decentralized-rep", "DR"},
	}
	for k, want := range cases {
		if k.String() != want[0] || k.Short() != want[1] {
			t.Errorf("%d: String/Short = %q/%q, want %q/%q", int(k), k.String(), k.Short(), want[0], want[1])
		}
	}
	if StrategyKind(99).String() == "" || StrategyKind(99).Short() != "?" {
		t.Error("unknown kind formatting")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]StrategyKind{
		"centralized": Centralized, "C": Centralized, " central ": Centralized,
		"replicated": Replicated, "r": Replicated,
		"DN": Decentralized, "decentralized": Decentralized,
		"dr": DecentralizedReplicated, "hybrid": DecentralizedReplicated,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy should reject unknown names")
	}
}

func TestFabricBasics(t *testing.T) {
	rec := metrics.NewRecorder()
	f := newTestFabric(WithRecorder(rec))
	if len(f.Sites()) != 4 {
		t.Fatalf("Sites = %v", f.Sites())
	}
	if !f.HasSite(0) || f.HasSite(99) {
		t.Error("HasSite misbehaves")
	}
	if _, err := f.Instance(0); err != nil {
		t.Errorf("Instance(0): %v", err)
	}
	if _, err := f.Instance(99); !errors.Is(err, ErrNoSuchSite) {
		t.Errorf("Instance(99) = %v, want ErrNoSuchSite", err)
	}
	if f.Recorder() != rec {
		t.Error("Recorder not attached")
	}
	if f.EntrySize(testEntry("x", 0)) <= 0 {
		t.Error("EntrySize should be positive")
	}
	if f.TotalEntries(tctx) != 0 {
		t.Error("fresh fabric should be empty")
	}
}

func TestFabricWithSitesSubset(t *testing.T) {
	f := newTestFabric(WithSites(0, 1))
	if len(f.Sites()) != 2 {
		t.Fatalf("Sites = %v, want 2", f.Sites())
	}
	if f.HasSite(3) {
		t.Error("site 3 should not be part of the fabric")
	}
}

func TestCentralizedCreateLookup(t *testing.T) {
	f := newTestFabric()
	svc, err := NewCentralized(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Kind() != Centralized || svc.Home() != 0 {
		t.Error("Kind/Home mismatch")
	}

	e := testEntry("f1", 1)
	if _, err := svc.Create(tctx, 1, e); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Entry exists from every site (single instance).
	for site := cloud.SiteID(0); site < 4; site++ {
		got, err := svc.Lookup(tctx, site, "f1")
		if err != nil {
			t.Fatalf("Lookup from %d: %v", site, err)
		}
		if !got.Equal(e) {
			t.Errorf("Lookup returned %+v", got)
		}
	}
	if _, err := svc.Create(tctx, 2, e); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
	if _, err := svc.Lookup(tctx, 0, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup missing = %v, want ErrNotFound", err)
	}
	if _, err := svc.AddLocation(tctx, 3, "f1", registry.Location{Site: 3, Node: 9}); err != nil {
		t.Errorf("AddLocation: %v", err)
	}
	if err := svc.Delete(tctx, 2, "f1"); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Errorf("Flush: %v", err)
	}
}

func TestCentralizedStoresOnlyAtHome(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewCentralized(f, 2)
	defer svc.Close()
	svc.Create(tctx, 0, testEntry("only-home", 0))
	for _, site := range f.Sites() {
		inst, _ := f.Instance(site)
		want := 0
		if site == 2 {
			want = 1
		}
		if inst.Len(tctx) != want {
			t.Errorf("site %d holds %d entries, want %d", site, inst.Len(tctx), want)
		}
	}
}

func TestCentralizedClosed(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewCentralized(f, 0)
	svc.Close()
	if _, err := svc.Create(tctx, 0, testEntry("x", 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after close = %v", err)
	}
	if _, err := svc.Lookup(tctx, 0, "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Lookup after close = %v", err)
	}
	if err := svc.Delete(tctx, 0, "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after close = %v", err)
	}
	if err := svc.Flush(tctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after close = %v", err)
	}
}

func TestNewCentralizedBadSite(t *testing.T) {
	f := newTestFabric(WithSites(0, 1))
	if _, err := NewCentralized(f, 3); !errors.Is(err, ErrNoSuchSite) {
		t.Errorf("NewCentralized on missing site = %v", err)
	}
}

func TestReplicatedLocalThenEventual(t *testing.T) {
	f := newTestFabric()
	svc, err := NewReplicated(f, 0, WithSyncInterval(time.Hour)) // manual sync only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Kind() != Replicated || svc.AgentSite() != 0 {
		t.Error("Kind/AgentSite mismatch")
	}

	e := testEntry("shared", 1)
	if _, err := svc.Create(tctx, 1, e); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Immediately visible locally...
	if _, err := svc.Lookup(tctx, 1, "shared"); err != nil {
		t.Errorf("local Lookup: %v", err)
	}
	// ...but not yet at other sites (eventual consistency).
	if _, err := svc.Lookup(tctx, 3, "shared"); !errors.Is(err, ErrNotFound) {
		t.Errorf("remote Lookup before sync = %v, want ErrNotFound", err)
	}
	// After a sync round the entry is everywhere.
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for _, site := range f.Sites() {
		if _, err := svc.Lookup(tctx, site, "shared"); err != nil {
			t.Errorf("Lookup from %d after sync: %v", site, err)
		}
	}
	if svc.SyncRounds() == 0 {
		t.Error("SyncRounds should have advanced")
	}
	if svc.EntriesSynced() == 0 {
		t.Error("EntriesSynced should count propagated entries")
	}
}

func TestReplicatedDeletePropagates(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewReplicated(f, 0, WithSyncInterval(time.Hour))
	defer svc.Close()
	svc.Create(tctx, 2, testEntry("todelete", 2))
	svc.Flush(tctx)
	if err := svc.Delete(tctx, 2, "todelete"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	svc.Flush(tctx)
	for _, site := range f.Sites() {
		if _, err := svc.Lookup(tctx, site, "todelete"); !errors.Is(err, ErrNotFound) {
			t.Errorf("entry still visible at %d after propagated delete: %v", site, err)
		}
	}
}

func TestReplicatedAddLocationPropagates(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewReplicated(f, 1, WithSyncInterval(time.Hour))
	defer svc.Close()
	svc.Create(tctx, 0, testEntry("f", 0))
	svc.Flush(tctx)
	if _, err := svc.AddLocation(tctx, 0, "f", registry.Location{Site: 3, Node: 7}); err != nil {
		t.Fatalf("AddLocation: %v", err)
	}
	svc.Flush(tctx)
	got, err := svc.Lookup(tctx, 2, "f")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if !got.HasLocation(registry.Location{Site: 3, Node: 7}) {
		t.Error("location update did not propagate")
	}
}

func TestReplicatedBackgroundAgent(t *testing.T) {
	f := newTestFabric()
	// Simulated 10ms interval at scale 1.0 = wall 10ms: fast enough to observe.
	svc, _ := NewReplicated(f, 0, WithSyncInterval(10*time.Millisecond))
	defer svc.Close()
	svc.Create(tctx, 0, testEntry("bg", 0))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := svc.Lookup(tctx, 3, "bg"); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("background agent never propagated the entry")
}

func TestReplicatedClosed(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewReplicated(f, 0)
	svc.Close()
	if _, err := svc.Create(tctx, 0, testEntry("x", 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after close = %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestDecentralizedPlacement(t *testing.T) {
	f := newTestFabric()
	svc, err := NewDecentralized(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Kind() != Decentralized {
		t.Error("Kind mismatch")
	}

	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("file-%d", i)
		if _, err := svc.Create(tctx, cloud.SiteID(i%4), testEntry(name, cloud.SiteID(i%4))); err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
		home := svc.Home(name)
		inst, _ := f.Instance(home)
		if !holds(t, inst, name) {
			t.Errorf("%s not stored at its home site %d", name, home)
		}
		// It must be stored nowhere else.
		for _, site := range f.Sites() {
			if site == home {
				continue
			}
			other, _ := f.Instance(site)
			if holds(t, other, name) {
				t.Errorf("%s replicated to non-home site %d", name, site)
			}
		}
	}
	if f.TotalEntries(tctx) != 40 {
		t.Errorf("TotalEntries = %d, want 40 (no replication)", f.TotalEntries(tctx))
	}
	local, remote := svc.LocalRemoteOps()
	if local+remote != 40 {
		t.Errorf("locality counters = %d+%d, want 40", local, remote)
	}
}

func TestDecentralizedLookupAndErrors(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewDecentralized(f, nil)
	defer svc.Close()
	e := testEntry("data.bin", 2)
	svc.Create(tctx, 2, e)
	for _, site := range f.Sites() {
		got, err := svc.Lookup(tctx, site, "data.bin")
		if err != nil || !got.Equal(e) {
			t.Errorf("Lookup from %d: %v", site, err)
		}
	}
	if _, err := svc.Lookup(tctx, 0, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup missing = %v", err)
	}
	if _, err := svc.Create(tctx, 1, e); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v", err)
	}
	if _, err := svc.AddLocation(tctx, 3, "data.bin", registry.Location{Site: 3, Node: 5}); err != nil {
		t.Errorf("AddLocation: %v", err)
	}
	if err := svc.Delete(tctx, 1, "data.bin"); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Errorf("Flush: %v", err)
	}
	svc.Close()
	if _, err := svc.Lookup(tctx, 0, "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Lookup after close = %v", err)
	}
}

func TestDecReplicatedEagerWrite(t *testing.T) {
	f := newTestFabric()
	svc, err := NewDecReplicated(f, WithEagerPropagation())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Lazy() {
		t.Error("eager service should not report lazy")
	}

	// Pick a name whose home is NOT the writer's site so both copies exist.
	var name string
	for i := 0; ; i++ {
		name = fmt.Sprintf("eager-%d", i)
		if svc.Home(name) != 1 {
			break
		}
	}
	if _, err := svc.Create(tctx, 1, testEntry(name, 1)); err != nil {
		t.Fatalf("Create: %v", err)
	}
	local, _ := f.Instance(1)
	home, _ := f.Instance(svc.Home(name))
	if !holds(t, local, name) {
		t.Error("local replica missing")
	}
	if !holds(t, home, name) {
		t.Error("home copy missing (eager propagation)")
	}
}

func TestDecReplicatedLazyWrite(t *testing.T) {
	f := newTestFabric()
	svc, err := NewDecReplicated(f, WithLazyPropagation(time.Hour, 1<<20)) // manual flush only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.Lazy() {
		t.Error("service should report lazy")
	}

	var name string
	for i := 0; ; i++ {
		name = fmt.Sprintf("lazy-%d", i)
		if svc.Home(name) != 0 {
			break
		}
	}
	svc.Create(tctx, 0, testEntry(name, 0))
	homeSite := svc.Home(name)
	homeInst, _ := f.Instance(homeSite)
	if holds(t, homeInst, name) {
		t.Error("home copy should not exist before the lazy flush")
	}
	// Reads from the writer's site hit the local replica immediately.
	if _, err := svc.Lookup(tctx, 0, name); err != nil {
		t.Errorf("local Lookup: %v", err)
	}
	// Reads from a third site that is neither writer nor home miss until the
	// flush (eventual consistency).
	var third cloud.SiteID = -1
	for _, s := range f.Sites() {
		if s != 0 && s != homeSite {
			third = s
			break
		}
	}
	if _, err := svc.Lookup(tctx, third, name); !errors.Is(err, ErrNotFound) {
		t.Errorf("third-site Lookup before flush = %v, want ErrNotFound", err)
	}
	if err := svc.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if !holds(t, homeInst, name) {
		t.Error("home copy missing after flush")
	}
	if _, err := svc.Lookup(tctx, third, name); err != nil {
		t.Errorf("third-site Lookup after flush: %v", err)
	}
	if rate := svc.LocalHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("LocalHitRate = %v, want in (0,1]", rate)
	}
}

func TestDecReplicatedHomeEqualsWriter(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewDecReplicated(f, WithEagerPropagation())
	defer svc.Close()
	// Find a name whose home IS the writer's site: only one copy must exist.
	var name string
	for i := 0; ; i++ {
		name = fmt.Sprintf("samehome-%d", i)
		if svc.Home(name) == 2 {
			break
		}
	}
	svc.Create(tctx, 2, testEntry(name, 2))
	if f.TotalEntries(tctx) != 1 {
		t.Errorf("TotalEntries = %d, want 1 (no self-replication)", f.TotalEntries(tctx))
	}
}

func TestDecReplicatedUpdateAndDelete(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewDecReplicated(f, WithEagerPropagation())
	defer svc.Close()
	var name string
	for i := 0; ; i++ {
		name = fmt.Sprintf("ud-%d", i)
		if svc.Home(name) != 0 {
			break
		}
	}
	svc.Create(tctx, 0, testEntry(name, 0))
	if _, err := svc.AddLocation(tctx, 0, name, registry.Location{Site: 3, Node: 4}); err != nil {
		t.Fatalf("AddLocation: %v", err)
	}
	// Updating from a site that has no local replica works via the home.
	if _, err := svc.AddLocation(tctx, 3, name, registry.Location{Site: 2, Node: 8}); err != nil {
		t.Fatalf("AddLocation from non-replica site: %v", err)
	}
	if err := svc.Delete(tctx, 0, name); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for _, site := range f.Sites() {
		inst, _ := f.Instance(site)
		if holds(t, inst, name) {
			t.Errorf("entry still present at site %d after delete", site)
		}
	}
	if err := svc.Delete(tctx, 0, name); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Delete = %v, want ErrNotFound", err)
	}
	if _, err := svc.AddLocation(tctx, 1, "ghost", registry.Location{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddLocation on missing entry = %v, want ErrNotFound", err)
	}
}

// homedAt returns a name the service places at the given site.
func homedAt(svc *DecReplicatedService, site cloud.SiteID) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("home-%d", i); svc.Home(name) == site {
			return name
		}
	}
}

// An update from a name's home site, where the local replica is the only
// copy, is one registry call.
func TestDecReplicatedAddLocationAtHomeIsOneCall(t *testing.T) {
	f, counters := newCountingFabric()
	svc, _ := NewDecReplicated(f)
	defer svc.Close()
	name := homedAt(svc, 1)
	if _, err := svc.Create(tctx, 1, testEntry(name, 1)); err != nil {
		t.Fatal(err)
	}
	before := counters[1].Total()
	if _, err := svc.AddLocation(tctx, 1, name, registry.Location{Site: 3, Node: 4}); err != nil {
		t.Fatalf("AddLocation: %v", err)
	}
	if got := counters[1].Total() - before; got != 1 {
		t.Errorf("AddLocation made %d registry calls at the home site, want 1", got)
	}
}

// A home site that cannot be reached is reported as unreachable, not as a
// name that does not exist.
func TestDecReplicatedAddLocationAtUnreachableHome(t *testing.T) {
	f := newTestFabric(WithInstances(map[cloud.SiteID]registry.API{1: registry.Unavailable(1)}))
	svc, _ := NewDecReplicated(f)
	defer svc.Close()
	_, err := svc.AddLocation(tctx, 1, homedAt(svc, 1), registry.Location{Site: 3, Node: 4})
	if !errors.Is(err, ErrSiteUnreachable) || errors.Is(err, ErrNotFound) {
		t.Errorf("AddLocation with the home site down = %v, want ErrSiteUnreachable and not ErrNotFound", err)
	}
}

// In eager mode a home site that misses an update or a delete the local
// replica took fails the call (AUDIT C13): a later Lookup from another site
// would read the stale home copy. A home that never held the entry fails no
// delete: one of the two copies was there.
func TestDecReplicatedEagerReportsHomeFailure(t *testing.T) {
	f := newTestFabric(WithInstances(map[cloud.SiteID]registry.API{1: registry.Unavailable(1)}))
	svc, _ := NewDecReplicated(f, WithEagerPropagation())
	defer svc.Close()
	local, _ := f.Instance(0)
	name := homedAt(svc, 1)
	if _, err := local.Create(tctx, testEntry(name, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddLocation(tctx, 0, name, registry.Location{Site: 3, Node: 4}); !errors.Is(err, ErrSiteUnreachable) {
		t.Errorf("eager AddLocation with the home site down = %v, want ErrSiteUnreachable", err)
	}
	if err := svc.Delete(tctx, 0, name); !errors.Is(err, ErrSiteUnreachable) {
		t.Errorf("eager Delete with the home site down = %v, want ErrSiteUnreachable", err)
	}

	name = homedAt(svc, 2)
	if _, err := local.Create(tctx, testEntry(name, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete(tctx, 0, name); err != nil {
		t.Errorf("eager Delete of a name only the local replica held = %v, want nil", err)
	}
}

func TestDecReplicatedClosed(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewDecReplicated(f)
	svc.Close()
	if _, err := svc.Create(tctx, 0, testEntry("x", 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after close = %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestPropagator(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 1000)
	defer p.Close()
	e := testEntry("prop", 0)
	p.Enqueue(0, 2, e)
	if p.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", p.Pending())
	}
	p.FlushNow(tctx)
	if p.Pending() != 0 {
		t.Errorf("Pending after flush = %d, want 0", p.Pending())
	}
	inst, _ := f.Instance(2)
	if !holds(t, inst, "prop") {
		t.Error("entry not applied at destination")
	}
	if p.Flushes() == 0 || p.Propagated() != 1 {
		t.Errorf("Flushes=%d Propagated=%d", p.Flushes(), p.Propagated())
	}
	p.Close()
	p.Enqueue(0, 2, testEntry("after-close", 0))
	if p.Pending() != 0 {
		t.Error("Enqueue after close should be ignored")
	}
}

func TestPropagatorMaxBatchTriggersFlush(t *testing.T) {
	f := newTestFabric()
	p := NewPropagator(f, time.Hour, 3)
	defer p.Close()
	for i := 0; i < 3; i++ {
		p.Enqueue(0, 1, testEntry(fmt.Sprintf("b%d", i), 0))
	}
	inst, _ := f.Instance(1)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if inst.Len(tctx) == 3 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("max-batch flush did not run; destination holds %d entries", inst.Len(tctx))
}

func TestController(t *testing.T) {
	f := newTestFabric()
	ctrl := NewController(f, WithCentralSite(1), WithAgentSite(2),
		WithControllerSyncInterval(time.Hour), WithControllerLazy(time.Hour, 100))
	defer ctrl.Close()

	if _, _, ok := ctrl.Current(); ok {
		t.Error("Current should report not started")
	}
	svc, err := ctrl.Use(tctx, Centralized)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Kind() != Centralized {
		t.Error("wrong kind")
	}
	if c, ok := svc.(*CentralizedService); !ok || c.Home() != 1 {
		t.Error("central site option not honoured")
	}
	// Same kind returns the same instance.
	again, _ := ctrl.Use(tctx, Centralized)
	if again != svc {
		t.Error("Use with same kind should reuse the service")
	}
	// Switch through every strategy.
	for _, kind := range []StrategyKind{Replicated, Decentralized, DecentralizedReplicated} {
		s, err := ctrl.Use(tctx, kind)
		if err != nil {
			t.Fatalf("Use(%v): %v", kind, err)
		}
		if s.Kind() != kind {
			t.Errorf("Kind = %v, want %v", s.Kind(), kind)
		}
		cur, curKind, ok := ctrl.Current()
		if !ok || cur != s || curKind != kind {
			t.Error("Current out of sync")
		}
	}
	// The previously active service is closed after a switch.
	if _, err := svc.Lookup(tctx, 0, "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("old service should be closed, got %v", err)
	}
	if _, err := ctrl.Use(tctx, StrategyKind(42)); err == nil {
		t.Error("unknown strategy should fail")
	}
	if err := ctrl.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := ctrl.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestControllerWithRingPlacer(t *testing.T) {
	f := newTestFabric()
	ring := dht.NewRingPlacer(f.Sites(), 64)
	ctrl := NewController(f, WithControllerPlacer(ring))
	defer ctrl.Close()
	svc, err := ctrl.Use(tctx, Decentralized)
	if err != nil {
		t.Fatal(err)
	}
	dec := svc.(*DecentralizedService)
	if dec.Home("some-file") != ring.Home("some-file") {
		t.Error("controller did not pass the placer through")
	}
}

func TestNewServiceHelper(t *testing.T) {
	f := newTestFabric()
	for _, kind := range Strategies {
		svc, err := NewService(f, kind)
		if err != nil {
			t.Fatalf("NewService(%v): %v", kind, err)
		}
		if svc.Kind() != kind {
			t.Errorf("Kind = %v, want %v", svc.Kind(), kind)
		}
		svc.Close()
	}
}

func TestClient(t *testing.T) {
	f := newTestFabric()
	svc, _ := NewCentralized(f, 0)
	defer svc.Close()
	dep := cloud.NewDeployment(f.Topology())
	nodeID := dep.AddNode(2)
	client := NewClient(svc, dep.Node(nodeID))
	if client.Node().ID != nodeID || client.Service() != svc {
		t.Error("client accessors wrong")
	}
	e, err := client.PublishFile(tctx, "out.dat", 2048, "task-9")
	if err != nil {
		t.Fatalf("PublishFile: %v", err)
	}
	if !e.HasLocation(registry.Location{Site: 2, Node: nodeID}) {
		t.Error("published entry missing the node's location")
	}
	got, err := client.LocateFile(tctx, "out.dat")
	if err != nil || got.Name != "out.dat" {
		t.Errorf("LocateFile: %v", err)
	}
	if _, err := client.RegisterCopy(tctx, "out.dat"); err != nil {
		t.Errorf("RegisterCopy: %v", err)
	}
	if err := client.Remove(tctx, "out.dat"); err != nil {
		t.Errorf("Remove: %v", err)
	}
}

func TestRecorderIntegration(t *testing.T) {
	rec := metrics.NewRecorder()
	f := newTestFabric(WithRecorder(rec))
	svc, _ := NewCentralized(f, 0)
	defer svc.Close()
	svc.Create(tctx, 1, testEntry("m1", 1))
	svc.Lookup(tctx, 2, "m1")
	s := rec.Summarize()
	if s.PerKind[metrics.OpWrite] != 1 || s.PerKind[metrics.OpRead] != 1 {
		t.Errorf("recorded kinds = %v", s.PerKind)
	}
	if s.RemoteCount != 2 {
		t.Errorf("RemoteCount = %d, want 2 (both ops were remote)", s.RemoteCount)
	}
}

func TestConcurrentCreatesAllStrategies(t *testing.T) {
	for _, kind := range Strategies {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			f := newTestFabric()
			svc, err := NewService(f, kind)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			var wg sync.WaitGroup
			errs := make(chan error, 16*25)
			for w := 0; w < 16; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					site := cloud.SiteID(w % 4)
					for i := 0; i < 25; i++ {
						name := fmt.Sprintf("w%d-f%d", w, i)
						if _, err := svc.Create(tctx, site, testEntry(name, site)); err != nil {
							errs <- fmt.Errorf("create %s: %w", name, err)
							return
						}
						if _, err := svc.Lookup(tctx, site, name); err != nil {
							errs <- fmt.Errorf("lookup %s: %w", name, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// Property: for every strategy, once an entry has been created and the
// service flushed, a lookup from any site returns it (global visibility
// after convergence), and creating it again fails from any site.
func TestGlobalVisibilityProperty(t *testing.T) {
	for _, kind := range Strategies {
		kind := kind
		f := newTestFabric()
		svc, err := NewService(f, kind)
		if err != nil {
			t.Fatal(err)
		}
		prop := func(nameRaw uint16, writeRaw, readRaw uint8) bool {
			name := fmt.Sprintf("prop-%s-%d", kind.Short(), nameRaw)
			writeSite := cloud.SiteID(writeRaw % 4)
			readSite := cloud.SiteID(readRaw % 4)
			if _, err := svc.Create(tctx, writeSite, testEntry(name, writeSite)); err != nil {
				// The generator may repeat names; only ErrExists is tolerable.
				if !errors.Is(err, ErrExists) {
					return false
				}
			}
			if err := svc.Flush(tctx); err != nil {
				return false
			}
			if _, err := svc.Lookup(tctx, readSite, name); err != nil {
				return false
			}
			_, err := svc.Create(tctx, readSite, testEntry(name, readSite))
			if kind == DecentralizedReplicated {
				// Lazy-mode writes are optimistic: a duplicate create from a
				// site holding neither the local replica nor the home copy is
				// accepted and converges at the home via the merge.
				return err == nil || errors.Is(err, ErrExists)
			}
			return errors.Is(err, ErrExists)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		svc.Close()
	}
}
