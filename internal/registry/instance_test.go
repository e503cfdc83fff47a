package registry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
)

var tctx = context.Background()

func newTestInstance(opts ...InstanceOption) *Instance {
	return NewInstance(0, memcache.New(memcache.Config{}), opts...)
}

func TestInstanceCreateGet(t *testing.T) {
	inst := newTestInstance()
	e := sampleEntry()
	stored, err := inst.Create(tctx, e)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if stored.Version == 0 {
		t.Error("Create should assign a version")
	}
	got, err := inst.Get(tctx, e.Name)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !got.Equal(e) {
		t.Errorf("Get = %+v, want %+v", got, e)
	}
	if inst.Len(tctx) != 1 {
		t.Errorf("Len after Create = %d, want 1", inst.Len(tctx))
	}
	if inst.Site() != 0 {
		t.Errorf("Site = %d, want 0", inst.Site())
	}
}

func TestInstanceCreateDuplicate(t *testing.T) {
	inst := newTestInstance()
	e := sampleEntry()
	if _, err := inst.Create(tctx, e); err != nil {
		t.Fatalf("first Create: %v", err)
	}
	if _, err := inst.Create(tctx, e); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
}

func TestInstanceCreateInvalid(t *testing.T) {
	inst := newTestInstance()
	if _, err := inst.Create(tctx, Entry{}); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("Create invalid = %v, want ErrInvalidEntry", err)
	}
}

func TestInstanceGetMissing(t *testing.T) {
	inst := newTestInstance()
	if _, err := inst.Get(tctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestInstancePutUpsert(t *testing.T) {
	inst := newTestInstance()
	e := sampleEntry()
	if _, err := inst.Put(tctx, e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	e.Size = 42
	updated, err := inst.Put(tctx, e)
	if err != nil {
		t.Fatalf("Put upsert: %v", err)
	}
	if updated.Version != 2 {
		t.Errorf("upsert version = %d, want 2", updated.Version)
	}
	got, _ := inst.Get(tctx, e.Name)
	if got.Size != 42 {
		t.Errorf("Size = %d, want 42", got.Size)
	}
	if _, err := inst.Put(tctx, Entry{}); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("Put invalid = %v, want ErrInvalidEntry", err)
	}
}

func TestInstanceUpdateAddLocation(t *testing.T) {
	inst := newTestInstance()
	e := sampleEntry()
	inst.Create(tctx, e)
	loc := Location{Site: 2, Node: 11}
	updated, err := inst.AddLocation(tctx, e.Name, loc)
	if err != nil {
		t.Fatalf("AddLocation: %v", err)
	}
	if !updated.HasLocation(loc) {
		t.Error("location not added")
	}
	got, _ := inst.Get(tctx, e.Name)
	if !got.HasLocation(loc) {
		t.Error("location not persisted")
	}
}

func TestInstanceUpdateMissing(t *testing.T) {
	inst := newTestInstance()
	_, err := inst.Update(tctx, "absent", func(e Entry) Entry { return e })
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("Update missing = %v, want ErrNotFound", err)
	}
}

func TestInstanceUpdatePreservesName(t *testing.T) {
	inst := newTestInstance()
	e := sampleEntry()
	inst.Create(tctx, e)
	updated, err := inst.Update(tctx, e.Name, func(cur Entry) Entry {
		cur.Name = "attempted-rename"
		return cur
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if updated.Name != e.Name {
		t.Errorf("Update allowed a rename to %q", updated.Name)
	}
}

// slowStore sleeps before every read and compare-and-swap, standing in for
// a cache instance with a service time.
type slowStore struct {
	Store
	delay time.Duration
}

func (s slowStore) Get(key string) (memcache.Item, error) {
	time.Sleep(s.delay)
	return s.Store.Get(key)
}

func (s slowStore) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (memcache.Item, error) {
	time.Sleep(s.delay)
	return s.Store.CAS(key, value, ttl, expectedVersion)
}

func TestInstanceUpdateConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		delay   time.Duration
		writers int
	}{
		{"generous retry budget", 0, 12},
		// One compare-and-swap each and a store slow enough that every writer
		// reads before any has written: they all succeed only because updates
		// of one name through one instance take turns instead of racing each
		// other.
		{"same-name writers queue", 100 * time.Microsecond, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := NewInstance(0, slowStore{memcache.New(memcache.Config{}), tc.delay})
			e := sampleEntry()
			inst.Create(tctx, e)
			var wg sync.WaitGroup
			for i := 0; i < tc.writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					loc := Location{Site: cloud.SiteID(i % 4), Node: cloud.NodeID(100 + i)}
					if _, err := inst.AddLocation(tctx, e.Name, loc); err != nil {
						t.Errorf("AddLocation %d: %v", i, err)
					}
				}(i)
			}
			wg.Wait()
			got, _ := inst.Get(tctx, e.Name)
			// initial location + one per writer
			if len(got.Locations) != tc.writers+1 {
				t.Errorf("Locations = %d, want %d", len(got.Locations), tc.writers+1)
			}
		})
	}
}

func TestInstanceDelete(t *testing.T) {
	inst := newTestInstance()
	e := sampleEntry()
	inst.Create(tctx, e)
	if err := inst.Delete(tctx, e.Name); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := inst.Delete(tctx, e.Name); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Delete = %v, want ErrNotFound", err)
	}
	if inst.Len(tctx) != 0 {
		t.Error("instance should be empty after delete")
	}
}

func TestInstanceEntriesAndNames(t *testing.T) {
	inst := newTestInstance()
	for i := 0; i < 5; i++ {
		e := NewEntry(fmt.Sprintf("file-%d", i), int64(i), "t", Location{Site: 0, Node: cloud.NodeID(i)})
		if _, err := inst.Create(tctx, e); err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
	}
	if n := inst.Len(tctx); n != 5 {
		t.Errorf("Len = %d, want 5", n)
	}
	entries, err := inst.Entries(tctx)
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(entries) != 5 {
		t.Errorf("Entries = %d, want 5", len(entries))
	}
	for _, e := range entries {
		if e.Version == 0 {
			t.Error("Entries should carry stored versions")
		}
	}
}

func TestInstanceMerge(t *testing.T) {
	src := newTestInstance()
	dst := newTestInstance()
	for i := 0; i < 3; i++ {
		e := NewEntry(fmt.Sprintf("f%d", i), 10, "t", Location{Site: 0, Node: cloud.NodeID(i)})
		src.Create(tctx, e)
	}
	// dst already has f0 with a different location: locations must be unioned.
	dst.Create(tctx, NewEntry("f0", 10, "t", Location{Site: 1, Node: 99}))

	entries, _ := src.Entries(tctx)
	applied, err := dst.Merge(tctx, entries)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if applied != 3 {
		t.Errorf("applied = %d, want 3", applied)
	}
	if dst.Len(tctx) != 3 {
		t.Errorf("dst has %d entries, want 3", dst.Len(tctx))
	}
	f0, _ := dst.Get(tctx, "f0")
	if len(f0.Locations) != 2 {
		t.Errorf("f0 locations = %d, want union of 2", len(f0.Locations))
	}

	// Merging the same batch again changes nothing.
	applied, err = dst.Merge(tctx, entries)
	if err != nil {
		t.Fatalf("second Merge: %v", err)
	}
	if applied != 0 {
		t.Errorf("idempotent merge applied %d, want 0", applied)
	}
}

func TestInstanceMergeInvalid(t *testing.T) {
	dst := newTestInstance()
	if _, err := dst.Merge(tctx, []Entry{{}}); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("Merge invalid = %v, want ErrInvalidEntry", err)
	}
}

// putBatchGate is a store whose first PutBatch blocks until released, so a
// test can hold a Merge between its read and its write.
type putBatchGate struct {
	Store
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *putBatchGate) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Store.PutBatch(kvs)
}

// TestInstanceMergeKeepsConcurrentWrites holds a Merge between its read and
// its write while another writer of the same name runs through the
// instance (AUDIT I8). The other write must survive: either it lands after
// the Merge, or the Merge's union is built on top of it.
func TestInstanceMergeKeepsConcurrentWrites(t *testing.T) {
	mergedLoc := Location{Site: 2, Node: 20}
	writtenLoc := Location{Site: 3, Node: 30}
	for _, row := range []struct {
		name  string
		write func(*Instance, Entry) error
	}{
		{"addlocation", func(inst *Instance, e Entry) error {
			_, err := inst.AddLocation(tctx, e.Name, writtenLoc)
			return err
		}},
		{"put", func(inst *Instance, e Entry) error {
			_, err := inst.Put(tctx, e.AddLocation(writtenLoc))
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			gate := &putBatchGate{Store: memcache.New(memcache.Config{}), entered: make(chan struct{}), release: make(chan struct{})}
			inst := NewInstance(0, gate)
			e := sampleEntry()
			if _, err := inst.Create(tctx, e); err != nil {
				t.Fatal(err)
			}

			merged := make(chan error, 1)
			go func() {
				_, err := inst.Merge(tctx, []Entry{e.AddLocation(mergedLoc)})
				merged <- err
			}()
			<-gate.entered // the Merge has read the entry and holds its write
			written := make(chan error, 1)
			go func() { written <- row.write(inst, e) }()
			select {
			case err := <-written: // the write did not wait for the Merge
				written <- err
			case <-time.After(50 * time.Millisecond): // it waits for the Merge's write
			}
			close(gate.release)
			if err := <-merged; err != nil {
				t.Fatalf("merge: %v", err)
			}
			if err := <-written; err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}

			got, err := inst.Get(tctx, e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(got.Locations, writtenLoc) {
				t.Fatalf("the %s that ran during the merge was lost: locations %v", row.name, got.Locations)
			}
		})
	}
}
