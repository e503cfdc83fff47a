package registry

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"geomds/internal/cloud"
)

func sampleEntry() Entry {
	return Entry{
		Name:      "montage/projected_001.fits",
		Size:      190 << 10,
		Producer:  "mProject-001",
		Locations: []Location{{Site: 1, Node: 3, Path: "/data/projected_001.fits"}},
		Created:   time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC),
	}
}

func TestEntryValidate(t *testing.T) {
	if err := sampleEntry().Validate(); err != nil {
		t.Errorf("valid entry rejected: %v", err)
	}
	noName := sampleEntry()
	noName.Name = ""
	if err := noName.Validate(); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("empty name = %v, want ErrInvalidEntry", err)
	}
	negSize := sampleEntry()
	negSize.Size = -1
	if err := negSize.Validate(); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("negative size = %v, want ErrInvalidEntry", err)
	}
	dup := sampleEntry()
	dup.Locations = append(dup.Locations, dup.Locations[0])
	if err := dup.Validate(); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("duplicate location = %v, want ErrInvalidEntry", err)
	}
}

// locations returns n distinct locations.
func locations(n int) []Location {
	locs := make([]Location, n)
	for i := range locs {
		locs[i] = Location{Site: cloud.SiteID(i % 4), Node: cloud.NodeID(i), Path: fmt.Sprintf("blob/%d", i)}
	}
	return locs
}

// A duplicate is found whether Validate compares the locations pair by pair
// (at most pairwiseLocations of them) or through a set (more), and wherever it
// is.
func TestEntryValidateFindsEveryDuplicate(t *testing.T) {
	for _, row := range []struct{ n, dup, of int }{
		{2, 1, 0}, {8, 7, 0}, {8, 5, 3}, // pair by pair
		{9, 8, 0}, {20, 15, 14}, {20, 3, 1}, // through the set; the last at an index ≤ 8
	} {
		e := sampleEntry()
		e.Locations = locations(row.n)
		if err := e.Validate(); err != nil {
			t.Errorf("%d distinct locations: %v", row.n, err)
		}
		e.Locations[row.dup] = e.Locations[row.of]
		err := e.Validate()
		if !errors.Is(err, ErrInvalidEntry) || !strings.Contains(err.Error(), fmt.Sprintf("blob/%d}", row.of)) {
			t.Errorf("%d locations, index %d repeating %d: Validate = %v", row.n, row.dup, row.of, err)
		}
	}
}

// An entry decoded from one frame can hold millions of locations, so checking
// them must stay linear: 100k of them, the duplicate last, take a few
// milliseconds where comparing every pair would take seconds.
func TestEntryValidateHostileLocationCount(t *testing.T) {
	e := sampleEntry()
	e.Locations = locations(100_000)
	start := time.Now()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	e.Locations[len(e.Locations)-1] = e.Locations[len(e.Locations)-2]
	if err := e.Validate(); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("a duplicate at the end of 100k locations: Validate = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("validating 100k locations twice took %v: the check is not linear", elapsed)
	}
}

func BenchmarkEntryValidate(b *testing.B) {
	for _, n := range []int{1, pairwiseLocations, 64} {
		e := sampleEntry()
		e.Locations = locations(n)
		b.Run(fmt.Sprintf("locations=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := e.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestNewEntry(t *testing.T) {
	loc := Location{Site: 2, Node: 7}
	e := NewEntry("f.dat", 1024, "task-1", loc)
	if err := e.Validate(); err != nil {
		t.Fatalf("NewEntry produced invalid entry: %v", err)
	}
	if !e.HasLocation(loc) {
		t.Error("NewEntry should record the initial location")
	}
	if e.Created.IsZero() {
		t.Error("NewEntry should stamp creation time")
	}
}

func TestAddLocationIsImmutable(t *testing.T) {
	e := sampleEntry()
	loc := Location{Site: 3, Node: 9}
	e2 := e.AddLocation(loc)
	if e.HasLocation(loc) {
		t.Error("AddLocation modified the receiver")
	}
	if !e2.HasLocation(loc) {
		t.Error("AddLocation did not add the location")
	}
	// Adding an existing location is a no-op.
	e3 := e2.AddLocation(loc)
	if len(e3.Locations) != len(e2.Locations) {
		t.Error("duplicate AddLocation should not grow the list")
	}
}

func TestNearestCopy(t *testing.T) {
	topo := cloud.Azure4DC()
	weu, _ := topo.SiteByName(cloud.SiteWestEU)
	neu, _ := topo.SiteByName(cloud.SiteNorthEU)
	scus, _ := topo.SiteByName(cloud.SiteSouthCentralUS)

	e := Entry{Name: "f", Locations: []Location{
		{Site: scus.ID, Node: 1},
		{Site: neu.ID, Node: 2},
	}}
	got, ok := e.NearestCopy(topo, weu.ID)
	if !ok || got.Site != neu.ID {
		t.Errorf("NearestCopy from WEU = %+v, want North Europe copy", got)
	}
	// A local copy always wins.
	e = e.AddLocation(Location{Site: weu.ID, Node: 3})
	got, _ = e.NearestCopy(topo, weu.ID)
	if got.Site != weu.ID {
		t.Errorf("NearestCopy with local copy = %+v, want local", got)
	}
	var empty Entry
	if _, ok := empty.NearestCopy(topo, weu.ID); ok {
		t.Error("NearestCopy on empty entry should report !ok")
	}
}

func TestEntryEqual(t *testing.T) {
	a := sampleEntry()
	b := sampleEntry()
	if !a.Equal(b) {
		t.Error("identical entries should be equal")
	}
	b.Version = 42
	if !a.Equal(b) {
		t.Error("Equal should ignore Version")
	}
	c := sampleEntry()
	c.Size = 1
	if a.Equal(c) {
		t.Error("entries with different sizes should differ")
	}
	d := sampleEntry()
	d.Locations = append(d.Locations, Location{Site: 9})
	if a.Equal(d) {
		t.Error("entries with different locations should differ")
	}
}

func TestGobCodecRoundTrip(t *testing.T) {
	e := sampleEntry()
	data, err := GobCodec{}.Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := GobCodec{}.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(e) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestCodecDecodeGarbage(t *testing.T) {
	if _, err := (GobCodec{}).Decode([]byte("not gob")); err == nil {
		t.Error("gob decode of garbage should fail")
	}
}

// Property: the codec round-trips arbitrary (valid) entries.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(name string, size uint32, producer string, site, node uint8) bool {
		if name == "" {
			return true
		}
		e := Entry{
			Name:      name,
			Size:      int64(size),
			Producer:  producer,
			Locations: []Location{{Site: cloud.SiteID(site % 4), Node: cloud.NodeID(node)}},
			Created:   time.Unix(1441713600, 0).UTC(),
		}
		data, err := GobCodec{}.Encode(e)
		if err != nil {
			return false
		}
		got, err := GobCodec{}.Decode(data)
		return err == nil && got.Equal(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: AddLocation is idempotent and never removes locations.
func TestAddLocationProperty(t *testing.T) {
	f := func(sites []uint8) bool {
		e := sampleEntry()
		for _, s := range sites {
			loc := Location{Site: cloud.SiteID(s % 8), Node: cloud.NodeID(s)}
			before := len(e.Locations)
			e = e.AddLocation(loc)
			if len(e.Locations) < before || !e.HasLocation(loc) {
				return false
			}
			again := e.AddLocation(loc)
			if len(again.Locations) != len(e.Locations) {
				return false
			}
		}
		return e.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
