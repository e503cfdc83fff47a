package registry

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"geomds/internal/memcache"
	"geomds/internal/store"
)

// gobEntries are the entries the compatibility tests store as gob streams,
// the way Instance.Put wrote them before the entry format.
func gobEntries() []Entry {
	out := make([]Entry, 6)
	for i := range out {
		out[i] = geobenchEntry(i)
		out[i].Locations[0].Site = 2
	}
	return out
}

// leadingByte returns the first byte of the value the instance's store holds
// for name: entryFormat once the name has been written by this release.
func leadingByte(t *testing.T, inst *Instance, name string) byte {
	t.Helper()
	it, err := inst.Store().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return it.Value[0]
}

// A data directory whose WAL and snapshot hold gob values opens, every read
// path reads them, and the next write of a name stores the entry format.
func TestGobValuesOnDiskStillOpen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Compacting every four records puts some of the values in a snapshot and
	// leaves the rest in the log.
	open := func() *Instance {
		inst, err := OpenInstance(2, memcache.New(memcache.Config{}), dir,
			[]store.Option{store.WithCompactEvery(4)}, WithChangeFeed())
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	entries := gobEntries()
	names := make([]string, len(entries))
	old := open()
	for i, e := range entries {
		names[i] = e.Name
		if _, err := old.Store().Put(e.Name, gobEncode(t, e), 0); err != nil {
			t.Fatal(err)
		}
	}
	if stats := old.Storage().LogStats(); stats.Snapshots != 1 || stats.Appends != int64(len(entries)) {
		t.Fatalf("%d snapshots over %d appends, want 1 over %d", stats.Snapshots, stats.Appends, len(entries))
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	inst := open()
	for _, want := range entries {
		if b := leadingByte(t, inst, want.Name); b == entryFormat {
			t.Fatalf("%s: the stored value already starts with the format byte", want.Name)
		}
		got, err := inst.Get(ctx, want.Name)
		if err != nil || !got.Equal(want) || got.Version != 1 {
			t.Fatalf("Get(%s) = %+v, %v; want %+v at version 1", want.Name, got, err, want)
		}
	}
	checkAll := func(what string, got []Entry, err error) {
		t.Helper()
		if err != nil || len(got) != len(entries) {
			t.Fatalf("%s = %d entries, %v; want %d", what, len(got), err, len(entries))
		}
		byName := make(map[string]Entry, len(got))
		for _, e := range got {
			byName[e.Name] = e
		}
		for _, want := range entries {
			if !byName[want.Name].Equal(want) {
				t.Fatalf("%s: %s = %+v, want %+v", what, want.Name, byName[want.Name], want)
			}
		}
	}
	all, err := inst.Entries(ctx)
	checkAll("Entries", all, err)
	many, err := inst.GetMany(ctx, names)
	checkAll("GetMany", many, err)
	events, _, err := inst.FeedSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fromFeed := make([]Entry, 0, len(events))
	for _, ev := range events {
		e, err := DecodeEntry(ev.Value)
		if err != nil {
			t.Fatalf("FeedSnapshot event %s: %v", ev.Name, err)
		}
		fromFeed = append(fromFeed, e)
	}
	checkAll("FeedSnapshot", fromFeed, nil)

	// A read-modify-write and a merge read the gob value and store the new
	// form; names nobody writes keep the bytes they have.
	added := Location{Site: 3, Node: 4, Path: "copy"}
	if got, err := inst.AddLocation(ctx, names[0], added); err != nil || len(got.Locations) != 2 {
		t.Fatalf("AddLocation = %+v, %v", got, err)
	}
	update := entries[1]
	update.Locations = []Location{added}
	fresh := geobenchEntry(100)
	if n, err := inst.Merge(ctx, []Entry{update, entries[2], fresh}); err != nil || n != 2 {
		t.Fatalf("Merge applied %d, %v; want 2 (one changed, one unchanged, one new)", n, err)
	}
	for _, name := range []string{names[0], names[1], fresh.Name} {
		if b := leadingByte(t, inst, name); b != entryFormat {
			t.Errorf("%s: rewritten value starts with %#x, want the format byte", name, b)
		}
	}
	if b := leadingByte(t, inst, names[2]); b == entryFormat {
		t.Errorf("%s: a merge that changed nothing rewrote the value", names[2])
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	// Both forms side by side survive another restart.
	inst = open()
	defer inst.Close()
	for i, want := range entries {
		got, err := inst.Get(ctx, want.Name)
		if err != nil || got.Name != want.Name || !got.HasLocation(want.Locations[0]) {
			t.Fatalf("after the second restart Get(%s) = %+v, %v", want.Name, got, err)
		}
		// The first two were rewritten with a second location.
		if rewritten := i < 2; rewritten != got.HasLocation(added) {
			t.Errorf("%s after the restart: locations %+v", want.Name, got.Locations)
		}
	}
}

// A feed consumer that starts from cursor 0 meets the gob values a release
// before the entry format published, then the new form.
func TestGobValuesOnFeedStillDecode(t *testing.T) {
	ctx := context.Background()
	inst := NewInstance(2, memcache.New(memcache.Config{}), WithChangeFeed())
	defer inst.Close()
	want := gobEntries()[0]
	if _, err := inst.Store().Put(want.Name, gobEncode(t, want), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Put(ctx, want); err != nil {
		t.Fatal(err)
	}
	sub, err := inst.ChangeFeed().Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	events := collectFeed(t, sub, 2)
	for i, ev := range events {
		got, err := DecodeEntry(ev.Value)
		if err != nil || !got.Equal(want) {
			t.Fatalf("event %d decodes to %+v, %v; want %+v", i, got, err, want)
		}
	}
	if events[0].Value[0] == entryFormat || events[1].Value[0] != entryFormat {
		t.Errorf("events start with %#x and %#x, want a gob value and then the format byte", events[0].Value[0], events[1].Value[0])
	}
}

// The slice an instance hands its store is the one the feed publishes, so
// each stored value has a buffer of its own: a second write must not reach
// into the first event.
func TestStoredValuesOwnTheirBuffers(t *testing.T) {
	ctx := context.Background()
	for name, open := range map[string]func(t *testing.T) *Instance{
		"memory": func(*testing.T) *Instance {
			return NewInstance(2, memcache.New(memcache.Config{}), WithChangeFeed())
		},
		"durable": func(t *testing.T) *Instance {
			inst, err := OpenInstance(2, memcache.New(memcache.Config{}), t.TempDir(), nil, WithChangeFeed())
			if err != nil {
				t.Fatal(err)
			}
			return inst
		},
	} {
		t.Run(name, func(t *testing.T) {
			inst := open(t)
			defer inst.Close()
			sub, err := inst.ChangeFeed().Subscribe(0)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			first, second := geobenchEntry(1), geobenchEntry(2)
			if _, err := inst.Put(ctx, first); err != nil {
				t.Fatal(err)
			}
			if _, err := inst.PutMany(ctx, []Entry{second, geobenchEntry(3)}); err != nil {
				t.Fatal(err)
			}
			events := collectFeed(t, sub, 3)
			for i, want := range []Entry{first, second, geobenchEntry(3)} {
				if !bytes.Equal(events[i].Value, AppendEntry(nil, want)) {
					t.Errorf("event %d carries %x, want the encoding of %s", i, events[i].Value, want.Name)
				}
			}
		})
	}
}

// A stored value that is neither form fails the operation that meets it, with
// the operation and the name in the error.
func TestUndecodableStoredValueIsAnError(t *testing.T) {
	ctx := context.Background()
	inst := NewInstance(2, memcache.New(memcache.Config{}))
	if _, err := inst.Store().Put("bad", []byte{entryFormat, 0x80}, 0); err != nil {
		t.Fatal(err)
	}
	_, getErr := inst.Get(ctx, "bad")
	_, updateErr := inst.AddLocation(ctx, "bad", Location{Site: 1})
	_, entriesErr := inst.Entries(ctx)
	_, manyErr := inst.GetMany(ctx, []string{"bad"})
	_, mergeErr := inst.Merge(ctx, []Entry{{Name: "bad"}})
	for op, err := range map[string]error{
		`get "bad"`: getErr, `update "bad"`: updateErr, `entries: decoding "bad"`: entriesErr,
		`get-many: decoding "bad"`: manyErr, `merge: decoding "bad"`: mergeErr,
	} {
		if !errors.Is(err, errEntryTruncated) || !strings.HasPrefix(err.Error(), op) {
			t.Errorf("%s over an undecodable value = %v", op, err)
		}
	}
}
