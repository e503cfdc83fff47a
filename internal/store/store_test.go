package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geomds/internal/memcache"
)

func newBacking() *memcache.Cache { return memcache.New(memcache.Config{}) }

// mustOpen opens a store over a fresh backing cache, failing the test on
// error.
func mustOpen(t *testing.T, dir string, opts ...Option) *Durable {
	t.Helper()
	d, err := Open(dir, newBacking(), opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d
}

// put stores key=value, failing the test on error.
func put(t *testing.T, d *Durable, key, value string) {
	t.Helper()
	if _, err := d.Put(key, []byte(value), 0); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

// wantState asserts the store holds exactly the given key=value pairs.
func wantState(t *testing.T, d *Durable, want map[string]string) {
	t.Helper()
	if got := d.Len(); got != len(want) {
		t.Errorf("Len() = %d, want %d (keys: %v)", got, len(want), d.Keys())
	}
	for k, v := range want {
		it, err := d.Get(k)
		if err != nil {
			t.Errorf("Get(%q): %v", k, err)
			continue
		}
		if string(it.Value) != v {
			t.Errorf("Get(%q) = %q, want %q", k, it.Value, v)
		}
	}
}

// activeSegment returns the path of the newest WAL segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments(%s): %v (%d segments)", dir, err, len(segs))
	}
	return segs[len(segs)-1].path
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	put(t, d, "a", "1")
	put(t, d, "b", "2")
	put(t, d, "a", "3")
	if err := d.Delete("b"); err != nil {
		t.Fatalf("Delete(b): %v", err)
	}
	if _, err := d.PutBatch([]memcache.KV{{Key: "c", Value: []byte("4")}, {Key: "d", Value: []byte("5")}}); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if seq := d.Seq(); seq != 6 {
		t.Errorf("Seq() = %d, want 6 (3 puts + 1 delete + 2 batched puts)", seq)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir)
	defer r.Close()
	wantState(t, r, map[string]string{"a": "3", "c": "4", "d": "5"})
	if r.Recovered() != 6 || r.Seq() != 6 {
		t.Errorf("Recovered()/Seq() = %d/%d, want 6/6", r.Recovered(), r.Seq())
	}
}

// TestCrashRecovery is the table-driven torn-write/corruption suite: each
// case builds a store with a known state, closes it, damages the files the
// way a specific crash would, and asserts what recovery must do.
func TestCrashRecovery(t *testing.T) {
	// Every case starts from the same five acknowledged writes, and some
	// add a last write of their own.
	seed := func(t *testing.T, dir string, last func(*Durable) error) {
		d := mustOpen(t, dir)
		for i := 1; i <= 5; i++ {
			put(t, d, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		}
		if last != nil {
			if err := last(d); err != nil {
				t.Fatalf("last write: %v", err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	full := map[string]string{"k1": "v1", "k2": "v2", "k3": "v3", "k4": "v4", "k5": "v5"}
	allButLast := map[string]string{"k1": "v1", "k2": "v2", "k3": "v3", "k4": "v4"}
	bigPut := func(d *Durable) error {
		_, err := d.Put("big", bytes.Repeat([]byte("b"), 4096), 0)
		return err
	}
	// A batch that spans several pages, whose first frame holds a sector.
	bigBatch := func(d *Durable) error {
		kvs := []memcache.KV{{Key: "big", Value: bytes.Repeat([]byte("b"), 4096)}}
		for i := 0; i < 64; i++ {
			kvs = append(kvs, memcache.KV{Key: fmt.Sprintf("batch%d", i), Value: bytes.Repeat([]byte("v"), 200)})
		}
		_, err := d.PutBatch(kvs)
		return err
	}

	cases := []struct {
		name    string
		last    func(*Durable) error // an extra write after the five, or nil
		damage  func(t *testing.T, dir string)
		want    map[string]string // nil means Open must fail with ErrCorrupt
		torn    int64
		skipped int64
	}{
		{
			name: "truncated_tail_header",
			damage: func(t *testing.T, dir string) {
				// Crash after 3 bytes of the last frame's header hit disk.
				truncateLastFrame(t, activeSegment(t, dir), 3)
			},
			want: allButLast,
			torn: 1,
		},
		{
			name: "truncated_tail_payload",
			damage: func(t *testing.T, dir string) {
				// Crash mid-payload: header complete, payload half written.
				truncateLastFrame(t, activeSegment(t, dir), frameHeaderLen+5)
			},
			want: allButLast,
			torn: 1,
		},
		{
			name: "corrupt_tail_checksum",
			damage: func(t *testing.T, dir string) {
				// Bit rot (or a lost sector) inside the final frame: the frame
				// is complete but its checksum fails. With nothing but zeros
				// after it that is indistinguishable from a torn write, so it
				// is truncated.
				flipByteInFrame(t, activeSegment(t, dir), -1)
			},
			want: allButLast,
			torn: 1,
		},
		{
			name: "corrupt_tail_checksum_then_bytes",
			damage: func(t *testing.T, dir string) {
				// The same flip, but with non-zero bytes after the frame: no
				// append leaves that, so it is damage, not a torn write.
				flipByteInFrame(t, activeSegment(t, dir), -1)
				rewrite(t, activeSegment(t, dir), func(data []byte, _ []int, end int) []byte {
					copy(data[end:], bytes.Repeat([]byte{0xA5}, 16))
					return data
				})
			},
			want: nil,
		},
		{
			name: "zeroed_sector_in_last_frame",
			last: bigPut,
			damage: func(t *testing.T, dir string) {
				// A power loss kept one sector of the last append, a large
				// value, from the disk.
				zeroSectorInFrame(t, activeSegment(t, dir), -1)
			},
			want: full,
			torn: 1,
		},
		{
			name: "zeroed_sector_mid_batch",
			last: bigBatch,
			damage: func(t *testing.T, dir string) {
				// The same inside the first frame of a batch whose later
				// frames did reach the disk: the frame covering a zeroed
				// sector marks a torn append, not damage.
				zeroSectorInFrame(t, activeSegment(t, dir), 5)
			},
			want: full,
			torn: 1,
		},
		{
			name: "batch_first_page_zeroed",
			last: bigBatch,
			damage: func(t *testing.T, dir string) {
				// The batch's first page never reached the disk, its later
				// ones did: its first length word reads 0, which ends the log
				// before the batch.
				rewrite(t, activeSegment(t, dir), func(data []byte, offs []int, _ int) []byte {
					from := offs[5]
					clear(data[from : (from+frameHeaderLen+4095)&^4095])
					return data
				})
			},
			want: full,
		},
		{
			name: "append_only_layout",
			damage: func(t *testing.T, dir string) {
				// A segment with no zero tail, as releases that appended to
				// a growing file wrote it: it opens, and is appended to.
				path := activeSegment(t, dir)
				_, end := frameOffsets(t, path)
				if err := os.Truncate(path, int64(end)); err != nil {
					t.Fatal(err)
				}
			},
			want: full,
		},
		{
			name: "corrupt_middle_record",
			damage: func(t *testing.T, dir string) {
				// Damage an early frame with intact records after it: replay
				// must refuse rather than silently drop the suffix.
				flipByteInFrame(t, activeSegment(t, dir), 0)
			},
			want: nil,
		},
		{
			name: "empty_segment_file",
			damage: func(t *testing.T, dir string) {
				// Crash between creating the segment file and writing its
				// magic. Only possible for the newest segment; recovery drops
				// the file and starts a fresh one.
				if err := os.Truncate(activeSegment(t, dir), 0); err != nil {
					t.Fatal(err)
				}
			},
			want: map[string]string{},
			torn: 1,
		},
		{
			name: "partial_snapshot_falls_back_to_log",
			damage: func(t *testing.T, dir string) {
				// An invalid snapshot (here: claiming a future sequence
				// number, cut before its footer) must not shadow the log:
				// recovery skips it and replays from the start.
				writeTruncatedSnapshot(t, dir, 99)
			},
			want:    full,
			skipped: 1,
		},
		{
			name: "empty_snapshot_file",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, snapshotName(98)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want:    full,
			skipped: 1,
		},
		{
			name: "sequence_gap_refused",
			damage: func(t *testing.T, dir string) {
				// Delete a whole record from the middle of the log (seq gap):
				// recovery must fail loudly, not resurrect a hole.
				removeFrame(t, activeSegment(t, dir), 1)
			},
			want: nil,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seed(t, dir, tc.last)
			tc.damage(t, dir)

			d, err := Open(dir, newBacking())
			if tc.want == nil {
				if err == nil {
					d.Close()
					t.Fatal("Open succeeded, want ErrCorrupt")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open error = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer d.Close()
			wantState(t, d, tc.want)
			// Open cut the active segment to its log end (or started a
			// fresh one), so no byte of a torn append is left behind it.
			seg := activeSegment(t, dir)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, end := frameOffsets(t, seg); fi.Size() != int64(end) && (end != len(walMagic) || fi.Size() != segmentChunk) {
				t.Errorf("after Open the active segment is %d bytes, its log ends at %d", fi.Size(), end)
			}
			st := d.LogStats()
			if st.TornTails != tc.torn {
				t.Errorf("TornTails = %d, want %d", st.TornTails, tc.torn)
			}
			if st.SnapshotsSkipped != tc.skipped {
				t.Errorf("SnapshotsSkipped = %d, want %d", st.SnapshotsSkipped, tc.skipped)
			}

			// The store must accept new writes after recovery and survive
			// another clean restart — the torn tail is gone for good, not
			// skipped again.
			put(t, d, "post", "recovery")
			if err := d.Close(); err != nil {
				t.Fatalf("Close after recovery: %v", err)
			}
			r := mustOpen(t, dir)
			defer r.Close()
			want := make(map[string]string, len(tc.want)+1)
			for k, v := range tc.want {
				want[k] = v
			}
			want["post"] = "recovery"
			wantState(t, r, want)
			if st := r.LogStats(); st.TornTails != 0 {
				t.Errorf("reopen after recovery: TornTails = %d, want 0", st.TornTails)
			}
		})
	}
}

// TestReplayIdempotence proves replaying the same records more than once
// converges to the same state: records at or below the snapshot's sequence
// number are skipped, and repeated open/close cycles are stable.
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 1; i <= 8; i++ {
		put(t, d, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := d.Delete("k8"); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	base := d.Seq()
	put(t, d, "k9", "v9")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recreate a stale pre-compaction segment holding duplicates of records
	// the snapshot already covers (the crash window where compaction
	// published its snapshot but not yet deleted the old log).
	var stale []byte
	stale = append(stale, walMagic...)
	for i := 1; i <= 8; i++ {
		stale = appendRecordFrame(stale, uint64(i), opPut, fmt.Sprintf("k%d", i), []byte("STALE"))
	}
	stale = appendRecordFrame(stale, uint64(base), opDelete, "k8", nil)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"k1": "v1", "k2": "v2", "k3": "v3", "k4": "v4",
		"k5": "v5", "k6": "v6", "k7": "v7", "k9": "v9",
	}
	for round := 0; round < 3; round++ {
		r := mustOpen(t, dir)
		wantState(t, r, want)
		if r.Seq() != base+1 {
			t.Fatalf("round %d: Seq() = %d, want %d", round, r.Seq(), base+1)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotCombinesWithNewerLog covers the normal compaction cycle: a
// valid snapshot plus records logged after it recover to the merged state,
// and superseded files are gone.
func TestSnapshotCombinesWithNewerLog(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithCompactEvery(10))
	for i := 1; i <= 25; i++ {
		put(t, d, fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i))
	}
	if st := d.LogStats(); st.Snapshots == 0 {
		t.Fatalf("no snapshot after 25 writes with compactEvery=10: %+v", st)
	}
	if err := d.Delete("k0"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Errorf("superseded segments not deleted: %d remain", len(segs))
	}
	if snaps, _ := listSnapshots(dir); len(snaps) != 1 {
		t.Errorf("superseded snapshots not deleted: %d remain", len(snaps))
	}

	r := mustOpen(t, dir)
	defer r.Close()
	wantState(t, r, map[string]string{
		"k1": "v22", "k2": "v23", "k3": "v24", "k4": "v25", "k5": "v19", "k6": "v20",
	})
	if r.Seq() != 26 {
		t.Errorf("Seq() = %d, want 26", r.Seq())
	}
}

// TestCloseFlushesUnderFsyncNever pins the Close contract: even under
// FsyncNever — where acknowledged appends are never individually synced —
// Close must flush and fsync before returning, so Close → Open is lossless.
func TestCloseFlushesUnderFsyncNever(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithFsync(FsyncNever), WithCompactEvery(1<<30))
	for i := 0; i < 100; i++ {
		put(t, d, fmt.Sprintf("k%d", i), "v")
	}
	if st := d.LogStats(); st.Syncs != 0 {
		t.Fatalf("FsyncNever issued %d syncs on the append path, want 0", st.Syncs)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := d.LogStats(); st.Syncs != 1 {
		t.Errorf("Close issued %d syncs, want exactly 1", st.Syncs)
	}

	// Close is idempotent, and the store refuses writes afterwards.
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := d.Put("late", []byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if err := d.Delete("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}

	r := mustOpen(t, dir)
	defer r.Close()
	if r.Len() != 100 || r.Recovered() != 100 {
		t.Errorf("reopen after FsyncNever Close: Len=%d Recovered=%d, want 100/100", r.Len(), r.Recovered())
	}
}

func TestFsyncAlwaysSyncsEveryAppend(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	defer d.Close()
	put(t, d, "a", "1")
	put(t, d, "b", "2")
	if _, err := d.PutBatch([]memcache.KV{{Key: "c"}, {Key: "d"}}); err != nil {
		t.Fatal(err)
	}
	// One sync per append batch: two singles plus one batch.
	if st := d.LogStats(); st.Syncs != 3 || st.Appends != 4 {
		t.Errorf("Syncs/Appends = %d/%d, want 3/4", st.Syncs, st.Appends)
	}
}

// TestFailedMutationsNotLogged: operations the backing store rejected leave
// no trace in the log, so replay cannot invent state transitions that never
// happened.
func TestFailedMutationsNotLogged(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	defer d.Close()
	put(t, d, "a", "1")
	before := d.Seq()

	if _, err := d.CAS("a", []byte("2"), 0, 42); !errors.Is(err, memcache.ErrVersionConflict) {
		t.Fatalf("CAS with stale version = %v, want ErrVersionConflict", err)
	}
	if err := d.Delete("missing"); !errors.Is(err, memcache.ErrNotFound) {
		t.Fatalf("Delete(missing) = %v, want ErrNotFound", err)
	}
	if d.Seq() != before {
		t.Errorf("failed mutations advanced Seq from %d to %d", before, d.Seq())
	}

	// A successful CAS is journaled as a put.
	it, err := d.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CAS("a", []byte("2"), 0, it.Version); err != nil {
		t.Fatal(err)
	}
	if d.Seq() != before+1 {
		t.Errorf("successful CAS did not advance Seq (%d, want %d)", d.Seq(), before+1)
	}
}

// TestFailedAppendChangesNothing: a mutation the log could not take returns
// an error and is neither served, nor emitted, nor recovered — the log comes
// first, so the store never applies a write it does not hold.
func TestFailedAppendChangesNothing(t *testing.T) {
	mutations := []struct {
		name string
		fn   func(d *Durable) error
	}{
		{"Put", func(d *Durable) error { _, err := d.Put("a", []byte("new"), 0); return err }},
		{"CAS", func(d *Durable) error { _, err := d.CAS("a", []byte("new"), 0, 1); return err }}, // a's first version
		{"Delete", func(d *Durable) error { return d.Delete("a") }},
		{"PutBatch", func(d *Durable) error {
			_, err := d.PutBatch([]memcache.KV{{Key: "a", Value: []byte("new")}, {Key: "c", Value: []byte("3")}})
			return err
		}},
		{"DeleteBatch", func(d *Durable) error { _, err := d.DeleteBatch([]string{"a", "b"}); return err }},
	}
	before := map[string]string{"a": "1", "b": "2"}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir)
			put(t, d, "a", "1")
			put(t, d, "b", "2")
			var events int
			d.SetEventSink(func(uint64, byte, string, []byte, bool) { events++ })

			// Swap the segment for a read-only handle: every write to it
			// fails, as on a full or failing disk.
			ro, err := os.Open(activeSegment(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			d.mu.Lock()
			rw := d.f
			d.f = ro
			d.mu.Unlock()
			rw.Close()

			err = m.fn(d)
			if err == nil {
				t.Fatalf("%s succeeded with an unwritable log", m.name)
			}
			if errors.Is(err, memcache.ErrVersionConflict) || errors.Is(err, memcache.ErrNotFound) {
				t.Fatalf("%s failed its precondition (%v), not at the log", m.name, err)
			}
			wantState(t, d, before)
			if d.Contains("c") {
				t.Error(`Contains("c") after the failed write`)
			}
			if events != 0 {
				t.Errorf("the sink saw %d events of a failed write", events)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, dir)
			defer r.Close()
			wantState(t, r, before)
		})
	}
}

// TestDeleteBatchReplaysAbsentKeys: bulk deletes journal every requested
// key, including absent ones, and replaying those extra deletes is a no-op.
func TestDeleteBatchReplaysAbsentKeys(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	put(t, d, "a", "1")
	put(t, d, "b", "2")
	n, err := d.DeleteBatch([]string{"a", "ghost", "phantom"})
	if err != nil || n != 1 {
		t.Fatalf("DeleteBatch = (%d, %v), want (1, nil)", n, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	defer r.Close()
	wantState(t, r, map[string]string{"b": "2"})
}

func TestFsyncPolicySet(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"", FsyncAlways, true},
		{"never", FsyncNever, true},
		{"sometimes", FsyncAlways, false},
	} {
		var got FsyncPolicy
		err := got.Set(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("Set(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if FsyncAlways.String() != "always" || FsyncNever.String() != "never" {
		t.Errorf("String() round-trip broken: %q/%q", FsyncAlways, FsyncNever)
	}
}

// --- file-surgery helpers -------------------------------------------------

// frameOffsets returns the byte offset of every frame in a segment file and
// the offset where its log ends: EOF or the first zero length word.
func frameOffsets(t *testing.T, path string) (offs []int, end int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagic)
	for off < len(data) && !(off+4 <= len(data) && binary.BigEndian.Uint32(data[off:]) == 0) {
		if off+frameHeaderLen > len(data) {
			t.Fatalf("segment %s already torn at %d", path, off)
		}
		offs = append(offs, off)
		off += frameHeaderLen + int(binary.BigEndian.Uint32(data[off:]))
	}
	return offs, off
}

// truncateLastFrame cuts the file so only keep bytes of its last frame
// survive.
func truncateLastFrame(t *testing.T, path string, keep int) {
	t.Helper()
	offs, _ := frameOffsets(t, path)
	if err := os.Truncate(path, int64(offs[len(offs)-1]+keep)); err != nil {
		t.Fatal(err)
	}
}

// rewrite applies fn to the bytes of the file at path, given its frame
// offsets and log end.
func rewrite(t *testing.T, path string, fn func(data []byte, offs []int, end int) []byte) {
	t.Helper()
	offs, end := frameOffsets(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data, offs, end), 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipByteInFrame corrupts one payload byte of the idx'th frame; a negative
// idx counts from the last frame.
func flipByteInFrame(t *testing.T, path string, idx int) {
	t.Helper()
	rewrite(t, path, func(data []byte, offs []int, _ int) []byte {
		if idx < 0 {
			idx += len(offs)
		}
		data[offs[idx]+frameHeaderLen] ^= 0xFF
		return data
	})
}

// zeroSectorInFrame zeroes the first whole file-aligned sector inside the
// payload of the idx'th frame (negative counts from the last), as a power
// loss that kept that sector of an append from the disk would.
func zeroSectorInFrame(t *testing.T, path string, idx int) {
	t.Helper()
	rewrite(t, path, func(data []byte, offs []int, end int) []byte {
		if idx < 0 {
			idx += len(offs)
		}
		frameEnd := end
		if idx+1 < len(offs) {
			frameEnd = offs[idx+1]
		}
		s := (offs[idx] + frameHeaderLen + sectorSize - 1) &^ (sectorSize - 1)
		if s+sectorSize > frameEnd {
			t.Fatalf("frame %d [%d, %d) covers no whole sector", idx, offs[idx], frameEnd)
		}
		clear(data[s : s+sectorSize])
		return data
	})
}

// writeTruncatedSnapshot writes a snapshot that begins validly but is cut
// before its footer — the shape of a crash mid-snapshot-write.
func writeTruncatedSnapshot(t *testing.T, dir string, seq uint64) {
	t.Helper()
	var buf []byte
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	payload := []byte{snapKindKV}
	payload = binary.BigEndian.AppendUint32(payload, 1)
	payload = append(payload, 'x')
	payload = binary.BigEndian.AppendUint32(payload, 1)
	payload = append(payload, 'y')
	buf = appendFrame(buf, payload)
	// No footer: the file ends as if the machine died here.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// removeFrame deletes the idx'th frame wholesale, leaving valid frames on
// both sides — a sequence gap.
func removeFrame(t *testing.T, path string, idx int) {
	t.Helper()
	rewrite(t, path, func(data []byte, offs []int, end int) []byte {
		if idx+1 < len(offs) {
			end = offs[idx+1]
		}
		return append(data[:offs[idx]:offs[idx]], data[end:]...)
	})
}

// sinkEvent is one EventSink invocation.
type sinkEvent struct {
	seq  uint64
	op   byte
	key  string
	val  string
	sync bool
}

// TestEventSinkSeesLogOrder pins the guarantee the change feed is built on:
// the sink observes every state-changing append exactly once, in sequence
// order, single-key writes unmarked and bulk-apply records carrying the sync
// mark, deletes of absent keys suppressed (a hole in the sequence, not an
// event), and nothing once the store is closed.
func TestEventSinkSeesLogOrder(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	var got []sinkEvent
	d.SetEventSink(func(seq uint64, op byte, key string, value []byte, sync bool) {
		got = append(got, sinkEvent{seq, op, key, string(value), sync})
	})

	put(t, d, "a", "1") // seq 1

	// seq 2, 3
	if _, err := d.PutBatch([]memcache.KV{{Key: "b", Value: []byte("2")}, {Key: "c", Value: []byte("3")}}); err != nil {
		t.Fatal(err)
	}
	it, err := d.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	// seq 4
	if _, err := d.CAS("a", []byte("1'"), 0, it.Version); err != nil {
		t.Fatal(err)
	}
	// seq 5
	if err := d.Delete("b"); err != nil {
		t.Fatal(err)
	}
	// seq 6 (the absent key: journaled, no event) and 7
	if n, err := d.DeleteBatch([]string{"ghost", "c"}); err != nil || n != 1 {
		t.Fatalf("DeleteBatch = %d, %v, want 1 removed", n, err)
	}

	want := []sinkEvent{
		{1, OpPut, "a", "1", false},
		{2, OpPut, "b", "2", true},
		{3, OpPut, "c", "3", true},
		{4, OpPut, "a", "1'", false},
		{5, OpDelete, "b", "", false},
		{7, OpDelete, "c", "", true},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sink saw\n  %v\nwant\n  %v", got, want)
	}
	if d.Seq() != 7 {
		t.Fatalf("Seq() = %d, want 7 (the absent-key delete is journaled, just not emitted)", d.Seq())
	}

	// The pass-through reads answer from the backing store, sink or not.
	if !d.Contains("a") || d.Contains("b") {
		t.Errorf("Contains: a=%v b=%v, want true false", d.Contains("a"), d.Contains("b"))
	}
	if keys := d.Keys(); len(keys) != 1 || keys[0] != "a" {
		t.Errorf("Keys() = %v, want [a]", keys)
	}
	if snap := d.Snapshot(); len(snap) != 1 || string(snap[0].Value) != "1'" {
		t.Errorf("Snapshot() = %v, want a=1'", snap)
	}
	items, missing, err := d.GetBatch([]string{"a", "b"})
	if err != nil || len(items) != 1 || len(missing) != 1 || missing[0] != "b" {
		t.Errorf("GetBatch = %v, missing %v, %v; want a found, b missing", items, missing, err)
	}
	if n := d.Len(); n != 1 {
		t.Errorf("Len() = %d, want 1", n)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put("late", []byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := d.DeleteBatch([]string{"a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("DeleteBatch after Close = %v, want ErrClosed", err)
	}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d events after Close, want none past the %d before it", len(got)-len(want), len(want))
	}
}
