package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"geomds/internal/memcache"
)

// openShared opens a log in dir with n members over fresh caches.
func openShared(t testing.TB, dir string, n int, opts ...Option) []*Durable {
	t.Helper()
	backings := make([]Backing, n)
	for i := range backings {
		backings[i] = newBacking()
	}
	ds, err := OpenShared(dir, backings, opts...)
	if err != nil {
		t.Fatalf("OpenShared(%s, %d members): %v", dir, n, err)
	}
	return ds
}

func closeAll(t testing.TB, ds []*Durable) {
	t.Helper()
	for _, d := range ds {
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// hookSync replaces the log's fsync for the rest of the test.
func hookSync(t *testing.T, fn func(*os.File) error) {
	prev := fileSync
	fileSync = fn
	t.Cleanup(func() { fileSync = prev })
}

// TestGroupCommitSharesOneSync: two members written at once, as a router's
// R=2 fan-out writes two replicas, share one fsync on one CPU. With a log
// per member every round costs two.
func TestGroupCommitSharesOneSync(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := openShared(t, t.TempDir(), 2)
	defer closeAll(t, ds)
	const rounds = 200
	before := ds[0].LogStats().Syncs
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, d := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := d.Put(fmt.Sprintf("k%d", r), []byte("v"), 0); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	syncs := ds[0].LogStats().Syncs - before
	if perRound := float64(syncs) / rounds; perRound > 1.1 {
		t.Errorf("%d fsyncs over %d rounds of two Puts = %.2f per round, want <= 1.1", syncs, rounds, perRound)
	}
}

// probe watches one member for the three effects of an acknowledged Put.
type probe struct {
	d      *Durable
	key    string
	done   chan error
	events chan uint64
}

func startPut(d *Durable, key string) *probe {
	p := &probe{d: d, key: key, done: make(chan error, 1), events: make(chan uint64, 4)}
	d.OnCommit(func(string, []byte, bool, bool) { p.events <- 0 })
	go func() {
		_, err := d.Put(key, []byte("v"), 0)
		p.done <- err
	}()
	return p
}

// pending fails the test if the Put returned, was applied or was emitted.
func (p *probe) pending(t *testing.T, when string) {
	t.Helper()
	select {
	case err := <-p.done:
		t.Fatalf("%s: Put(%s) returned (%v)", when, p.key, err)
	default:
	}
	if p.d.Contains(p.key) {
		t.Fatalf("%s: %s is applied", when, p.key)
	}
	if len(p.events) != 0 {
		t.Fatalf("%s: %s was emitted", when, p.key)
	}
}

// acked waits for the Put and checks it was applied and emitted.
func (p *probe) acked(t *testing.T) {
	t.Helper()
	if err := <-p.done; err != nil {
		t.Fatalf("Put(%s): %v", p.key, err)
	}
	if !p.d.Contains(p.key) || len(p.events) != 1 {
		t.Fatalf("Put(%s) returned: applied %v, %d events; want applied, 1", p.key, p.d.Contains(p.key), len(p.events))
	}
}

// written reports how many bytes the log has written.
func written(l *wal) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// TestAckAfterCoveringSync: a Put returns, applies and emits only after a
// sync that covers its record. A record appended while a sync is in flight
// is not covered by it and waits for the next one.
func TestAckAfterCoveringSync(t *testing.T) {
	ds := openShared(t, t.TempDir(), 2)
	entered, release := make(chan struct{}), make(chan struct{})
	hookSync(t, func(f *os.File) error {
		entered <- struct{}{}
		<-release
		return f.Sync()
	})

	a := startPut(ds[0], "a")
	<-entered // a's leader sync has begun
	a.pending(t, "while the sync covering a is in flight")
	end := written(ds[0].log)

	b := startPut(ds[1], "b")
	for written(ds[1].log) == end {
		time.Sleep(100 * time.Microsecond) // until b's record is appended
	}
	b.pending(t, "after b's record is appended behind the sync in flight")

	release <- struct{}{}
	a.acked(t)
	<-entered // b leads the next sync: the first did not cover it
	b.pending(t, "after a sync that did not cover b")
	release <- struct{}{}
	b.acked(t)

	hookSync(t, (*os.File).Sync)
	closeAll(t, ds)
}

// TestFailedGroupSyncFailsEveryMember: when the sync a group waits on fails,
// every member in the group gets the error, nothing of theirs is applied or
// emitted, and the log refuses every later write: it is fail-stop.
func TestFailedGroupSyncFailsEveryMember(t *testing.T) {
	ds := openShared(t, t.TempDir(), 2)
	put(t, ds[0], "a", "1")
	put(t, ds[1], "b", "1")
	entered, release := make(chan struct{}), make(chan struct{})
	errDisk := errors.New("injected sync failure")
	hookSync(t, func(*os.File) error {
		entered <- struct{}{}
		<-release
		return errDisk
	})

	a := startPut(ds[0], "a2")
	<-entered
	end := written(ds[0].log)
	b := startPut(ds[1], "b2")
	for written(ds[1].log) == end {
		time.Sleep(100 * time.Microsecond)
	}
	close(release) // the sync in flight fails
	for _, p := range []*probe{a, b} {
		if err := <-p.done; !errors.Is(err, errDisk) {
			t.Errorf("Put(%s) = %v, want the sync failure", p.key, err)
		}
		if p.d.Contains(p.key) || len(p.events) != 0 {
			t.Errorf("%s: applied %v, %d events after the failed sync", p.key, p.d.Contains(p.key), len(p.events))
		}
	}
	wantState(t, ds[0], map[string]string{"a": "1"})
	wantState(t, ds[1], map[string]string{"b": "1"})
	for i, d := range ds {
		if _, err := d.Put("later", []byte("x"), 0); !errors.Is(err, errDisk) {
			t.Errorf("member %d: Put after the failure = %v, want the sync failure", i, err)
		}
		if err := d.Delete("a"); i == 0 && !errors.Is(err, errDisk) {
			t.Errorf("member 0: Delete after the failure = %v, want the sync failure", err)
		}
	}
	wantState(t, ds[0], map[string]string{"a": "1"})
	for _, d := range ds {
		d.Close() //nolint:errcheck // the log is failed; Close only releases it
	}
}

// fourMemberRecovery is TestCrashRecovery's shared-log case: four
// members' records interleaved, one checkpoint, and a torn tail on the last
// member's last record. Each member recovers exactly its acknowledged
// prefix, and the checkpoint left one segment and one snapshot per member.
func fourMemberRecovery(t *testing.T) {
	const members, compact = 4, 3
	dir := t.TempDir()
	ds := openShared(t, dir, members, WithCompactEvery(compact))
	want := make([]map[string]string, members)
	for m := range want {
		want[m] = map[string]string{}
	}
	var lastSeq [members]uint64
	for r := 0; r < 5; r++ {
		for m, d := range ds {
			k, v := fmt.Sprintf("k%d", r%3), fmt.Sprintf("v%d.%d", m, r)
			put(t, d, k, v)
			want[m][k] = v
			lastSeq[m] = d.Seq()
		}
	}
	if st := ds[0].LogStats(); st.Snapshots != 1 || st.Appends != 20 {
		t.Fatalf("after 20 records at %d per member: %d checkpoints, %d appends; want 1, 20", compact, st.Snapshots, st.Appends)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Errorf("%d segments after the checkpoint, want 1", len(segs))
	}
	if snaps, _ := listSnapshots(dir); len(snaps) != members {
		t.Errorf("%d snapshots after the checkpoint, want %d", len(snaps), members)
	}
	closeAll(t, ds)

	// The last member's last record is torn: it never was acknowledged.
	truncateLastFrame(t, activeSegment(t, dir), frameHeaderLen+5)
	want[members-1]["k1"] = fmt.Sprintf("v%d.%d", members-1, 1) // round 1 wrote it before

	rs := openShared(t, dir, members)
	for m, r := range rs {
		wantState(t, r, want[m])
		wantSeq := lastSeq[m]
		if m == members-1 {
			wantSeq -= members // its previous record, a round earlier
		}
		if r.Seq() != wantSeq || r.Recovered() != wantSeq {
			t.Errorf("member %d: Seq %d, Recovered %d; want %d", m, r.Seq(), r.Recovered(), wantSeq)
		}
	}
	if st := rs[0].LogStats(); st.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", st.TornTails)
	}
	// The log goes on from the torn record's number.
	put(t, rs[members-1], "post", "recovery")
	if seq := rs[members-1].Seq(); seq != lastSeq[members-1] {
		t.Errorf("first record after recovery has seq %d, want %d", seq, lastSeq[members-1])
	}
	want[members-1]["post"] = "recovery"
	closeAll(t, rs)

	again := openShared(t, dir, members)
	defer closeAll(t, again)
	for m, r := range again {
		wantState(t, r, want[m])
	}

	// The member count is the directory's: one member fewer leaves records
	// and snapshots of a member the log does not have.
	backings := []Backing{newBacking(), newBacking(), newBacking()}
	if _, err := OpenShared(dir, backings); !errors.Is(err, ErrCorrupt) {
		t.Errorf("opening four members' log with three = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointKeepsWhatAMemberNeeds: a segment is deleted only once it
// lies below every member's snapshot, so a member that wrote nothing since
// the last checkpoint still recovers, and a crash between two members'
// snapshots loses nothing.
func TestCheckpointKeepsWhatAMemberNeeds(t *testing.T) {
	dir := t.TempDir()
	ds := openShared(t, dir, 2)
	put(t, ds[0], "a", "1")
	put(t, ds[1], "b", "1")
	if err := ds[0].Compact(); err != nil {
		t.Fatal(err)
	}
	put(t, ds[0], "a", "2")
	closeAll(t, ds)
	// Member 1's snapshot lost after the checkpoint deleted the log below
	// it: Open refuses the gap rather than open member 1 empty.
	snaps, _ := listSnapshots(dir)
	for _, s := range snaps {
		if s.member == 1 {
			os.Remove(s.path)
		}
	}
	backings := []Backing{newBacking(), newBacking()}
	if _, err := OpenShared(dir, backings); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a member's snapshot gone with the log below it: Open = %v, want ErrCorrupt", err)
	}

	// Now the crash window itself: member 0 snapshotted, member 1 not yet,
	// old segments still there.
	dir = t.TempDir()
	ds = openShared(t, dir, 2)
	put(t, ds[0], "a", "1")
	put(t, ds[1], "b", "1")
	ds[0].log.cpMu.Lock()
	ds[0].log.mu.Lock()
	if _, err := ds[0].log.rotateLocked(); err != nil {
		t.Fatal(err)
	}
	ds[0].log.mu.Unlock()
	if _, err := ds[0].snapshot(); err != nil {
		t.Fatal(err)
	}
	ds[0].log.cpMu.Unlock()
	put(t, ds[1], "b", "2")
	closeAll(t, ds)
	rs := openShared(t, dir, 2)
	defer closeAll(t, rs)
	wantState(t, rs[0], map[string]string{"a": "1"})
	wantState(t, rs[1], map[string]string{"b": "2"})
}

// TestConcurrentCheckpoints: members written at once while checkpoints run
// every few records, each checkpoint snapshotting the members one at a time
// between their writes. Each member's sequence numbers rise, and after Close
// and Open every member holds exactly what it acknowledged.
func TestConcurrentCheckpoints(t *testing.T) {
	const members, ops = 4, 200
	dir := t.TempDir()
	ds := openShared(t, dir, members, WithCompactEvery(5))
	want := make([]map[string]string, members)
	var wg sync.WaitGroup
	for m, d := range ds {
		want[m] = map[string]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq uint64
			for i := range ops {
				k := fmt.Sprintf("k%d", i%7)
				var err error
				if i%5 == 4 {
					err = d.Delete(k)
					delete(want[m], k)
				} else {
					v := fmt.Sprintf("v%d.%d", m, i)
					_, err = d.Put(k, []byte(v), 0)
					want[m][k] = v
				}
				if err != nil && !errors.Is(err, memcache.ErrNotFound) {
					t.Errorf("member %d op %d: %v", m, i, err)
					return
				}
				if s := d.Seq(); s < seq {
					t.Errorf("member %d: Seq went %d → %d", m, seq, s)
				} else {
					seq = s
				}
			}
		}()
	}
	wg.Wait()
	if st := ds[0].LogStats(); st.Snapshots == 0 || st.CompactionErrors != 0 {
		t.Fatalf("%d checkpoints, %d failed; want some, none", st.Snapshots, st.CompactionErrors)
	}
	if err := ds[0].Compact(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Errorf("%d segments after a checkpoint, want 1", len(segs))
	}
	if snaps, _ := listSnapshots(dir); len(snaps) != members {
		t.Errorf("%d snapshots after a checkpoint, want one per member", len(snaps))
	}
	closeAll(t, ds)
	rs := openShared(t, dir, members)
	defer closeAll(t, rs)
	for m, r := range rs {
		wantState(t, r, want[m])
	}
}

// TestOpenRefusesGeneration1: a directory with a segment or a snapshot of
// storage generation 1 is refused with ErrGeneration before anything in it
// is replayed, and Open leaves its files as they were.
func TestOpenRefusesGeneration1(t *testing.T) {
	gen1Segment := append([]byte(walMagicGen1), make([]byte, 64)...)
	gen1Snapshot := append([]byte(snapMagicGen1), make([]byte, 8)...)
	for _, tc := range []struct {
		name string
		file string
		data []byte
	}{
		{"segment", segmentName(0), gen1Segment}, // before the live segment
		{"snapshot", "snap-0000000000000005.db", gen1Snapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir)
			put(t, d, "a", "1")
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			live, err := os.ReadFile(activeSegment(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			backing := newBacking()
			if _, err := Open(dir, backing); !errors.Is(err, ErrGeneration) {
				t.Fatalf("Open = %v, want ErrGeneration", err)
			}
			if backing.Len() != 0 {
				t.Errorf("Open replayed %d entries before refusing", backing.Len())
			}
			for file, data := range map[string][]byte{path: tc.data, activeSegment(t, dir): live} {
				if got, _ := os.ReadFile(file); !bytes.Equal(got, data) {
					t.Errorf("Open changed %s", file)
				}
			}
		})
	}
}
