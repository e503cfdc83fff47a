package dht

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"geomds/internal/cloud"
)

func sites(n int) []cloud.SiteID {
	out := make([]cloud.SiteID, n)
	for i := range out {
		out[i] = cloud.SiteID(i)
	}
	return out
}

// without returns the members minus the given sites: the membership a
// placer has after they leave.
func without(members []cloud.SiteID, gone ...cloud.SiteID) []cloud.SiteID {
	return slices.DeleteFunc(slices.Clone(members), func(s cloud.SiteID) bool { return slices.Contains(gone, s) })
}

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("file-%06d.fits", i)
	}
	return keys
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64("montage/p1.fits") != Hash64("montage/p1.fits") {
		t.Error("Hash64 must be deterministic")
	}
	if Hash64("a") == Hash64("b") {
		t.Error("different keys should (almost surely) hash differently")
	}
}

func TestModuloPlacerEmpty(t *testing.T) {
	p := NewModuloPlacer(nil)
	if got := p.Home("k"); got != cloud.NoSite {
		t.Errorf("Home on empty placer = %v, want NoSite", got)
	}
	if len(p.Sites()) != 0 {
		t.Error("Sites should be empty")
	}
}

func TestModuloPlacerStability(t *testing.T) {
	// Two placers constructed with the same membership in different orders
	// must agree on every placement.
	a := NewModuloPlacer([]cloud.SiteID{2, 0, 3, 1})
	b := NewModuloPlacer([]cloud.SiteID{0, 1, 2, 3})
	for _, k := range sampleKeys(500) {
		if a.Home(k) != b.Home(k) {
			t.Fatalf("placers disagree on %q", k)
		}
	}
}

// TestModuloPlacerAddRemove: a duplicate site counts once, and a placer
// built without a site places nothing on it, whether or not the site was a
// member before.
func TestModuloPlacerAddRemove(t *testing.T) {
	p := NewModuloPlacer(append(sites(4), 2))
	if len(p.Sites()) != 4 {
		t.Fatalf("Sites = %v, want 4 entries", p.Sites())
	}
	p = NewModuloPlacer(without(sites(4), 2))
	if len(p.Sites()) != 3 {
		t.Fatalf("Sites without site 2 = %v", p.Sites())
	}
	for _, k := range sampleKeys(200) {
		if p.Home(k) == 2 {
			t.Fatalf("key %q still placed on removed site", k)
		}
	}
	p = NewModuloPlacer(without(sites(4), 2, 99))
	if len(p.Sites()) != 3 {
		t.Error("leaving out an absent site changed membership")
	}
}

func TestModuloPlacerUniformity(t *testing.T) {
	p := NewModuloPlacer(sites(4))
	keys := sampleKeys(8000)
	dist := Distribution(p, keys)
	for s, n := range dist {
		if n < 1600 || n > 2400 {
			t.Errorf("site %d owns %d of 8000 keys; want roughly 2000 (+/-20%%)", s, n)
		}
	}
}

func TestRingPlacerEmpty(t *testing.T) {
	p := NewRingPlacer(nil, 16)
	if got := p.Home("k"); got != cloud.NoSite {
		t.Errorf("Home on empty ring = %v, want NoSite", got)
	}
}

func TestRingPlacerMembership(t *testing.T) {
	p := NewRingPlacer(sites(4), 64)
	got := p.Sites()
	if len(got) != 4 {
		t.Fatalf("Sites = %v", got)
	}
	p = NewRingPlacer(append(sites(4), 1), 64) // a duplicate counts once
	if len(p.Sites()) != 4 || len(p.ring) != 4*64 {
		t.Errorf("a duplicate site changed membership: %v, %d points", p.Sites(), len(p.ring))
	}
	p = NewRingPlacer(without(sites(4), 3), 64)
	if len(p.Sites()) != 3 {
		t.Error("leaving out site 3 failed")
	}
	for _, k := range sampleKeys(500) {
		if p.Home(k) == 3 {
			t.Fatalf("key %q still on removed site", k)
		}
	}
}

func TestRingPlacerDefaultVirtualNodes(t *testing.T) {
	p := NewRingPlacer(sites(2), 0)
	if len(p.ring) != 2*DefaultVirtualNodes {
		t.Errorf("ring points = %d, want %d", len(p.ring), 2*DefaultVirtualNodes)
	}
}

func TestRingPlacerUniformity(t *testing.T) {
	p := NewRingPlacer(sites(4), 256)
	keys := sampleKeys(8000)
	dist := Distribution(p, keys)
	for s, n := range dist {
		if n < 1200 || n > 2800 {
			t.Errorf("site %d owns %d of 8000 keys; want roughly 2000 (+/-40%%)", s, n)
		}
	}
}

func TestRingChurnMovesFewKeys(t *testing.T) {
	keys := sampleKeys(5000)
	before := NewRingPlacer(sites(4), 128)
	after := NewRingPlacer(sites(5), 128) // one site joins
	_, frac := Moved(before, after, keys)
	// Consistent hashing should move about 1/5 of the keys; far less than the
	// near-total remapping of modulo hashing.
	if frac > 0.35 {
		t.Errorf("ring churn moved %.0f%% of keys, want <= 35%%", frac*100)
	}

	modBefore := NewModuloPlacer(sites(4))
	modAfter := NewModuloPlacer(sites(5))
	_, modFrac := Moved(modBefore, modAfter, keys)
	if modFrac <= frac {
		t.Errorf("modulo churn (%.2f) should exceed ring churn (%.2f)", modFrac, frac)
	}
}

// TestRingMembershipChangeBounds pins down the §VIII "server volatility"
// claim the shard router relies on: when a member joins a consistent-hash
// ring, only the keys the newcomer now owns move — survivors never shuffle
// keys among themselves — and the moved fraction stays near the ideal 1/(n+1).
// Symmetrically, when a member leaves, exactly the keys it owned move.
func TestRingMembershipChangeBounds(t *testing.T) {
	keys := sampleKeys(20000)
	for _, n := range []int{2, 4, 8} {
		before := NewRingPlacer(sites(n), 128)
		after := NewRingPlacer(sites(n+1), 128)
		joiner := cloud.SiteID(n)

		moved, frac := Moved(before, after, keys)
		ideal := 1.0 / float64(n+1)
		if frac < ideal/2 || frac > 2*ideal {
			t.Errorf("n=%d: join moved %.1f%% of keys; want within [%.1f%%, %.1f%%] of the ideal %.1f%%",
				n, frac*100, ideal*50, ideal*200, ideal*100)
		}
		// Every moved key must have moved *to* the joiner.
		shuffled := 0
		for _, k := range keys {
			if b, a := before.Home(k), after.Home(k); b != a && a != joiner {
				shuffled++
			}
		}
		if shuffled != 0 {
			t.Errorf("n=%d: join shuffled %d of %d moved keys between surviving members", n, shuffled, moved)
		}

		// Leave: the joiner withdraws again; exactly its keys move back and
		// the survivors recover the original placement.
		back := NewRingPlacer(without(sites(n+1), joiner), 128)
		if backMoved, backFrac := Moved(before, back, keys); backMoved != 0 {
			t.Errorf("n=%d: leave did not restore the original placement (%.1f%% still moved)", n, backFrac*100)
		}

		// Leave from the original ring: only the leaver's keys move.
		leaver := cloud.SiteID(0)
		owned := Distribution(before, keys)[leaver]
		shrunk := NewRingPlacer(without(sites(n), leaver), 128)
		leaveMoved, _ := Moved(before, shrunk, keys)
		if leaveMoved != owned {
			t.Errorf("n=%d: leave moved %d keys, want exactly the %d the leaver owned", n, leaveMoved, owned)
		}
	}
}

func TestMovedEmptyKeys(t *testing.T) {
	p := NewModuloPlacer(sites(2))
	n, frac := Moved(p, p, nil)
	if n != 0 || frac != 0 {
		t.Error("Moved on empty keys should be zero")
	}
}

func TestMovedIdenticalPlacers(t *testing.T) {
	p := NewRingPlacer(sites(4), 64)
	q := NewRingPlacer(sites(4), 64)
	n, frac := Moved(p, q, sampleKeys(1000))
	if n != 0 || frac != 0 {
		t.Errorf("identical placers moved %d keys", n)
	}
}

// Property: both placers always return a member site for any key when the
// membership is non-empty, and the same key always maps to the same site.
func TestPlacerTotalityProperty(t *testing.T) {
	f := func(key string, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		members := make(map[cloud.SiteID]bool)
		for _, s := range sites(n) {
			members[s] = true
		}
		mod := NewModuloPlacer(sites(n))
		ring := NewRingPlacer(sites(n), 32)
		hm1, hm2 := mod.Home(key), mod.Home(key)
		hr1, hr2 := ring.Home(key), ring.Home(key)
		return hm1 == hm2 && hr1 == hr2 && members[hm1] && members[hr1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: removing a site never leaves placements pointing at it.
func TestRemovePlacementProperty(t *testing.T) {
	f := func(keys []string, removeRaw uint8) bool {
		remove := cloud.SiteID(removeRaw % 4)
		mod := NewModuloPlacer(without(sites(4), remove))
		ring := NewRingPlacer(without(sites(4), remove), 32)
		for _, k := range keys {
			if mod.Home(k) == remove || ring.Home(k) == remove {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHomesPrimaryMatchesHome pins that the successor list starts at the
// key's primary: Homes(k, 1) is exactly [Home(k)] on both placers.
func TestHomesPrimaryMatchesHome(t *testing.T) {
	mod := NewModuloPlacer(sites(5))
	ring := NewRingPlacer(sites(5), 32)
	for _, key := range sampleKeys(500) {
		if got := mod.Homes(key, 1); len(got) != 1 || got[0] != mod.Home(key) {
			t.Fatalf("modulo Homes(%q, 1) = %v, Home = %d", key, got, mod.Home(key))
		}
		if got := ring.Homes(key, 1); len(got) != 1 || got[0] != ring.Home(key) {
			t.Fatalf("ring Homes(%q, 1) = %v, Home = %d", key, got, ring.Home(key))
		}
	}
}

// TestHomesDistinctAndBounded pins the successor-list contract on both
// placers: no site appears twice, the length is min(n, membership), and
// asking for more sites than exist returns every member exactly once.
func TestHomesDistinctAndBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Placer
	}{
		{"modulo", NewModuloPlacer(sites(4))},
		{"ring", NewRingPlacer(sites(4), 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, key := range sampleKeys(1000) {
				for n := 1; n <= 6; n++ {
					homes := tc.p.Homes(key, n)
					wantLen := n
					if wantLen > 4 {
						wantLen = 4
					}
					if len(homes) != wantLen {
						t.Fatalf("Homes(%q, %d): got %d sites %v, want %d", key, n, len(homes), homes, wantLen)
					}
					seen := make(map[cloud.SiteID]bool, len(homes))
					for _, s := range homes {
						if seen[s] {
							t.Fatalf("Homes(%q, %d) places two replicas on site %d: %v", key, n, s, homes)
						}
						seen[s] = true
					}
					// The successor list is a prefix-stable extension: growing n
					// never reorders the earlier replicas.
					if prev := tc.p.Homes(key, n-1); len(prev) > 0 {
						for i, s := range prev {
							if homes[i] != s {
								t.Fatalf("Homes(%q, %d) reordered prefix: %v vs %v", key, n, prev, homes)
							}
						}
					}
				}
			}
		})
	}
}

// TestRingHomesSkipsAdjacentVirtualNodes is the regression test for the
// duplicate-shard bug: when two virtual nodes of the same site sit adjacent
// on the ring, a naive successor walk would return that site twice and a
// 2-replica placement would silently store both "replicas" on one shard. The
// test first proves adjacency actually occurs in this configuration (so the
// dedup is exercised, not vacuously true), then checks Homes never repeats a
// site for any sampled key.
func TestRingHomesSkipsAdjacentVirtualNodes(t *testing.T) {
	ring := NewRingPlacer(sites(3), DefaultVirtualNodes)
	adjacent := 0
	for i := range ring.ring {
		if ring.ring[i].site == ring.ring[(i+1)%len(ring.ring)].site {
			adjacent++
		}
	}
	if adjacent == 0 {
		t.Fatal("test configuration has no adjacent virtual nodes of one site; the dedup would be untested")
	}
	for _, key := range sampleKeys(5000) {
		homes := ring.Homes(key, 2)
		if len(homes) != 2 {
			t.Fatalf("Homes(%q, 2): got %v", key, homes)
		}
		if homes[0] == homes[1] {
			t.Fatalf("Homes(%q, 2) placed both replicas on site %d", key, homes[0])
		}
	}
}

// TestHomesMembershipChangeKeepsReplicasDistinct pins that the successor
// list stays duplicate-free through joins and leaves.
func TestHomesMembershipChangeKeepsReplicasDistinct(t *testing.T) {
	check := func(members ...cloud.SiteID) {
		ring := NewRingPlacer(members, 64)
		for _, key := range sampleKeys(300) {
			homes := ring.Homes(key, 2)
			want := min(2, len(members))
			if len(homes) != want {
				t.Fatalf("Homes(%q, 2) with members %v: got %v", key, members, homes)
			}
			if len(homes) == 2 && homes[0] == homes[1] {
				t.Fatalf("Homes(%q, 2) duplicated site %d after membership change", key, homes[0])
			}
		}
	}
	check(0, 1, 2, 3)
	check(0, 1, 3)
	check(1, 3)
	check(3)
	check(3, 7)
}
