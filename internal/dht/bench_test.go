package dht

import "testing"

// Homes allocates only the slice it returns: the set of sites it has seen
// stays on the stack.
func TestRingHomesAllocations(t *testing.T) {
	ring := NewRingPlacer(sites(4), 0)
	keys := sampleKeys(64)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		ring.Homes(keys[i%len(keys)], 2)
		i++
	}); allocs > 1 {
		t.Errorf("Homes cost %v allocations, want at most 1", allocs)
	}
}

// BenchmarkRingHomes is the in-package rung of the ladder's dht.ring_homes_*
// rows: the two homes of a key on a ring of four shards.
func BenchmarkRingHomes(b *testing.B) {
	ring := NewRingPlacer(sites(4), 0)
	keys := sampleKeys(1024)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		ring.Homes(keys[i%len(keys)], 2)
		i++
	}
}
