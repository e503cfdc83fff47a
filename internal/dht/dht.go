// Package dht provides the hashing machinery that maps metadata entries to
// datacenters in the decentralized strategies of the paper.
//
// Every time a new entry is written to the metadata registry, a hash function
// is applied to a distinctive attribute of the entry (the file name) to
// determine the site where the entry should be stored; the same procedure
// locates the entry on reads (paper §IV-C). Two placers are provided:
//
//   - ModuloPlacer: hash(name) mod nSites — the flat scheme the paper uses;
//   - RingPlacer: a consistent-hash ring with virtual nodes, which minimizes
//     entry migration when sites join or leave (the "server volatility"
//     problem discussed in §VIII).
//
// Both satisfy the Placer interface so the strategies can be ablated against
// either scheme (see BenchmarkAblationHashingChurn).
package dht

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"geomds/internal/cloud"
)

// Placer maps metadata keys to the site responsible for storing them.
type Placer interface {
	// Home returns the site responsible for the given key.
	Home(key string) cloud.SiteID
	// Homes returns the successor list of the key: the first n distinct
	// sites responsible for it, primary first. Replicated placement stores a
	// key on Homes(key, r); a router that finds the primary unreachable
	// fails over down the same list. Homes(key, 1) is [Home(key)], and n
	// larger than the membership returns every site exactly once. The same
	// site must never appear twice — adjacent virtual nodes of one site on a
	// ring count as a single successor.
	Homes(key string, n int) []cloud.SiteID
	// Sites returns the sites currently participating in placement.
	Sites() []cloud.SiteID
}

// Hash64 returns the FNV-1a 64-bit hash of the key. All placers derive their
// decisions from this value so that placements are stable across processes.
func Hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv's Write never fails
	return h.Sum64()
}

// ModuloPlacer assigns a key to sites[hash(key) mod len(sites)]. This is the
// scheme described in the paper: simple, uniform, but every membership change
// remaps almost all keys. Its membership is fixed at construction; a changed
// membership is a second placer (see Moved).
type ModuloPlacer struct {
	sites []cloud.SiteID // sorted, duplicate-free
}

// NewModuloPlacer returns a placer over the given sites. The site order is
// normalized (sorted, duplicates dropped) so that independent processes agree
// on placements.
func NewModuloPlacer(sites []cloud.SiteID) *ModuloPlacer {
	return &ModuloPlacer{sites: normalize(sites)}
}

// normalize returns the sites sorted and without duplicates, in a fresh
// slice.
func normalize(sites []cloud.SiteID) []cloud.SiteID {
	out := slices.Clone(sites)
	slices.Sort(out)
	return slices.Compact(out)
}

// Home implements Placer.
func (p *ModuloPlacer) Home(key string) cloud.SiteID {
	if len(p.sites) == 0 {
		return cloud.NoSite
	}
	return p.sites[Hash64(key)%uint64(len(p.sites))]
}

// Homes implements Placer: the successor list starts at the key's modular
// slot and walks the (sorted, duplicate-free) site list, so membership
// changes shift replica sets the same way they shift primaries.
func (p *ModuloPlacer) Homes(key string, n int) []cloud.SiteID {
	if len(p.sites) == 0 || n <= 0 {
		return nil
	}
	if n > len(p.sites) {
		n = len(p.sites)
	}
	start := int(Hash64(key) % uint64(len(p.sites)))
	out := make([]cloud.SiteID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.sites[(start+i)%len(p.sites)])
	}
	return out
}

// Sites implements Placer.
func (p *ModuloPlacer) Sites() []cloud.SiteID { return slices.Clone(p.sites) }

// RingPlacer is a consistent-hash ring: each site owns a configurable number
// of virtual nodes on a 64-bit ring and a key belongs to the first virtual
// node at or after its hash. A membership change (a second placer over the
// new sites) only remaps the keys owned by the affected site.
type RingPlacer struct {
	ring  []ringPoint    // sorted by hash
	sites []cloud.SiteID // sorted, duplicate-free
}

type ringPoint struct {
	hash uint64
	site cloud.SiteID
}

// DefaultVirtualNodes is the number of virtual nodes per site used when the
// caller passes a non-positive count.
const DefaultVirtualNodes = 128

// NewRingPlacer returns a consistent-hash placer over the given sites with
// virtualNodes points per site (DefaultVirtualNodes when <= 0). Duplicate
// sites count once.
func NewRingPlacer(sites []cloud.SiteID, virtualNodes int) *RingPlacer {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	p := &RingPlacer{sites: normalize(sites)}
	p.ring = make([]ringPoint, 0, len(p.sites)*virtualNodes)
	for _, site := range p.sites {
		for v := 0; v < virtualNodes; v++ {
			h := mix64(Hash64(fmt.Sprintf("site-%d#%d", site, v)))
			p.ring = append(p.ring, ringPoint{hash: h, site: site})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
	return p
}

// Home implements Placer. The key hash runs through the same mix64
// finalizer as the virtual-node labels: raw FNV-1a values of keys sharing a
// prefix with short varying suffixes (file names in one directory, shard
// keys "bulk/0".."bulk/255") cluster in a narrow band of the 64-bit space
// and would all land on the same few arcs of the ring.
func (p *RingPlacer) Home(key string) cloud.SiteID {
	if len(p.ring) == 0 {
		return cloud.NoSite
	}
	h := mix64(Hash64(key))
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].site
}

// Homes implements Placer: the successor list walks the ring clockwise from
// the key's position, collecting the first n *distinct* sites. Virtual nodes
// of one site that sit adjacent on the ring are deduplicated — without this a
// 2-replica placement could silently put both "replicas" on the same shard
// whenever two of its virtual nodes happen to be neighbours.
func (p *RingPlacer) Homes(key string, n int) []cloud.SiteID {
	if len(p.ring) == 0 || n <= 0 {
		return nil
	}
	if n > len(p.sites) {
		n = len(p.sites)
	}
	h := mix64(Hash64(key))
	start := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	out := make([]cloud.SiteID, 0, n)
	seen := make(map[cloud.SiteID]bool, n)
	for i := 0; i < len(p.ring) && len(out) < n; i++ {
		site := p.ring[(start+i)%len(p.ring)].site
		if seen[site] {
			continue
		}
		seen[site] = true
		out = append(out, site)
	}
	return out
}

// Sites implements Placer.
func (p *RingPlacer) Sites() []cloud.SiteID { return slices.Clone(p.sites) }

// mix64 is a SplitMix64-style finalizer that scatters the virtual-node
// labels (which are short, similar strings) evenly across the 64-bit ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Distribution counts, for a sample of keys, how many each site would own
// under the given placer. It is used to verify placement uniformity.
func Distribution(p Placer, keys []string) map[cloud.SiteID]int {
	out := make(map[cloud.SiteID]int)
	for _, k := range keys {
		out[p.Home(k)]++
	}
	return out
}

// Moved counts how many of the sample keys change homes between two placers
// (e.g. before and after a membership change). The returned fraction is in
// [0, 1]; 0 means no key moved.
func Moved(before, after Placer, keys []string) (count int, fraction float64) {
	if len(keys) == 0 {
		return 0, 0
	}
	for _, k := range keys {
		if before.Home(k) != after.Home(k) {
			count++
		}
	}
	return count, float64(count) / float64(len(keys))
}
