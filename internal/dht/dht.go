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
	"sort"
	"sync"

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
// remaps almost all keys.
type ModuloPlacer struct {
	mu    sync.RWMutex
	sites []cloud.SiteID
}

// NewModuloPlacer returns a placer over the given sites. The site order is
// normalized (sorted) so that independent processes agree on placements.
func NewModuloPlacer(sites []cloud.SiteID) *ModuloPlacer {
	p := &ModuloPlacer{}
	for _, s := range sites {
		p.Add(s)
	}
	return p
}

// Home implements Placer.
func (p *ModuloPlacer) Home(key string) cloud.SiteID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.sites) == 0 {
		return cloud.NoSite
	}
	return p.sites[Hash64(key)%uint64(len(p.sites))]
}

// Homes implements Placer: the successor list starts at the key's modular
// slot and walks the (sorted, duplicate-free) site list, so membership
// changes shift replica sets the same way they shift primaries.
func (p *ModuloPlacer) Homes(key string, n int) []cloud.SiteID {
	p.mu.RLock()
	defer p.mu.RUnlock()
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
func (p *ModuloPlacer) Sites() []cloud.SiteID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]cloud.SiteID, len(p.sites))
	copy(out, p.sites)
	return out
}

// Add registers a site as a placement target. Adding a site twice is a
// no-op.
func (p *ModuloPlacer) Add(site cloud.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sites {
		if s == site {
			return
		}
	}
	p.sites = append(p.sites, site)
	sort.Slice(p.sites, func(i, j int) bool { return p.sites[i] < p.sites[j] })
}

// Remove withdraws a site from placement. Removing an absent site is a
// no-op.
func (p *ModuloPlacer) Remove(site cloud.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.sites {
		if s == site {
			p.sites = append(p.sites[:i], p.sites[i+1:]...)
			return
		}
	}
}

// RingPlacer is a consistent-hash ring: each site owns a configurable number
// of virtual nodes on a 64-bit ring and a key belongs to the first virtual
// node at or after its hash. Membership changes only remap the keys owned by
// the affected site.
type RingPlacer struct {
	mu       sync.RWMutex
	replicas int
	ring     []ringPoint
	members  map[cloud.SiteID]bool
}

type ringPoint struct {
	hash uint64
	site cloud.SiteID
}

// DefaultVirtualNodes is the number of virtual nodes per site used when the
// caller passes a non-positive count.
const DefaultVirtualNodes = 128

// NewRingPlacer returns a consistent-hash placer over the given sites with
// virtualNodes points per site (DefaultVirtualNodes when <= 0).
func NewRingPlacer(sites []cloud.SiteID, virtualNodes int) *RingPlacer {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	p := &RingPlacer{replicas: virtualNodes, members: make(map[cloud.SiteID]bool)}
	for _, s := range sites {
		p.Add(s)
	}
	return p
}

// Home implements Placer. The key hash runs through the same mix64
// finalizer as the virtual-node labels: raw FNV-1a values of keys sharing a
// prefix with short varying suffixes (file names in one directory, shard
// keys "bulk/0".."bulk/255") cluster in a narrow band of the 64-bit space
// and would all land on the same few arcs of the ring.
func (p *RingPlacer) Home(key string) cloud.SiteID {
	p.mu.RLock()
	defer p.mu.RUnlock()
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
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.ring) == 0 || n <= 0 {
		return nil
	}
	if n > len(p.members) {
		n = len(p.members)
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
func (p *RingPlacer) Sites() []cloud.SiteID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]cloud.SiteID, 0, len(p.members))
	for s := range p.members {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Add registers a site as a placement target, with its virtual nodes.
// Adding a site twice is a no-op.
func (p *RingPlacer) Add(site cloud.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.members[site] {
		return
	}
	p.members[site] = true
	for v := 0; v < p.replicas; v++ {
		h := mix64(Hash64(fmt.Sprintf("site-%d#%d", site, v)))
		p.ring = append(p.ring, ringPoint{hash: h, site: site})
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
}

// Remove withdraws a site and its virtual nodes from placement. Removing an
// absent site is a no-op.
func (p *RingPlacer) Remove(site cloud.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.members[site] {
		return
	}
	delete(p.members, site)
	kept := p.ring[:0]
	for _, pt := range p.ring {
		if pt.site != site {
			kept = append(kept, pt)
		}
	}
	p.ring = kept
}

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
