// Package cloud models a multi-site public cloud: geographically distributed
// datacenters (sites), the regions they belong to, the wide-area links that
// connect them and the deployments of execution nodes placed on them.
//
// The model follows the terminology of Pineda-Morales et al. (CLUSTER 2015):
// a *site* is a datacenter, a *region* is a geographic area grouping sites
// (e.g. Europe, US), a *deployment* is a set of virtual machines provisioned
// at once inside one site, and a *multi-site application* runs deployments on
// several sites at the same time.
//
// Distances between a node and a metadata registry instance are qualified as
//
//   - Local:      node and registry are in the same datacenter,
//   - SameRegion: different datacenters of the same geographic region,
//   - GeoDistant: datacenters in different geographic regions.
//
// The latency hierarchy Local ≪ SameRegion ≪ GeoDistant is the driving force
// behind every experiment in the paper.
package cloud

import (
	"fmt"
	"sort"
	"time"
)

// SiteID identifies a datacenter inside a Topology. IDs are dense indices
// assigned in the order sites are added, which makes them convenient to use
// as array indices in latency matrices and placement tables.
type SiteID int

// NoSite is the zero-value placeholder for "no site selected".
const NoSite SiteID = -1

// Region is a geographic area (e.g. "Europe", "US") grouping several sites.
type Region string

// Distance qualifies how far apart two sites are, following the paper's
// local / same-region / geo-distant classification.
type Distance int

const (
	// Local means the two endpoints are in the same datacenter.
	Local Distance = iota
	// SameRegion means different datacenters within one geographic region.
	SameRegion
	// GeoDistant means datacenters in different geographic regions.
	GeoDistant
)

// String returns the paper's name for the distance class.
func (d Distance) String() string {
	switch d {
	case Local:
		return "local"
	case SameRegion:
		return "same-region"
	case GeoDistant:
		return "geo-distant"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// Remote reports whether the distance class involves crossing datacenter
// boundaries (the paper calls both same-region and geo-distant "remote").
func (d Distance) Remote() bool { return d != Local }

// Site describes one datacenter.
type Site struct {
	// ID is the dense index of the site within its topology.
	ID SiteID
	// Name is a human-readable datacenter name (e.g. "West Europe").
	Name string
	// Region is the geographic region the site belongs to.
	Region Region
}

// Link describes the network path between two sites. A link is symmetric:
// the same parameters apply in both directions.
type Link struct {
	// RTT is the round-trip time of the link.
	RTT time.Duration
	// Jitter is the maximum absolute deviation applied to RTT per message.
	Jitter time.Duration
	// BandwidthMBps is the sustained throughput of the link in megabytes per
	// second; it converts message sizes into a transfer-time component.
	BandwidthMBps float64
}

// Topology is an immutable description of a multi-site cloud: the set of
// sites and the link parameters between every pair of sites.
//
// Build a topology with NewTopology / AddSite / SetLink (or use Azure4DC for
// the testbed used in the paper), then treat it as read-only; Topology values
// are safe for concurrent use once construction has finished.
type Topology struct {
	sites []Site
	// links[i][j] holds the link between site i and site j. links[i][i] is
	// the intra-datacenter link.
	links [][]Link
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{}
}

// AddSite registers a new datacenter and returns its identifier.
func (t *Topology) AddSite(name string, region Region) SiteID {
	id := SiteID(len(t.sites))
	t.sites = append(t.sites, Site{ID: id, Name: name, Region: region})
	// Grow the link matrix, defaulting every new link to a zero value that
	// callers are expected to overwrite via SetLink.
	for i := range t.links {
		t.links[i] = append(t.links[i], Link{})
	}
	t.links = append(t.links, make([]Link, len(t.sites)))
	return id
}

// NumSites returns the number of datacenters in the topology.
func (t *Topology) NumSites() int { return len(t.sites) }

// Sites returns a copy of the site descriptors in ID order.
func (t *Topology) Sites() []Site {
	out := make([]Site, len(t.sites))
	copy(out, t.sites)
	return out
}

// Site returns the descriptor of the given site.
// It panics if the ID is out of range; use Valid to check first.
func (t *Topology) Site(id SiteID) Site {
	return t.sites[id]
}

// Valid reports whether id designates a site of this topology.
func (t *Topology) Valid(id SiteID) bool {
	return id >= 0 && int(id) < len(t.sites)
}

// SiteByName returns the site with the given name.
func (t *Topology) SiteByName(name string) (Site, bool) {
	for _, s := range t.sites {
		if s.Name == name {
			return s, true
		}
	}
	return Site{}, false
}

// SetLink sets the (symmetric) link parameters between sites a and b.
// Setting a == b configures the intra-datacenter link.
func (t *Topology) SetLink(a, b SiteID, link Link) {
	t.links[a][b] = link
	t.links[b][a] = link
}

// Link returns the link parameters between sites a and b.
func (t *Topology) Link(a, b SiteID) Link {
	return t.links[a][b]
}

// DistanceClass classifies the distance between two sites.
func (t *Topology) DistanceClass(a, b SiteID) Distance {
	if a == b {
		return Local
	}
	if t.sites[a].Region == t.sites[b].Region {
		return SameRegion
	}
	return GeoDistant
}

// Centrality returns the average one-way latency from the given site to every
// other site of the topology. The paper defines a site's centrality as the
// average distance from it to the rest of the datacenters; lower is more
// central. A single-site topology has centrality zero.
func (t *Topology) Centrality(id SiteID) time.Duration {
	if len(t.sites) <= 1 {
		return 0
	}
	var sum time.Duration
	for _, other := range t.sites {
		if other.ID == id {
			continue
		}
		sum += t.links[id][other.ID].RTT / 2
	}
	return sum / time.Duration(len(t.sites)-1)
}

// MostCentralSite returns the site with the lowest centrality (ties broken by
// lowest ID). It panics on an empty topology.
func (t *Topology) MostCentralSite() SiteID {
	return t.rankByCentrality()[0]
}

// LeastCentralSite returns the site with the highest centrality (ties broken
// by lowest ID). It panics on an empty topology.
func (t *Topology) LeastCentralSite() SiteID {
	ranked := t.rankByCentrality()
	return ranked[len(ranked)-1]
}

// rankByCentrality returns site IDs sorted from most to least central.
func (t *Topology) rankByCentrality() []SiteID {
	if len(t.sites) == 0 {
		panic("cloud: rankByCentrality on empty topology")
	}
	ids := make([]SiteID, len(t.sites))
	for i := range ids {
		ids[i] = SiteID(i)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		return t.Centrality(ids[i]) < t.Centrality(ids[j])
	})
	return ids
}

// Validate checks structural invariants of the topology: at least one site,
// a square link matrix, symmetric links, strictly positive RTTs, and the
// intra-datacenter RTT being no larger than any remote RTT from that site.
func (t *Topology) Validate() error {
	if len(t.sites) == 0 {
		return fmt.Errorf("cloud: topology has no sites")
	}
	if len(t.links) != len(t.sites) {
		return fmt.Errorf("cloud: link matrix has %d rows, want %d", len(t.links), len(t.sites))
	}
	for i := range t.links {
		if len(t.links[i]) != len(t.sites) {
			return fmt.Errorf("cloud: link matrix row %d has %d columns, want %d", i, len(t.links[i]), len(t.sites))
		}
		for j := range t.links[i] {
			if t.links[i][j] != t.links[j][i] {
				return fmt.Errorf("cloud: link %d<->%d is not symmetric", i, j)
			}
			if t.links[i][j].RTT <= 0 {
				return fmt.Errorf("cloud: link %d<->%d has non-positive RTT", i, j)
			}
			if t.links[i][j].BandwidthMBps < 0 {
				return fmt.Errorf("cloud: link %d<->%d has negative bandwidth", i, j)
			}
		}
		for j := range t.links[i] {
			if i != j && t.links[i][j].RTT < t.links[i][i].RTT {
				return fmt.Errorf("cloud: remote link %d<->%d is faster than local link of site %d", i, j, i)
			}
		}
	}
	return nil
}
