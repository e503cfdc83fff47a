package cloud

import "time"

// Names of the four Azure datacenters used as the testbed in the paper
// (Section VI-A): two European sites and two US sites.
const (
	SiteNorthEU        = "North Europe"     // Ireland
	SiteWestEU         = "West Europe"      // Netherlands
	SiteSouthCentralUS = "South Central US" // Texas
	SiteEastUS         = "East US"          // Virginia
)

// Regions of the paper's testbed.
const (
	RegionEurope Region = "Europe"
	RegionUS     Region = "US"
)

// DefaultLocalLink models intra-datacenter communication. Like the Azure4DC
// links below, it is calibrated to publicly reported Azure round-trip times
// circa 2015. Absolute values only need to preserve the local ≪ same-region ≪
// geo-distant hierarchy; the experiments report relative gains.
var DefaultLocalLink = Link{RTT: 600 * time.Microsecond, Jitter: 100 * time.Microsecond, BandwidthMBps: 1000}

// Azure4DC builds the four-datacenter topology used throughout the paper's
// evaluation: North Europe (Ireland), West Europe (Netherlands), South
// Central US (Texas) and East US (Virginia).
//
// The per-pair RTTs are chosen so that East US is the most central site and
// South Central US the least central one, matching the observation of
// Section VI-B ("the best performance ... corresponds to the nodes executed
// in the most centric datacenter - East US. Worst cases ... correspond to the
// least centric datacenter, South Central US").
func Azure4DC() *Topology {
	t := NewTopology()
	neu := t.AddSite(SiteNorthEU, RegionEurope)
	weu := t.AddSite(SiteWestEU, RegionEurope)
	scus := t.AddSite(SiteSouthCentralUS, RegionUS)
	eus := t.AddSite(SiteEastUS, RegionUS)

	for _, id := range []SiteID{neu, weu, scus, eus} {
		t.SetLink(id, id, DefaultLocalLink)
	}
	// Intra-region links.
	t.SetLink(neu, weu, Link{RTT: 24 * time.Millisecond, Jitter: 3 * time.Millisecond, BandwidthMBps: 200})
	t.SetLink(scus, eus, Link{RTT: 34 * time.Millisecond, Jitter: 4 * time.Millisecond, BandwidthMBps: 200})
	// Transatlantic links. East US (Virginia) is closer to Europe than South
	// Central US (Texas), which makes East US the most central site overall.
	t.SetLink(neu, eus, Link{RTT: 80 * time.Millisecond, Jitter: 8 * time.Millisecond, BandwidthMBps: 80})
	t.SetLink(weu, eus, Link{RTT: 88 * time.Millisecond, Jitter: 8 * time.Millisecond, BandwidthMBps: 80})
	t.SetLink(neu, scus, Link{RTT: 112 * time.Millisecond, Jitter: 10 * time.Millisecond, BandwidthMBps: 70})
	t.SetLink(weu, scus, Link{RTT: 120 * time.Millisecond, Jitter: 10 * time.Millisecond, BandwidthMBps: 70})
	return t
}
