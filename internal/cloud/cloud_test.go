package cloud

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestDistanceString(t *testing.T) {
	cases := []struct {
		d    Distance
		want string
	}{
		{Local, "local"},
		{SameRegion, "same-region"},
		{GeoDistant, "geo-distant"},
		{Distance(42), "Distance(42)"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Distance(%d).String() = %q, want %q", int(c.d), got, c.want)
		}
	}
}

func TestDistanceRemote(t *testing.T) {
	if Local.Remote() {
		t.Error("Local should not be remote")
	}
	if !SameRegion.Remote() {
		t.Error("SameRegion should be remote")
	}
	if !GeoDistant.Remote() {
		t.Error("GeoDistant should be remote")
	}
}

func TestAddSiteAssignsDenseIDs(t *testing.T) {
	topo := NewTopology()
	a := topo.AddSite("A", RegionEurope)
	b := topo.AddSite("B", RegionUS)
	if a != 0 || b != 1 {
		t.Fatalf("got IDs %d, %d; want 0, 1", a, b)
	}
	if topo.NumSites() != 2 {
		t.Fatalf("NumSites = %d, want 2", topo.NumSites())
	}
	if topo.Site(a).Name != "A" || topo.Site(b).Region != RegionUS {
		t.Error("site descriptors not preserved")
	}
}

func TestSiteByName(t *testing.T) {
	topo := Azure4DC()
	s, ok := topo.SiteByName(SiteEastUS)
	if !ok {
		t.Fatal("East US not found")
	}
	if s.Region != RegionUS {
		t.Errorf("East US region = %q, want %q", s.Region, RegionUS)
	}
	if _, ok := topo.SiteByName("Mars Central"); ok {
		t.Error("unexpected site found")
	}
}

func TestValid(t *testing.T) {
	topo := Azure4DC()
	if !topo.Valid(0) || !topo.Valid(3) {
		t.Error("expected sites 0..3 to be valid")
	}
	if topo.Valid(-1) || topo.Valid(4) || topo.Valid(NoSite) {
		t.Error("expected out-of-range IDs to be invalid")
	}
}

func TestSetLinkIsSymmetric(t *testing.T) {
	topo := NewTopology()
	a := topo.AddSite("A", RegionEurope)
	b := topo.AddSite("B", RegionEurope)
	link := Link{RTT: 10 * time.Millisecond, Jitter: time.Millisecond, BandwidthMBps: 100}
	topo.SetLink(a, b, link)
	if topo.Link(b, a) != link {
		t.Errorf("Link(b,a) = %+v, want %+v", topo.Link(b, a), link)
	}
}

func TestDistanceClass(t *testing.T) {
	topo := Azure4DC()
	neu, _ := topo.SiteByName(SiteNorthEU)
	weu, _ := topo.SiteByName(SiteWestEU)
	eus, _ := topo.SiteByName(SiteEastUS)
	if got := topo.DistanceClass(neu.ID, neu.ID); got != Local {
		t.Errorf("same site = %v, want Local", got)
	}
	if got := topo.DistanceClass(neu.ID, weu.ID); got != SameRegion {
		t.Errorf("NEU-WEU = %v, want SameRegion", got)
	}
	if got := topo.DistanceClass(weu.ID, eus.ID); got != GeoDistant {
		t.Errorf("WEU-EUS = %v, want GeoDistant", got)
	}
}

func TestAzure4DCValidates(t *testing.T) {
	topo := Azure4DC()
	if err := topo.Validate(); err != nil {
		t.Fatalf("Azure4DC topology invalid: %v", err)
	}
	if topo.NumSites() != 4 {
		t.Fatalf("NumSites = %d, want 4", topo.NumSites())
	}
	for i, site := range topo.Sites() {
		if site != topo.Site(SiteID(i)) {
			t.Errorf("Sites()[%d] = %+v, Site(%d) = %+v", i, site, i, topo.Site(SiteID(i)))
		}
	}
}

func TestAzure4DCCentrality(t *testing.T) {
	topo := Azure4DC()
	eus, _ := topo.SiteByName(SiteEastUS)
	scus, _ := topo.SiteByName(SiteSouthCentralUS)
	if got := topo.MostCentralSite(); got != eus.ID {
		t.Errorf("most central site = %s, want %s", topo.Site(got).Name, SiteEastUS)
	}
	if got := topo.LeastCentralSite(); got != scus.ID {
		t.Errorf("least central site = %s, want %s", topo.Site(got).Name, SiteSouthCentralUS)
	}
}

func TestCentralitySingleSite(t *testing.T) {
	topo := NewTopology()
	solo := topo.AddSite("Solo", RegionEurope)
	topo.SetLink(solo, solo, DefaultLocalLink)
	if got := topo.Centrality(0); got != 0 {
		t.Errorf("single-site centrality = %v, want 0", got)
	}
	if topo.MostCentralSite() != 0 || topo.LeastCentralSite() != 0 {
		t.Error("single-site most/least central should both be site 0")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	empty := NewTopology()
	if err := empty.Validate(); err == nil {
		t.Error("empty topology should not validate")
	}

	missing := NewTopology()
	missing.AddSite("A", RegionEurope)
	if err := missing.Validate(); err == nil {
		t.Error("topology with zero-RTT link should not validate")
	}

	asym := NewTopology()
	a := asym.AddSite("A", RegionEurope)
	b := asym.AddSite("B", RegionEurope)
	asym.SetLink(a, a, DefaultLocalLink)
	asym.SetLink(b, b, DefaultLocalLink)
	asym.SetLink(a, b, Link{RTT: 24 * time.Millisecond, BandwidthMBps: 200})
	asym.links[a][b] = Link{RTT: time.Millisecond} // break symmetry directly
	if err := asym.Validate(); err == nil {
		t.Error("asymmetric topology should not validate")
	}

	slowLocal := NewTopology()
	a = slowLocal.AddSite("A", RegionEurope)
	b = slowLocal.AddSite("B", RegionEurope)
	slowLocal.SetLink(a, a, Link{RTT: time.Second})
	slowLocal.SetLink(b, b, DefaultLocalLink)
	slowLocal.SetLink(a, b, Link{RTT: time.Millisecond})
	if err := slowLocal.Validate(); err == nil {
		t.Error("remote link faster than local should not validate")
	}

	negative := NewTopology()
	a = negative.AddSite("A", RegionEurope)
	negative.SetLink(a, a, Link{RTT: time.Millisecond, BandwidthMBps: -1})
	if err := negative.Validate(); err == nil {
		t.Error("negative bandwidth should not validate")
	}
}

func TestDeploymentSpreadNodes(t *testing.T) {
	topo := Azure4DC()
	dep := NewDeployment(topo)
	ids := dep.SpreadNodes(10)
	if len(ids) != 10 || dep.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", dep.NumNodes())
	}
	if dep.Balance() > 1 {
		t.Errorf("Balance = %d, want <= 1", dep.Balance())
	}
	if err := dep.Validate(); err != nil {
		t.Fatalf("deployment invalid: %v", err)
	}
	// Nodes are spread round-robin: node 0 on site 0, node 5 on site 1, etc.
	if dep.SiteOf(0) != 0 || dep.SiteOf(5) != 1 {
		t.Error("round-robin placement not respected")
	}
}

func TestDeploymentNodesAt(t *testing.T) {
	topo := Azure4DC()
	dep := NewDeployment(topo)
	dep.SpreadNodes(8)
	for s := 0; s < topo.NumSites(); s++ {
		at := dep.NodesAt(SiteID(s))
		if len(at) != 2 {
			t.Errorf("site %d hosts %d nodes, want 2", s, len(at))
		}
		for _, id := range at {
			if dep.SiteOf(id) != SiteID(s) {
				t.Errorf("node %d reported at site %d but SiteOf says %d", id, s, dep.SiteOf(id))
			}
		}
	}
	load := dep.SiteLoad()
	for s, n := range load {
		if n != 2 {
			t.Errorf("SiteLoad[%d] = %d, want 2", s, n)
		}
	}
}

func TestDeploymentAddNodePanicsOnBadSite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid site")
		}
	}()
	dep := NewDeployment(Azure4DC())
	dep.AddNode(99)
}

func TestDeploymentNodeNames(t *testing.T) {
	dep := NewDeployment(Azure4DC())
	id := dep.AddNode(0)
	n := dep.Node(id)
	if n.Name == "" {
		t.Error("node name should not be empty")
	}
	nodes := dep.Nodes()
	if len(nodes) != 1 || nodes[0].ID != id {
		t.Error("Nodes() should return the provisioned node")
	}
}

// Property: for any pair of sites in any two-region topology the distance
// class is symmetric and Local iff the sites are identical. DistanceClass
// reads regions only, so the topology needs no links.
func TestDistanceClassProperties(t *testing.T) {
	f := func(nEU, nUS uint8, aRaw, bRaw uint16) bool {
		topo := NewTopology()
		for i := 0; i <= int(nEU%4); i++ {
			topo.AddSite(fmt.Sprintf("EU-%d", i), RegionEurope)
		}
		for i := 0; i <= int(nUS%4); i++ {
			topo.AddSite(fmt.Sprintf("US-%d", i), RegionUS)
		}
		n := topo.NumSites()
		a := SiteID(int(aRaw) % n)
		b := SiteID(int(bRaw) % n)
		da := topo.DistanceClass(a, b)
		db := topo.DistanceClass(b, a)
		if da != db {
			return false
		}
		if (a == b) != (da == Local) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SpreadNodes always yields a deployment whose per-site load
// differs by at most one node.
func TestSpreadNodesBalanceProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw % 200)
		dep := NewDeployment(Azure4DC())
		dep.SpreadNodes(n)
		return dep.Balance() <= 1 && dep.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: centrality is always non-negative and bounded by the largest
// one-way link latency of the topology.
func TestCentralityBoundsProperty(t *testing.T) {
	topo := Azure4DC()
	var maxOneWay time.Duration
	for i := 0; i < topo.NumSites(); i++ {
		for j := 0; j < topo.NumSites(); j++ {
			if rtt := topo.Link(SiteID(i), SiteID(j)).RTT / 2; rtt > maxOneWay {
				maxOneWay = rtt
			}
		}
	}
	for i := 0; i < topo.NumSites(); i++ {
		c := topo.Centrality(SiteID(i))
		if c < 0 || c > maxOneWay {
			t.Errorf("centrality of site %d = %v out of bounds [0, %v]", i, c, maxOneWay)
		}
	}
}
