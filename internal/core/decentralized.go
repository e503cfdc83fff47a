package core

import (
	"geomds/internal/cloud"
	"geomds/internal/dht"
	"geomds/internal/metrics"
)

// DecentralizedService implements the decentralized, non-replicated strategy
// (paper §IV-C): one registry instance per datacenter, with every entry
// stored only at the site determined by hashing its name. On average only
// 1/n of the operations are local (n = number of sites), but the registry is
// partitioned so queries are processed in parallel by independent instances.
//
// It is the single-target path aimed at the entry's hashed home, counting how
// many operations stayed in the caller's datacenter.
type DecentralizedService struct {
	singleTarget
	placer *dht.ModuloPlacer

	// Live instruments (nil when the fabric's instrumentation is off).
	localC  *metrics.Counter // core_dn_local_ops_total
	remoteC *metrics.Counter // core_dn_remote_ops_total
}

// NewDecentralized builds the non-replicated decentralized strategy, placing
// each name at its hash modulo the fabric's sites, the paper's placement.
func NewDecentralized(fabric *Fabric) *DecentralizedService {
	placer := dht.NewModuloPlacer(fabric.sites)
	s := &DecentralizedService{
		placer:  placer,
		localC:  fabric.Metrics().Counter("core_dn_local_ops_total"),
		remoteC: fabric.Metrics().Counter("core_dn_remote_ops_total"),
	}
	s.service = newService(fabric, Decentralized)
	s.target = func(_ cloud.SiteID, name string) cloud.SiteID { return placer.Home(name) }
	s.after = func(_ opFrame, remote bool, _ error) { s.countLocality(remote) }
	return s
}

// Home returns the datacenter responsible for the given entry name.
func (s *DecentralizedService) Home(name string) cloud.SiteID { return s.placer.Home(name) }

func (s *DecentralizedService) countLocality(remote bool) {
	if remote {
		s.remoteC.Inc()
	} else {
		s.localC.Inc()
	}
}
