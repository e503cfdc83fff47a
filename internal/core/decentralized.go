package core

import (
	"fmt"
	"sync/atomic"

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
	placer dht.Placer

	localOps  atomic.Int64
	remoteOps atomic.Int64

	// Live instruments (nil when the fabric's instrumentation is off).
	localC  *metrics.Counter // core_dn_local_ops_total
	remoteC *metrics.Counter // core_dn_remote_ops_total
}

// NewDecentralized builds the non-replicated decentralized strategy. If
// placer is nil a ModuloPlacer over the fabric's sites is used, matching the
// paper's hash-mod-n placement.
func NewDecentralized(fabric *Fabric, placer dht.Placer) (*DecentralizedService, error) {
	placer, err := fabric.placerOrDefault(placer)
	if err != nil {
		return nil, fmt.Errorf("decentralized: %w", err)
	}
	s := &DecentralizedService{
		placer:  placer,
		localC:  fabric.Metrics().Counter("core_dn_local_ops_total"),
		remoteC: fabric.Metrics().Counter("core_dn_remote_ops_total"),
	}
	s.service = newService(fabric, Decentralized)
	s.target = func(_ cloud.SiteID, name string) cloud.SiteID { return placer.Home(name) }
	s.after = func(_ opFrame, remote bool, _ error) { s.countLocality(remote) }
	return s, nil
}

// Home returns the datacenter responsible for the given entry name.
func (s *DecentralizedService) Home(name string) cloud.SiteID { return s.placer.Home(name) }

// LocalRemoteOps returns how many operations were served locally vs remotely,
// which lets experiments verify the ~1/n locality property.
func (s *DecentralizedService) LocalRemoteOps() (local, remote int64) {
	return s.localOps.Load(), s.remoteOps.Load()
}

func (s *DecentralizedService) countLocality(remote bool) {
	if remote {
		s.remoteOps.Add(1)
		s.remoteC.Inc()
	} else {
		s.localOps.Add(1)
		s.localC.Inc()
	}
}
