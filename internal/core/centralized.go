package core

import (
	"fmt"

	"geomds/internal/cloud"
)

// CentralizedService is the baseline strategy (paper §IV-A): a single
// metadata registry instance, arbitrarily placed in one of the datacenters,
// serving every node of the multi-site application. Nodes outside the
// registry's datacenter pay a remote round trip for every operation, and the
// single cache instance becomes the throughput bottleneck under concurrency.
//
// It is the single-target path over a one-site placement: every name is
// served by the same site.
type CentralizedService struct {
	singleTarget
	home cloud.SiteID
}

// NewCentralized builds the centralized baseline with the registry placed in
// cfg's Central datacenter.
func NewCentralized(fabric *Fabric, cfg StrategyConfig) (*CentralizedService, error) {
	home := cfg.central(fabric)
	if _, err := fabric.Instance(home); err != nil {
		return nil, fmt.Errorf("centralized: %w", err)
	}
	s := &CentralizedService{home: home}
	s.service = newService(fabric, Centralized)
	s.target = func(cloud.SiteID, string) cloud.SiteID { return home }
	return s, nil
}

// Home returns the datacenter hosting the single registry instance.
func (s *CentralizedService) Home() cloud.SiteID { return s.home }
