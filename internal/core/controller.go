package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"geomds/internal/cloud"
)

// StrategyConfig holds the parameters of the four strategies: one value
// builds every strategy, through NewController or a strategy's own
// constructor. The zero value is the paper's setup, the one NewService builds.
// Placement is fixed: the decentralized strategies hash names modulo the
// fabric's sites, and the replicated strategy's synchronization agent runs on
// the Central site.
type StrategyConfig struct {
	// Central hosts the centralized registry and the replicated strategy's
	// synchronization agent. Zero means the fabric's first site, which is
	// site 0 on every fabric over a whole topology.
	Central cloud.SiteID
	// SyncInterval is the period between the replicated strategy's agent
	// rounds, in simulated time. Zero means DefaultSyncInterval.
	SyncInterval time.Duration
	// FlushInterval is the hybrid strategy's lazy-propagation period, in
	// simulated time. Zero means DefaultFlushInterval.
	FlushInterval time.Duration
	// Eager makes the hybrid strategy propagate a write to the home site
	// synchronously, as part of the write's latency, instead of lazily.
	Eager bool
}

// central returns the site Central names, resolving zero to the fabric's
// first site.
func (c StrategyConfig) central(f *Fabric) cloud.SiteID {
	if c.Central == 0 && len(f.sites) > 0 {
		return f.sites[0]
	}
	return c.Central
}

// Controller is the Architecture Controller of the paper's middleware (§V):
// it allows switching between metadata management strategies at run time,
// as new jobs are executed, without altering the application flow. The
// desired strategy is provided as a parameter and the controller builds (or
// reuses) the corresponding service over a shared fabric.
type Controller struct {
	fabric *Fabric
	cfg    StrategyConfig

	mu      sync.Mutex
	current MetadataService
	kind    StrategyKind
	started bool
}

// NewController returns a controller that builds every strategy over the
// fabric from cfg.
func NewController(fabric *Fabric, cfg StrategyConfig) *Controller {
	return &Controller{fabric: fabric, cfg: cfg}
}

// Use switches the controller to the given strategy, closing the previously
// active service (after flushing it under ctx) and returning the new one.
// Switching to the strategy already in use returns the existing service. A
// cancelled context aborts the hand-over flush; the previous service is then
// left in place so no pending updates are lost.
func (c *Controller) Use(ctx context.Context, kind StrategyKind) (MetadataService, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started && c.kind == kind {
		return c.current, nil
	}
	if c.started {
		if err := c.current.Flush(ctx); err != nil && !errors.Is(err, ErrClosed) {
			return nil, fmt.Errorf("controller: flushing %s: %w", c.kind, err)
		}
		if err := c.current.Close(); err != nil {
			return nil, fmt.Errorf("controller: closing %s: %w", c.kind, err)
		}
	}
	svc, err := c.build(kind)
	if err != nil {
		c.started = false
		return nil, err
	}
	c.current, c.kind, c.started = svc, kind, true
	return svc, nil
}

// Close shuts the active service down.
func (c *Controller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return nil
	}
	c.started = false
	return c.current.Close()
}

func (c *Controller) build(kind StrategyKind) (MetadataService, error) {
	switch kind {
	case Centralized:
		return NewCentralized(c.fabric, c.cfg)
	case Replicated:
		return NewReplicated(c.fabric, c.cfg)
	case Decentralized:
		return NewDecentralized(c.fabric), nil
	case DecentralizedReplicated:
		return NewDecReplicated(c.fabric, c.cfg)
	default:
		return nil, fmt.Errorf("controller: unknown strategy %v", kind)
	}
}

// NewService is a convenience helper building a stand-alone service of the
// given kind over the fabric with the zero StrategyConfig: the central
// registry and the sync agent on the fabric's first site, modulo hashing,
// lazy propagation every DefaultFlushInterval.
func NewService(fabric *Fabric, kind StrategyKind) (MetadataService, error) {
	return NewController(fabric, StrategyConfig{}).Use(context.Background(), kind)
}
