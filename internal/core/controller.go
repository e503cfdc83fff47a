package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/dht"
)

// Controller is the Architecture Controller of the paper's middleware (§V):
// it allows switching between metadata management strategies at run time,
// as new jobs are executed, without altering the application flow. The
// desired strategy is provided as a parameter and the controller builds (or
// reuses) the corresponding service over a shared fabric.
type Controller struct {
	fabric *Fabric

	// defaults used when instantiating strategies.
	centralHome cloud.SiteID
	agentSite   cloud.SiteID
	placer      dht.Placer
	syncEvery   time.Duration
	lazyFlush   time.Duration
	lazyBatch   int
	feedSync    bool

	mu      sync.Mutex
	current MetadataService
	kind    StrategyKind
	started bool
}

// ControllerOption configures a Controller.
type ControllerOption func(*Controller)

// WithCentralSite sets the datacenter hosting the registry in the
// Centralized strategy (default: the fabric's first site).
func WithCentralSite(site cloud.SiteID) ControllerOption {
	return func(c *Controller) { c.centralHome = site }
}

// WithAgentSite sets the datacenter hosting the synchronization agent of the
// Replicated strategy (default: the fabric's first site).
func WithAgentSite(site cloud.SiteID) ControllerOption {
	return func(c *Controller) { c.agentSite = site }
}

// WithControllerPlacer sets the hashing scheme used by the decentralized
// strategies (default: modulo hashing over the fabric's sites).
func WithControllerPlacer(p dht.Placer) ControllerOption {
	return func(c *Controller) { c.placer = p }
}

// WithControllerSyncInterval sets the replicated strategy's agent period.
func WithControllerSyncInterval(d time.Duration) ControllerOption {
	return func(c *Controller) { c.syncEvery = d }
}

// WithControllerLazy sets the lazy-propagation parameters of the hybrid
// strategy.
func WithControllerLazy(flushInterval time.Duration, maxBatch int) ControllerOption {
	return func(c *Controller) {
		c.lazyFlush = flushInterval
		c.lazyBatch = maxBatch
	}
}

// WithControllerFeedSync makes the eventually consistent strategies converge
// through the fabric's change feeds instead of polling: the replicated
// strategy is built WithFeedSync and the hybrid strategy WithFeedPropagation.
// Requires a fabric built with site.Config.Feed — Use fails with ErrNoFeed
// otherwise. Strategies without a polling agent (centralized, decentralized)
// are unaffected.
func WithControllerFeedSync() ControllerOption {
	return func(c *Controller) { c.feedSync = true }
}

// NewController returns a controller over the given fabric.
func NewController(fabric *Fabric, opts ...ControllerOption) *Controller {
	sites := fabric.Sites()
	c := &Controller{
		fabric:    fabric,
		syncEvery: DefaultSyncInterval,
		lazyFlush: DefaultFlushInterval,
		lazyBatch: DefaultMaxBatch,
	}
	if len(sites) > 0 {
		c.centralHome = sites[0]
		c.agentSite = sites[0]
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Fabric returns the controller's shared fabric.
func (c *Controller) Fabric() *Fabric { return c.fabric }

// Current returns the active service and its strategy. ok is false before
// the first Use call.
func (c *Controller) Current() (MetadataService, StrategyKind, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current, c.kind, c.started
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
		return NewCentralized(c.fabric, c.centralHome)
	case Replicated:
		opts := []ReplicatedOption{WithSyncInterval(c.syncEvery)}
		if c.feedSync {
			opts = append(opts, WithFeedSync())
		}
		return NewReplicated(c.fabric, c.agentSite, opts...)
	case Decentralized:
		return NewDecentralized(c.fabric, c.placer)
	case DecentralizedReplicated:
		opts := []DecReplicatedOption{WithLazyPropagation(c.lazyFlush, c.lazyBatch)}
		if c.feedSync {
			opts = append(opts, WithFeedPropagation())
		}
		if c.placer != nil {
			opts = append(opts, WithPlacer(c.placer))
		}
		return NewDecReplicated(c.fabric, opts...)
	default:
		return nil, fmt.Errorf("controller: unknown strategy %v", kind)
	}
}

// NewService is a convenience helper building a stand-alone service of the
// given kind over the fabric with default parameters (central registry and
// sync agent on the fabric's first site, modulo hashing, lazy propagation).
func NewService(fabric *Fabric, kind StrategyKind) (MetadataService, error) {
	return NewController(fabric).Use(context.Background(), kind)
}
