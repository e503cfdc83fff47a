package core_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/metrics"
)

// ExampleClient walks the node-local session API a workflow task uses: a
// client bound to one execution node publishes file metadata, another node
// an ocean away resolves it and registers its own copy, and typed errors
// are branched on with errors.Is.
func ExampleClient() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The paper's 4-datacenter Azure testbed, time-compressed 1000x, with
	// the hybrid (decentralized + local replication) strategy over it.
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithScale(0.001), latency.WithSeed(7))
	fabric := core.NewFabric(topo, lat, core.WithMetricsRegistry(metrics.NewRegistry()))
	svc, err := core.NewDecReplicated(fabric, core.StrategyConfig{})
	if err != nil {
		fmt.Println("service:", err)
		return
	}
	defer svc.Close()

	// One execution node per site of interest; each Client issues every
	// operation from its node's datacenter.
	dep := cloud.NewDeployment(topo)
	weu, _ := topo.SiteByName(cloud.SiteWestEU)
	eus, _ := topo.SiteByName(cloud.SiteEastUS)
	producer := core.NewClient(svc, dep.Node(dep.AddNode(weu.ID)))
	consumer := core.NewClient(svc, dep.Node(dep.AddNode(eus.ID)))

	// The producer publishes a task output; the write completes at local
	// latency, the home-site replica propagates lazily.
	if _, err := producer.PublishFile(ctx, "mosaic/tile-17.fits", 4<<20, "task-projection"); err != nil {
		fmt.Println("publish:", err)
		return
	}
	// Flush forces the lazy propagation to converge so the consumer is
	// guaranteed visibility (workflow engines poll instead).
	if err := svc.Flush(ctx); err != nil {
		fmt.Println("flush:", err)
		return
	}

	entry, err := consumer.LocateFile(ctx, "mosaic/tile-17.fits")
	if err != nil {
		fmt.Println("locate:", err)
		return
	}
	fmt.Printf("located %s (%d bytes), produced by %s\n", entry.Name, entry.Size, entry.Producer)

	// The consumer now holds a copy too; record it for later tasks.
	if _, err := consumer.RegisterCopy(ctx, "mosaic/tile-17.fits"); err != nil {
		fmt.Println("register:", err)
		return
	}

	// Failures are typed *core.OpError values wrapping sentinel causes.
	_, err = consumer.LocateFile(ctx, "mosaic/tile-99.fits")
	fmt.Println("missing entry is ErrNotFound:", errors.Is(err, core.ErrNotFound))
	var opErr *core.OpError
	if errors.As(err, &opErr) {
		fmt.Printf("failed op %q from site %d\n", opErr.Op, opErr.Site)
	}

	// Output:
	// located mosaic/tile-17.fits (4194304 bytes), produced by task-projection
	// missing entry is ErrNotFound: true
	// failed op "lookup" from site 3
}
