package workflow

import (
	"context"
	"errors"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/registry"
	"geomds/internal/site"
)

func TestNotifierWaitNotify(t *testing.T) {
	n := NewNotifier()
	wakeA, cancelA := n.Wait("a")
	wakeB, cancelB := n.Wait("b")
	defer cancelB()

	n.Notify("a")
	select {
	case <-wakeA:
	default:
		t.Fatal("waiter on \"a\" not woken by Notify(\"a\")")
	}
	select {
	case <-wakeB:
		t.Fatal("waiter on \"b\" woken by Notify(\"a\")")
	default:
	}
	cancelA() // idempotent after the wake
	cancelA()

	// A cancelled waiter is not woken (and does not leak).
	wakeC, cancelC := n.Wait("c")
	cancelC()
	n.Notify("c")
	select {
	case <-wakeC:
		t.Fatal("cancelled waiter woken")
	default:
	}

	// Close wakes everything still parked, and later Waits return pre-woken.
	n.Close()
	select {
	case <-wakeB:
	default:
		t.Fatal("Close left a waiter parked")
	}
	wakeD, cancelD := n.Wait("d")
	defer cancelD()
	select {
	case <-wakeD:
	default:
		t.Fatal("Wait on a closed notifier must return a pre-woken channel")
	}
}

func TestNotifierConsumeFeed(t *testing.T) {
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(7), latency.WithSleeper(func(time.Duration) {}))

	// A feed-less fabric is refused.
	bare := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0))
	if err := NewNotifier().ConsumeFeed(bare); !errors.Is(err, core.ErrNoFeed) {
		t.Fatalf("ConsumeFeed over feed-less fabric = %v, want ErrNoFeed", err)
	}

	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0), core.WithSite(site.Config{Feed: true}))
	defer fabric.Close()
	svc, err := core.NewService(fabric, core.Centralized)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	n := NewNotifier()
	if err := n.ConsumeFeed(fabric); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	wake, cancel := n.Wait("nf/a")
	defer cancel()
	entry := registry.NewEntry("nf/a", 64, "test", registry.Location{Site: 0, Node: registry.NoNode})
	if _, err := svc.Create(context.Background(), 0, entry); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("feed put never woke the waiter")
	}
}

// TestEngineFeedNotifierReactive runs a cross-site pipeline under feed-driven
// replication with a retry interval far longer than the test budget: the run
// can only finish in time if blocked tasks are woken by the feeds rather than
// sleeping out their polling intervals.
func TestEngineFeedNotifierReactive(t *testing.T) {
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(11), latency.WithSleeper(func(time.Duration) {}))
	fabric := core.NewFabric(topo, lat, core.WithCacheCapacity(0, 0), core.WithSite(site.Config{Feed: true}))
	defer fabric.Close()
	svc, err := core.NewReplicated(fabric, 0, core.WithSyncInterval(time.Hour), core.WithFeedSync())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	n := NewNotifier()
	if err := n.ConsumeFeed(fabric); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(8)
	const interval = 30 * time.Second
	eng := NewEngine(dep, svc, lat, EngineConfig{RetryInterval: interval, Notifier: n})

	w := Pipeline(PatternConfig{Prefix: "nf-", FileSize: 1 << 12, Compute: 0}, 6)
	sched, err := (RoundRobinScheduler{}).Schedule(w, dep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), w, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Wall >= interval {
		t.Fatalf("run took %v — a blocked task slept out the %v polling interval instead of being woken", res.Wall, interval)
	}
	t.Logf("pipeline finished in %v with %d retries short-circuited by feed wake-ups", res.Wall, res.Retries)
}
