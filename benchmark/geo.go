package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/registry"
	"geomds/internal/rpc"
)

const (
	geoPreload  = 2048            // entries created through the strategy during set-up
	geoSettle   = 2 * time.Second // a cross-site Lookup only asks for entries at least this old
	geoLogCap   = 1 << 18         // entries one client may create in a run
	geoIDStride = 1000000         // client c names its entries data/f<c><6 digits>
)

// created is one entry a client has had acknowledged.
type created struct {
	id   int
	site cloud.SiteID // where it was created
	at   time.Duration
}

// createLog is one client's append-only record of what it created. The
// owner fills the next slot and then publishes the new length; other clients
// read only below the published length, and the slice header never changes.
type createLog struct {
	slots []created
	n     atomic.Int64
}

func newCreateLog() *createLog { return &createLog{slots: make([]created, geoLogCap)} }

func (l *createLog) add(c created) {
	n := l.n.Load()
	if int(n) == len(l.slots) {
		panic("geo_hybrid: a client created more than geoLogCap entries")
	}
	l.slots[n] = c
	l.n.Store(n + 1)
}

// entries returns what has been published so far.
func (l *createLog) entries() []created { return l.slots[:l.n.Load()] }

// geoStack is the four-process deployment with the hybrid strategy on top.
type geoStack struct {
	servers []*serverProc
	clients map[cloud.SiteID]*rpc.Client
	lat     *latency.Model
	fabric  *core.Fabric
	svc     core.MetadataService
	sites   []cloud.SiteID
	logs    []*createLog // one per load client, plus the last for the lag probe
	epoch   time.Time
}

func (g *geoStack) close() {
	if g.svc != nil {
		g.svc.Close() //nolint:errcheck // teardown
	}
	if g.fabric != nil {
		g.fabric.Close() //nolint:errcheck // teardown
	}
	for _, cl := range g.clients {
		cl.Close()
	}
	killAll(g.servers)
}

// deploy puts the hybrid strategy, with its lazy-propagation defaults, on a
// fabric over the given per-site registries. WAN delay is accounted by the
// latency model but never slept, so what is measured is software cost.
func (g *geoStack) deploy(topo *cloud.Topology, apis map[cloud.SiteID]registry.API, seed int64) error {
	g.lat = latency.New(topo, latency.WithSleeper(func(time.Duration) {}), latency.WithSeed(seed))
	g.fabric = core.NewFabric(topo, g.lat, core.WithInstances(apis))
	svc, err := core.NewService(g.fabric, core.DecentralizedReplicated)
	g.svc = svc
	return err
}

// setUpGeo spawns one default metaserver per Azure4DC site, builds the
// fabric over rpc clients and creates geoPreload entries through the
// strategy.
func setUpGeo(ctx context.Context, e *env, cfg runConfig) (*geoStack, time.Duration, error) {
	topo := cloud.Azure4DC()
	g := &geoStack{clients: make(map[cloud.SiteID]*rpc.Client), epoch: time.Now()}
	for i := 0; i <= cfg.clients; i++ {
		g.logs = append(g.logs, newCreateLog())
	}
	apis := make(map[cloud.SiteID]registry.API)
	for _, site := range topo.Sites() {
		srv, err := e.spawn("-site", strconv.Itoa(int(site.ID)))
		if err != nil {
			g.close()
			return nil, 0, err
		}
		g.servers = append(g.servers, srv)
		cl, err := rpc.Dial(ctx, srv.addr, rpc.WithPoolSize(1))
		if err != nil {
			g.close()
			return nil, 0, err
		}
		g.clients[site.ID], apis[site.ID] = cl, cl
		g.sites = append(g.sites, site.ID)
	}
	if err := g.deploy(topo, apis, cfg.seed); err != nil {
		g.close()
		return nil, 0, err
	}
	svc := g.svc

	var wg sync.WaitGroup
	errs := make([]error, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < geoPreload; i += cfg.clients {
				site := g.sites[i%len(g.sites)]
				id := c*geoIDStride + len(g.logs[c].entries())
				if _, err := svc.Create(ctx, site, geoEntry(id, site)); err != nil {
					errs[c] = err
					return
				}
				// Old enough for a cross-site Lookup from the first op on:
				// the Flush below has propagated it.
				g.logs[c].add(created{id: id, site: site, at: -geoSettle})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			g.close()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		g.close()
		return nil, 0, fmt.Errorf("preload flush: %w", err)
	}
	if missing := g.checkLens(ctx); missing != 0 {
		g.close()
		return nil, 0, fmt.Errorf("preload: per-site entry counts off by %d", missing)
	}
	return g, time.Since(g.servers[0].spawned), nil
}

func geoEntry(id int, site cloud.SiteID) registry.Entry {
	return registry.NewEntry(keyName(id), baseSize, "bench", registry.Location{Site: site, Node: registry.NoNode})
}

// checkLens compares every site's Len with what the logs say it must hold
// once everything has propagated — an entry lives at the site that created
// it and at its hashed home — and returns the summed difference.
func (g *geoStack) checkLens(ctx context.Context) int64 {
	home := g.svc.(*core.DecReplicatedService).Home
	want := make(map[cloud.SiteID]int)
	for _, l := range g.logs {
		for _, c := range l.entries() {
			want[c.site]++
			if h := home(keyName(c.id)); h != c.site {
				want[h]++
			}
		}
	}
	var off int64
	for _, site := range g.sites {
		diff := g.clients[site].Len(ctx) - want[site]
		if diff < 0 {
			diff = -diff
		}
		off += int64(diff)
	}
	return off
}

// geoClient is one closed-loop client of geo_hybrid. Each round it moves to
// the next site and issues: a Create, a Lookup of that entry from the same
// site, and two Lookups, from some other site than the entry's, of entries
// another client created at least geoSettle ago — long enough for the lazy
// propagator to have carried them home, so a not-found is a failed op.
type geoClient struct {
	g      *geoStack
	id     int
	r      *rng
	round  int
	pos    int
	last   created
	settle []int // per other client's log: how many of its entries have settled
}

func (c *geoClient) step(ctx context.Context) (opClass, bool) {
	pos := c.pos
	c.pos = (c.pos + 1) % 4
	switch pos {
	case 0:
		c.round++
		site := c.g.sites[(c.id+c.round)%len(c.g.sites)]
		log := c.g.logs[c.id]
		id := c.id*geoIDStride + len(log.entries())
		want := geoEntry(id, site)
		got, err := c.g.svc.Create(ctx, site, want)
		if err != nil || got.Name != want.Name {
			c.last = created{id: -1}
			return writeOp, false
		}
		c.last = created{id: id, site: site, at: time.Since(c.g.epoch)}
		log.add(c.last)
		return writeOp, true
	case 1:
		if c.last.id < 0 {
			return readOp, false // nothing to read back: its Create failed
		}
		return readOp, c.lookup(ctx, c.last.site, c.last.id)
	default:
		target := c.id
		if n := len(c.g.logs) - 1; n > 1 {
			target = (c.id + 1 + c.r.intn(n-1)) % n
		}
		log := c.g.logs[target]
		horizon := time.Since(c.g.epoch) - geoSettle
		for seen := log.entries(); c.settle[target] < len(seen) && seen[c.settle[target]].at <= horizon; {
			c.settle[target]++
		}
		e := log.slots[c.r.intn(c.settle[target])]
		other := c.g.sites[(int(e.site)+1+c.r.intn(len(c.g.sites)-1))%len(c.g.sites)]
		return readOp, c.lookup(ctx, other, e.id)
	}
}

func (c *geoClient) lookup(ctx context.Context, from cloud.SiteID, id int) bool {
	e, err := c.g.svc.Lookup(ctx, from, keyName(id))
	return err == nil && e.Name == keyName(id) && e.Size == baseSize
}

// lagProbe measures, during a traced run's windows, how long a Create at one
// site takes to become readable at its home site.
type lagProbe struct {
	stop  chan struct{}
	done  chan struct{}
	lagNs []int64
}

func startLagProbe(ctx context.Context, g *geoStack) *lagProbe {
	p := &lagProbe{stop: make(chan struct{}), done: make(chan struct{})}
	home := g.svc.(*core.DecReplicatedService).Home
	log := g.logs[len(g.logs)-1]
	base := (len(g.logs) - 1) * geoIDStride
	go func() {
		defer close(p.done)
		for i := 0; ; i++ {
			site := g.sites[i%len(g.sites)]
			id := base + i
			h := home(keyName(id))
			if h == site {
				continue // already home: nothing to propagate
			}
			if _, err := g.svc.Create(ctx, site, geoEntry(id, site)); err != nil {
				return
			}
			t0 := time.Now()
			log.add(created{id: id, site: site})
			for {
				if _, err := g.clients[h].Get(ctx, keyName(id)); err == nil {
					p.lagNs = append(p.lagNs, int64(time.Since(t0)))
					break
				}
				select {
				case <-p.stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
			select {
			case <-p.stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()
	return p
}

func (p *lagProbe) finish() float64 {
	close(p.stop)
	<-p.done
	return percentile(sortedCopy(p.lagNs), 0.5) / 1e6
}

// coreCounters reads the generator-side figures the core.* metrics are
// deltas of: the fabric's counters and the latency model's accounted delay.
func (g *geoStack) coreCounters() map[string]float64 {
	out := make(map[string]float64)
	snap := g.fabric.Metrics().Snapshot()
	for name, v := range snap.Counters {
		out[name] = float64(v)
	}
	for _, s := range g.lat.Stats() {
		out["wan_ns"] += float64(s.Injected)
	}
	return out
}

func runGeo(ctx context.Context, e *env, cfg runConfig) (*result, error) {
	res := newResult("geo_hybrid")
	var g *geoStack
	var setups []float64
	probe := newHostProbe()
	for i := 0; i < cfg.setups; i++ {
		if g != nil {
			g.close()
		}
		deadline("set-up of geo_hybrid", 60*time.Second)
		took, err := probe.normalised(func() (took time.Duration, err error) {
			g, took, err = setUpGeo(ctx, e, cfg)
			return took, err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer g.close()
	for _, srv := range g.servers {
		res.ServerArgv = append(res.ServerArgv, srv.argv)
	}
	res.setMedian("setup_s", setups, 0)

	steppers := make([]stepper, cfg.clients)
	for c := range steppers {
		steppers[c] = &geoClient{g: g, id: c, r: newRNG(uint64(cfg.seed)*1000003 + uint64(c)), settle: make([]int, cfg.clients)}
	}
	var coreBefore, coreAfter map[string]float64
	var lag *lagProbe
	d, err := measure(ctx, res, cfg, g.servers, steppers, func() {
		if cfg.traced {
			coreBefore = g.coreCounters()
			lag = startLagProbe(ctx, g)
		}
	}, func() {
		if cfg.traced {
			res.set("core.propagation_lag_ms_p50", lag.finish())
			coreAfter = g.coreCounters()
		}
	})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		ok, _ := d.totals()
		cd := delta(coreBefore, coreAfter)
		hits, remote := cd["core_dr_local_hits_total"], cd["core_dr_remote_reads_total"]
		res.set("core.wan_ms_per_op", cd["wan_ns"]/float64(max(ok[readOp]+ok[writeOp], 1))/1e6)
		res.set("core.local_hit_ratio", hits/max(hits+remote, 1))
		res.set("core.remote_reads_per_lookup", remote/float64(max(ok[readOp], 1)))
		res.set("core.propagated_per_publish", cd["propagator_propagated_total"]/float64(max(ok[writeOp], 1)))
	}
	if err := g.svc.Flush(ctx); err != nil {
		res.fail(1, "final Flush: %v", err)
	}
	var total int64
	for _, l := range g.logs {
		total += int64(len(l.entries()))
	}
	res.Attempted += total
	if off := g.checkLens(ctx); off != 0 {
		res.fail(off, "per-site Len after Flush is off by %d entries in total", off)
	}
	res.finish()
	return res, nil
}
