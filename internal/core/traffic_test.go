package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/dht"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/registry"
	"geomds/internal/site"
)

// trafficFabric builds a 4-site fabric over the non-sleeping latency model
// with every site's instance behind a call counter.
func trafficFabric(t *testing.T) (*Fabric, *latency.Model, map[cloud.SiteID]*countingAPI) {
	t.Helper()
	topo := cloud.Azure4DC()
	lat := latency.New(topo, latency.WithSeed(1), latency.WithSleeper(func(time.Duration) {}))
	counters := make(map[cloud.SiteID]*countingAPI)
	instances := make(map[cloud.SiteID]registry.API)
	for _, s := range topo.Sites() {
		api, closeSite, err := site.Build(site.Config{
			Site:     s.ID,
			NewStore: func() registry.Store { return memcache.New(memcache.Config{}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeSite() }) //nolint:errcheck // memory-only site
		counters[s.ID] = newCountingAPI(api)
		instances[s.ID] = counters[s.ID]
	}
	return NewFabric(topo, lat, WithInstances(instances), WithMetricsRegistry(nil)), lat, counters
}

// trafficSnapshot is the cumulative traffic of a fabric: registry calls per
// site and method, and modelled exchanges per distance class.
type trafficSnapshot struct {
	calls    map[cloud.SiteID]map[string]int
	messages [3]int64
}

func takeTraffic(lat *latency.Model, counters map[cloud.SiteID]*countingAPI) trafficSnapshot {
	snap := trafficSnapshot{calls: make(map[cloud.SiteID]map[string]int)}
	for id, c := range counters {
		c.mu.Lock()
		m := make(map[string]int, len(c.calls))
		for method, n := range c.calls {
			m[method] = n
		}
		c.mu.Unlock()
		snap.calls[id] = m
	}
	for d, st := range lat.Stats() {
		snap.messages[d] = st.Messages
	}
	return snap
}

// since renders the traffic added after base as one canonical string:
// "s<site>{Method×n ...}" per site that received calls, then the modelled
// exchanges as local/region/geo counts. No traffic renders as "-".
func (s trafficSnapshot) since(base trafficSnapshot) string {
	var parts []string
	sites := make([]int, 0, len(s.calls))
	for id := range s.calls {
		sites = append(sites, int(id))
	}
	sort.Ints(sites)
	for _, id := range sites {
		var methods []string
		for method, n := range s.calls[cloud.SiteID(id)] {
			if d := n - base.calls[cloud.SiteID(id)][method]; d > 0 {
				methods = append(methods, fmt.Sprintf("%s×%d", method, d))
			}
		}
		if len(methods) > 0 {
			sort.Strings(methods)
			parts = append(parts, fmt.Sprintf("s%d{%s}", id, strings.Join(methods, " ")))
		}
	}
	for d, label := range []string{"local", "region", "geo"} {
		if n := s.messages[d] - base.messages[d]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// trafficNames picks one name hashed to site 2 and one hashed to site 1, the
// two placements the script needs (home elsewhere, home at the writer).
func trafficNames(sites []cloud.SiteID) (away, atWriter string) {
	placer := dht.NewModuloPlacer(sites)
	for i := 0; away == "" || atWriter == ""; i++ {
		name := fmt.Sprintf("traffic/%d", i)
		switch placer.Home(name) {
		case 2:
			if away == "" {
				away = name
			}
		case 1:
			if atWriter == "" {
				atWriter = name
			}
		}
	}
	return away, atWriter
}

// quoteRows renders rows as the Go string literals of a want table.
func quoteRows(rows []string) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "\t%q,\n", r)
	}
	return b.String()
}

func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "notfound"
	case errors.Is(err, ErrExists):
		return "exists"
	default:
		return "error"
	}
}

// TestStrategyTrafficCharacterisation pins what the paper's figures are made
// of: for every strategy and propagation mode, which registry calls each site
// receives and how many modelled exchanges of each distance class are charged,
// operation by operation. Every step is an operation followed by a Flush; a
// row reads "<step>: <outcome> <traffic of the operation> / <traffic of the
// Flush>".
//
// The script, issued over Azure4DC (sites 0,1 in Europe, 2,3 in the US): A is
// hashed to site 2 and written from site 1; B is hashed to its writer, site 1.
func TestStrategyTrafficCharacterisation(t *testing.T) {
	type config struct {
		name  string
		build func(*Fabric) (MetadataService, error)
		want  []string
	}
	configs := []config{
		{
			name: "centralized",
			build: func(f *Fabric) (MetadataService, error) {
				return NewCentralized(f, StrategyConfig{})
			},
			want: []string{
				"create A@1: ok s0{Create×1} region=1 / -",
				"lookup A@1: ok s0{Get×1} region=1 / -",
				"lookup A@3: ok s0{Get×1} geo=1 / -",
				"addlocation A@1: ok s0{AddLocation×1} region=1 / -",
				"addlocation A@3: ok s0{AddLocation×1} geo=1 / -",
				"create B@1: ok s0{Create×1} region=1 / -",
			},
		},
		{
			name: "replicated/polling",
			build: func(f *Fabric) (MetadataService, error) {
				return NewReplicated(f, StrategyConfig{SyncInterval: time.Hour})
			},
			want: []string{
				"create A@1: ok s1{Create×1} local=1 / s0{Merge×1} s1{GetMany×1 Merge×1} s2{Merge×1} s3{Merge×1} local=1 region=2 geo=2",
				"lookup A@1: ok s1{Get×1} local=1 / -",
				"lookup A@3: ok s3{Get×1} local=1 / -",
				"addlocation A@1: ok s1{AddLocation×1} local=1 / s0{Merge×1} s1{GetMany×1 Merge×1} s2{Merge×1} s3{Merge×1} local=1 region=2 geo=2",
				"addlocation A@3: ok s3{AddLocation×1} local=1 / s0{Merge×1} s1{Merge×1} s2{Merge×1} s3{GetMany×1 Merge×1} local=1 region=1 geo=3",
				"create B@1: ok s1{Create×1} local=1 / s0{Merge×1} s1{GetMany×1 Merge×1} s2{Merge×1} s3{Merge×1} local=1 region=2 geo=2",
			},
		},
		{
			name: "decentralized",
			build: func(f *Fabric) (MetadataService, error) {
				return NewDecentralized(f), nil
			},
			want: []string{
				"create A@1: ok s2{Create×1} geo=1 / -",
				"lookup A@1: ok s2{Get×1} geo=1 / -",
				"lookup A@3: ok s2{Get×1} region=1 / -",
				"addlocation A@1: ok s2{AddLocation×1} geo=1 / -",
				"addlocation A@3: ok s2{AddLocation×1} region=1 / -",
				"create B@1: ok s1{Create×1} local=1 / -",
			},
		},
		{
			name: "hybrid/eager",
			build: func(f *Fabric) (MetadataService, error) {
				return NewDecReplicated(f, StrategyConfig{Eager: true})
			},
			want: []string{
				"create A@1: ok s1{Create×1} s2{Create×1} local=1 geo=1 / -",
				"lookup A@1: ok s1{Get×1} local=1 / -",
				"lookup A@3: ok s2{Get×1} s3{Get×1} local=1 region=1 / -",
				"addlocation A@1: ok s1{AddLocation×1} s2{AddLocation×1} local=1 geo=1 / -",
				"addlocation A@3: ok s2{AddLocation×1} s3{AddLocation×1} local=1 region=1 / -",
				"create B@1: ok s1{Create×1} local=1 / -",
			},
		},
		{
			name: "hybrid/lazy",
			build: func(f *Fabric) (MetadataService, error) {
				return newManualHybrid(f)
			},
			want: []string{
				"create A@1: ok s1{Create×1} local=1 / s2{Merge×1} geo=1",
				"lookup A@1: ok s1{Get×1} local=1 / -",
				"lookup A@3: ok s2{Get×1} s3{Get×1} local=1 region=1 / -",
				"addlocation A@1: ok s1{AddLocation×1} local=1 / s2{Merge×1} geo=1",
				"addlocation A@3: ok s2{AddLocation×1} s3{AddLocation×1} local=1 region=1 / -",
				"create B@1: ok s1{Create×1} local=1 / -",
			},
		},
	}

	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			f, lat, counters := trafficFabric(t)
			svc, err := cfg.build(f)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			a, b := trafficNames(f.Sites())
			loc := func(s cloud.SiteID) registry.Location { return registry.Location{Site: s, Node: 7} }

			steps := []struct {
				label string
				run   func() error
			}{
				{"create A@1", func() error { _, err := svc.Create(tctx, 1, testEntry(a, 1)); return err }},
				{"lookup A@1", func() error { _, err := svc.Lookup(tctx, 1, a); return err }},
				{"lookup A@3", func() error { _, err := svc.Lookup(tctx, 3, a); return err }},
				{"addlocation A@1", func() error { _, err := svc.AddLocation(tctx, 1, a, loc(1)); return err }},
				{"addlocation A@3", func() error { _, err := svc.AddLocation(tctx, 3, a, loc(3)); return err }},
				{"create B@1", func() error { _, err := svc.Create(tctx, 1, testEntry(b, 1)); return err }},
			}
			var got []string
			for _, step := range steps {
				before := takeTraffic(lat, counters)
				opErr := step.run()
				afterOp := takeTraffic(lat, counters)
				if err := svc.Flush(tctx); err != nil {
					t.Fatalf("%s: flush: %v", step.label, err)
				}
				afterFlush := takeTraffic(lat, counters)
				got = append(got, fmt.Sprintf("%s: %s %s / %s", step.label, outcome(opErr), afterOp.since(before), afterFlush.since(afterOp)))
			}
			if strings.Join(got, "\n") != strings.Join(cfg.want, "\n") {
				t.Errorf("traffic of %s moved.\ngot:\n%s\nwant:\n%s", cfg.name, quoteRows(got), quoteRows(cfg.want))
			}
		})
	}
}
