package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// TestMetricsEndpointUnderRPCLoad composes the same stack cmd/metaserver
// serves behind -metrics-addr — an instrumented cache, a registry instance,
// an instrumented rpc server and the metrics HTTP handler — drives it with
// concurrent instrumented clients, and asserts that the exported Prometheus
// and JSON metrics include the instrumented series and only ever move
// forward. This is the acceptance test for the live-observability endpoint.
func TestMetricsEndpointUnderRPCLoad(t *testing.T) {
	reg := metrics.NewRegistry()
	cache := memcache.New(memcache.Config{Metrics: reg})
	inst := registry.NewInstance(cloud.SiteID(1), cache)
	srv := NewServer(inst, nil, WithServerMetrics(reg))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	web := httptest.NewServer(metrics.Handler(reg))
	defer web.Close()

	scrapeCounter := func(name string) int64 {
		t.Helper()
		body := httpGet(t, web.URL+"/metrics")
		m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("series %s missing from scrape:\n%s", name, body)
		}
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	before := scrapeCounter("rpc_server_dispatched_total")

	ctx := context.Background()
	const clients, perClient = 4, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(ctx, addr, WithMetrics(reg))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			ops := make([]Request, 0, perClient)
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("obs/c%d/f%d", c, i)
				if _, err := cl.Put(ctx, registry.NewEntry(name, 1024, "t", registry.Location{Site: 1})); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				ops = append(ops, Request{Op: OpGet, Name: name})
			}
			if _, err := cl.Batch(ctx, ops); err != nil {
				t.Errorf("batch: %v", err)
			}
			// A miss, to move the per-code error counters.
			if _, err := cl.Get(ctx, fmt.Sprintf("obs/c%d/missing", c)); err == nil {
				t.Error("get of missing entry succeeded")
			}
		}(c)
	}
	wg.Wait()

	after := scrapeCounter("rpc_server_dispatched_total")
	wantOps := int64(clients * (perClient*2 + 1)) // puts + batched gets + one miss
	if after-before < wantOps {
		t.Errorf("dispatched moved %d -> %d, want growth >= %d", before, after, wantOps)
	}
	if got := scrapeCounter("rpc_server_errors_not_found_total"); got < int64(clients) {
		t.Errorf("not-found errors = %d, want >= %d", got, clients)
	}
	// Client round trips: one per put, one per batch (N ops, one frame),
	// one per miss, plus the dial handshake.
	if wantCalls := int64(clients * (perClient + 3)); scrapeCounter("rpc_client_calls_total") < wantCalls-int64(clients) {
		t.Errorf("client calls = %d, want >= %d", scrapeCounter("rpc_client_calls_total"), wantCalls-int64(clients))
	}
	if got := scrapeCounter("rpc_client_dials_total"); got < int64(clients) {
		t.Errorf("dials = %d, want >= %d", got, clients)
	}
	if got := scrapeCounter("memcache_items"); got != int64(clients*perClient) {
		t.Errorf("memcache_items = %d, want %d", got, clients*perClient)
	}

	// Monotonicity across repeated scrapes of an idle system.
	if again := scrapeCounter("rpc_server_dispatched_total"); again < after {
		t.Errorf("dispatched went backwards: %d -> %d", after, again)
	}

	// The JSON snapshot must carry the batch-size histogram and the in-flight
	// gauge must be back to zero with every client done.
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/metrics.json")), &snap); err != nil {
		t.Fatal(err)
	}
	h, ok := snap.Histograms["rpc_client_batch_ops"]
	if !ok || h.Count != clients {
		t.Errorf("batch histogram = %+v, want %d batches", h, clients)
	}
	if h.Max != perClient {
		t.Errorf("batch max = %d, want %d", h.Max, perClient)
	}
	if got := snap.Gauges["rpc_client_inflight"]; got != 0 {
		t.Errorf("inflight = %d with all clients closed, want 0", got)
	}

	// And the trace ring must have seen the RPC ops.
	var events []metrics.TraceEvent
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/trace.json?n=32")), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events after RPC load")
	}
}

// TestClientRetiredOnCancelCounter verifies the retired-on-cancel counter:
// a call whose context is cancelled mid-flight counts as retired, not just
// errored.
func TestClientRetiredOnCancelCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	inst := registry.NewInstance(cloud.SiteID(1), memcache.New(memcache.Config{}))
	srv := NewServer(slowAPI{API: inst, delay: 200 * time.Millisecond}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(context.Background(), addr, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cl.Get(ctx, "slow-never"); err == nil {
		t.Fatal("expected the deadline to cut the call short")
	}
	if got := reg.Counter("rpc_client_retired_total").Value(); got != 1 {
		t.Fatalf("retired = %d, want 1", got)
	}
	if got := reg.Counter("rpc_client_errors_total").Value(); got < 1 {
		t.Fatalf("errors = %d, want >= 1", got)
	}
}

// TestClientSuppressedErrorCounter asserts the best-effort operations
// (Names, Len) count the transport errors they swallow, so a site silently
// degrading to "empty / zero" answers is observable.
func TestClientSuppressedErrorCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	inst := registry.NewInstance(cloud.SiteID(1), memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cl, err := Dial(ctx, addr, WithMetrics(reg), WithTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Create(ctx, registry.NewEntry("seed", 1, "t", registry.Location{Site: 1})); err != nil {
		t.Fatal(err)
	}
	suppressed := reg.Counter("rpc_client_suppressed_errors_total")

	// Healthy server: best-effort ops answer truthfully and swallow nothing.
	if len(cl.Names(ctx)) != 1 || cl.Len(ctx) != 1 {
		t.Fatal("best-effort ops gave wrong answers against a healthy server")
	}
	if got := suppressed.Value(); got != 0 {
		t.Fatalf("suppressed = %d against a healthy server, want 0", got)
	}

	// Dead server: the same calls degrade to empty/zero — and each swallowed
	// failure is counted.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if names := cl.Names(ctx); names != nil {
		t.Fatalf("Names should be empty once the server is gone, got %v", names)
	}
	if n := cl.Len(ctx); n != 0 {
		t.Fatalf("Len should be 0 once the server is gone, got %d", n)
	}
	if got := suppressed.Value(); got != 2 {
		t.Fatalf("suppressed = %d after two degraded best-effort calls, want 2", got)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
