package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandlerScrapeUnderConcurrentLoad scrapes /metrics while writers hammer
// the instruments, asserting that the instrumented series appear and that
// counter readings are monotonic across scrapes. Run with -race to verify
// the whole path is data-race free.
func TestHandlerScrapeUnderConcurrentLoad(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				reg.Counter("load_ops_total").Inc()
				reg.Gauge("load_inflight").Add(1)
				reg.Histogram("load_latency_ns").ObserveDuration(50 * time.Microsecond)
				reg.Trace().Add("load.op", "k", time.Now(), 50*time.Microsecond, "")
				reg.Gauge("load_inflight").Add(-1)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	counterRe := regexp.MustCompile(`(?m)^load_ops_total (\d+)$`)
	var last int64 = -1
	for scrape := 0; scrape < 5; scrape++ {
		body := get(t, srv.URL+"/metrics")
		m := counterRe.FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("scrape %d: load_ops_total missing:\n%s", scrape, body)
		}
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < last {
			t.Fatalf("scrape %d: counter went backwards: %d -> %d", scrape, last, v)
		}
		last = v
		for _, want := range []string{"load_latency_ns_count", "load_inflight", "# TYPE load_ops_total counter"} {
			if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(body) {
				t.Fatalf("scrape %d: %q missing:\n%s", scrape, want, body)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if last <= 0 {
		t.Fatal("counter never advanced under load")
	}

	// The JSON snapshot endpoint must agree on the series names.
	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/metrics.json")), &snap); err != nil {
		t.Fatalf("bad /metrics.json: %v", err)
	}
	if snap.Counters["load_ops_total"] < last {
		t.Fatalf("json counter %d older than earlier text scrape %d", snap.Counters["load_ops_total"], last)
	}
	if _, ok := snap.Histograms["load_latency_ns"]; !ok {
		t.Fatal("histogram missing from JSON snapshot")
	}

	// And the trace endpoint must return well-formed recent events.
	var events []TraceEvent
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/trace.json?n=10")), &events); err != nil {
		t.Fatalf("bad /trace.json: %v", err)
	}
	if len(events) == 0 || len(events) > 10 {
		t.Fatalf("trace events = %d, want 1..10", len(events))
	}
	if events[0].Op != "load.op" {
		t.Fatalf("unexpected trace op %q", events[0].Op)
	}
}

func TestHandlerRejectsNonGetAndBadParams(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/trace.json?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /trace.json?n=bogus = %d, want 400", resp.StatusCode)
	}
}

func get(t *testing.T, url string) string {
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
