package limits

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"default": {"ops_per_sec": 500, "ops_burst": 100},
		"tenants": {
			"abuser": {"ops_per_sec": 10, "bytes_per_sec": 4096, "bytes_burst": 8192}
		},
		"max_inflight": 64,
		"shed_retry_after": "25ms",
		"max_tenants": 16,
		"idle_after": "2m"
	}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.Default.OpsPerSec != 500 || cfg.Default.OpsBurst != 100 {
		t.Fatalf("default = %+v", cfg.Default)
	}
	if lim := cfg.limitFor("abuser"); lim.OpsPerSec != 10 || lim.BytesPerSec != 4096 {
		t.Fatalf("abuser limit = %+v", lim)
	}
	if lim := cfg.limitFor("unlisted"); lim != cfg.Default {
		t.Fatalf("unlisted tenant limit = %+v, want default", lim)
	}
	if cfg.MaxInflight != 64 || cfg.ShedRetryAfter.D() != 25*time.Millisecond {
		t.Fatalf("shed config = %d/%v", cfg.MaxInflight, cfg.ShedRetryAfter)
	}
	if cfg.MaxTenants != 16 || cfg.IdleAfter.D() != 2*time.Minute {
		t.Fatalf("table config = %d/%v", cfg.MaxTenants, cfg.IdleAfter)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"defualt": {}}`,
		"bad duration":      `{"idle_after": "fast"}`,
		"bad duration type": `{"idle_after": true}`,
		"negative inflight": `{"max_inflight": -1}`,
		"negative tenants":  `{"max_tenants": -5}`,
		"not json":          `nope`,
	}
	for name, doc := range cases {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%s: ParseConfig accepted %q", name, doc)
		}
	}
}

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"default": {"ops_per_sec": 9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if cfg.Default.OpsPerSec != 9 {
		t.Fatalf("loaded default = %+v", cfg.Default)
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadConfig of missing file succeeded")
	}
}

func TestDurationJSON(t *testing.T) {
	d := Duration(90 * time.Second)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshal = %s", b)
	}
	var back Duration
	if err := json.Unmarshal(b, &back); err != nil || back != d {
		t.Fatalf("roundtrip = %v, %v", back, err)
	}
	// Raw nanosecond numbers are accepted too.
	if err := json.Unmarshal([]byte("1500000000"), &back); err != nil || back.D() != 1500*time.Millisecond {
		t.Fatalf("numeric unmarshal = %v, %v", back, err)
	}
	if back.String() != "1.5s" {
		t.Fatalf("String = %q", back.String())
	}
	if err := back.UnmarshalJSON([]byte("{")); err == nil {
		t.Fatal("malformed JSON unmarshalled")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxTenants != 1024 || cfg.IdleAfter.D() != 5*time.Minute || cfg.ShedRetryAfter.D() != 50*time.Millisecond {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// FuzzParseConfig holds ParseConfig and the Limiter it feeds to their
// contract on any document: parsing never panics; a duration given as a
// number of nanoseconds decodes to that number; an accepted config builds a
// Limiter; and every refusal's retry hint is positive and no more than the
// time to refill the refusing bucket's burst, or the 1 ms floor when that is
// shorter. A request of twice the burst or more is hinted exactly that time.
// The corpus under testdata/fuzz holds the out-of-range numbers that once
// decoded to another duration or hint.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"default": {"ops_per_sec": 500, "ops_burst": 100}, "max_inflight": 64, "shed_retry_after": "25ms", "idle_after": 120000000000}`,
		`{"default": {"ops_per_sec": -1}, "tenants": {"abuser": {"ops_per_sec": 10, "bytes_per_sec": 4096, "bytes_burst": 8192}}}`,
		`{"default": {"ops_per_sec": 1e10, "ops_burst": 1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := ParseConfig(doc)
		if err != nil {
			return
		}
		checkNumericDurations(t, doc, cfg)
		l := New(cfg, nil)
		ids := []string{DefaultTenant}
		for id := range cfg.Tenants {
			if id != "" && len(ids) < 4 {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			lim := cfg.limitFor(id)
			for _, req := range [][2]int{{1, 1}, {oversized(lim.OpsBurst, lim.OpsPerSec), 0}, {1, oversized(lim.BytesBurst, lim.BytesPerSec)}} {
				finish, err := l.Admit(id, req[0], req[1])
				if err == nil {
					finish(0)
					continue
				}
				var o *Overload
				if !errors.As(err, &o) {
					t.Fatalf("Admit(%q, %d, %d) = %v, not an *Overload", id, req[0], req[1], err)
				}
				switch o.Reason {
				case ReasonRate:
					checkHint(t, o.RetryAfter, lim.OpsPerSec, lim.OpsBurst, req[0])
				case ReasonBytes:
					checkHint(t, o.RetryAfter, lim.BytesPerSec, lim.BytesBurst, req[1])
				default:
					if want := cfg.withDefaults().ShedRetryAfter.D(); o.RetryAfter != want {
						t.Fatalf("shed hint %v, want the configured %v", o.RetryAfter, want)
					}
				}
			}
		}
	})
}

// oversized returns a request of at least twice a bucket's burst, so its
// missing tokens are the whole burst however full the bucket is, or 1 when
// the burst is too large for one.
func oversized(burst, rate float64) int {
	if burst <= 0 {
		burst = rate
	}
	if !(burst > 0 && burst < 1e15) {
		return 1
	}
	return int(2*burst) + 1
}

// checkHint checks a refused request's retry hint against its bucket: a
// denying bucket hints 1 s; otherwise the hint is positive, no more than the
// time to refill the burst (or 1 ms when that is shorter), and equal to it
// for a request of twice the burst or more.
func checkHint(t *testing.T, hint time.Duration, rate, burst float64, n int) {
	t.Helper()
	if rate < 0 {
		if hint != time.Second {
			t.Fatalf("denying bucket hinted %v, want 1s", hint)
		}
		return
	}
	if burst <= 0 {
		burst = rate
	}
	full := time.Duration(math.MaxInt64)
	if ns := burst / rate * float64(time.Second); ns < math.MaxInt64 {
		full = time.Duration(ns)
	}
	full = max(full, time.Millisecond)
	if hint <= 0 || hint > full {
		t.Fatalf("rate %v burst %v: a request of %d hinted %v, want (0, %v]", rate, burst, n, hint, full)
	}
	if float64(n) >= 2*burst && hint != full {
		t.Fatalf("rate %v burst %v: a request of %d, at least twice the burst, hinted %v, want %v", rate, burst, n, hint, full)
	}
}

// checkNumericDurations checks that each top-level duration the document
// gives as a number of nanoseconds, under exactly one spelling of its key,
// decoded to that number, truncated.
func checkNumericDurations(t *testing.T, doc []byte, cfg Config) {
	t.Helper()
	var top map[string]any
	if json.NewDecoder(bytes.NewReader(doc)).Decode(&top) != nil {
		return
	}
	for key, got := range map[string]Duration{"idle_after": cfg.IdleAfter, "shed_retry_after": cfg.ShedRetryAfter} {
		var values []any
		for k, v := range top {
			if strings.EqualFold(k, key) {
				values = append(values, v)
			}
		}
		if len(values) != 1 {
			continue
		}
		if x, ok := values[0].(float64); ok && float64(got) != math.Trunc(x) {
			t.Fatalf("%s: %v decoded to %v (%d ns)", key, x, got, int64(got))
		}
	}
}
