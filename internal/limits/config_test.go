package limits

import (
	"encoding/json"
	"os"
	"path/filepath"
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
