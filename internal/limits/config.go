package limits

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// Duration is a time.Duration that unmarshals from either a JSON string
// ("500ms", "5m") or a number of nanoseconds, so tenant-config files can be
// written by hand.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string ("5m0s").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m"-style strings or raw nanosecond numbers; a
// number outside the range of time.Duration is refused.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("limits: bad duration %q: %w", x, err)
		}
		*d = Duration(p)
	case float64:
		// float64(math.MaxInt64) rounds up to 2^63, itself out of range.
		if !(x >= math.MinInt64 && x < math.MaxInt64) {
			return fmt.Errorf("limits: duration %v ns is out of range", x)
		}
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("limits: bad duration %v (want string or number)", v)
	}
	return nil
}

// TenantLimit is the admission budget for one tenant. Zero rates mean
// unlimited on that axis; a negative rate denies everything on that axis. A
// zero burst with a positive rate defaults to one second's worth.
type TenantLimit struct {
	// OpsPerSec is the sustained operation rate (batch frames count one
	// op per batched operation).
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// OpsBurst is the operation bucket capacity.
	OpsBurst float64 `json:"ops_burst,omitempty"`
	// BytesPerSec is the sustained request-payload byte rate.
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// BytesBurst is the byte bucket capacity.
	BytesBurst float64 `json:"bytes_burst,omitempty"`
}

// Config is a Limiter's full policy: a default budget, per-tenant
// overrides, the load-shedding ceiling, and tenant-table bounds. The zero
// Config (normalized through withDefaults) admits everything.
type Config struct {
	// Default applies to every tenant without an explicit entry in
	// Tenants, including DefaultTenant unless overridden.
	Default TenantLimit `json:"default"`
	// Tenants maps tenant IDs to their budgets.
	Tenants map[string]TenantLimit `json:"tenants,omitempty"`
	// MaxInflight is the server-wide admitted-but-unfinished ceiling;
	// beyond it requests are shed with ReasonInflight. 0 disables
	// shedding.
	MaxInflight int `json:"max_inflight,omitempty"`
	// ShedRetryAfter is the retry hint attached to shed rejections
	// (default 50ms — sheds clear quickly or not at all).
	ShedRetryAfter Duration `json:"shed_retry_after,omitempty"`
	// MaxTenants bounds the tenant table (default 1024).
	MaxTenants int `json:"max_tenants,omitempty"`
	// IdleAfter is how long a tenant may go unused before it is
	// evictable when the table fills (default 5m).
	IdleAfter Duration `json:"idle_after,omitempty"`
}

// withDefaults fills unset bounds with their defaults.
func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.IdleAfter <= 0 {
		c.IdleAfter = Duration(5 * time.Minute)
	}
	if c.ShedRetryAfter <= 0 {
		c.ShedRetryAfter = Duration(50 * time.Millisecond)
	}
	return c
}

// limitFor returns the budget for a tenant: its explicit entry if present,
// the default otherwise.
func (c Config) limitFor(id string) TenantLimit {
	if t, ok := c.Tenants[id]; ok {
		return t
	}
	return c.Default
}

// ParseConfig decodes a JSON tenant-config document. Unknown fields are
// rejected so a typo in a config file fails loudly at load time rather than
// silently admitting everything.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("limits: parse config: %w", err)
	}
	if cfg.MaxInflight < 0 {
		return Config{}, fmt.Errorf("limits: max_inflight must be >= 0, got %d", cfg.MaxInflight)
	}
	if cfg.MaxTenants < 0 {
		return Config{}, fmt.Errorf("limits: max_tenants must be >= 0, got %d", cfg.MaxTenants)
	}
	return cfg, nil
}

// LoadConfig reads and parses a tenant-config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("limits: load config: %w", err)
	}
	return ParseConfig(data)
}
