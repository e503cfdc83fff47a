package limits

import (
	"testing"
	"time"
)

// admitAll charges every request against a token bucket it never runs dry
// of, so Admit does its whole admitted path: geobench's quota.
func admitAll() *Limiter {
	return New(Config{
		Default:     TenantLimit{OpsPerSec: 1e9, OpsBurst: 1e9, BytesPerSec: 1e12, BytesBurst: 1e12},
		MaxInflight: 100000,
	}, nil)
}

// denyAll refuses every request at its tenant's bucket.
func denyAll() *Limiter { return New(Config{Default: TenantLimit{OpsPerSec: -1}}, nil) }

// An admitted request, finished, allocates nothing: its finish is bound
// once, with its tenant. A refused one allocates only its Overload.
func TestAdmitAllocations(t *testing.T) {
	admit, deny := admitAll(), denyAll()
	if allocs := testing.AllocsPerRun(1000, func() {
		finish, err := admit.Admit("", 1, 256)
		if err != nil {
			t.Fatal(err)
		}
		finish(time.Microsecond)
	}); allocs > 0 {
		t.Errorf("an admitted request cost %v allocations, want none", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := deny.Admit("", 1, 256); err == nil {
			t.Fatal("a deny-all quota admitted a request")
		}
	}); allocs > 1 {
		t.Errorf("a refused request cost %v allocations, want at most 1", allocs)
	}
}

// BenchmarkAdmit is the in-package rung of the ladder's limits.admit_* and
// limits.reject_ns rows: one request of one operation and 256 bytes, admitted
// and finished, or refused by a deny-all quota.
func BenchmarkAdmit(b *testing.B) {
	b.Run("admitted", func(b *testing.B) {
		l := admitAll()
		b.ReportAllocs()
		for b.Loop() {
			finish, err := l.Admit("", 1, 256)
			if err != nil {
				b.Fatal(err)
			}
			finish(0)
		}
	})
	b.Run("rejected", func(b *testing.B) {
		l := denyAll()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := l.Admit("", 1, 256); err == nil {
				b.Fatal("a deny-all quota admitted a request")
			}
		}
	})
}
