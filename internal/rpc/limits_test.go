package rpc

// Admission-control tests: rejection happens between a frame's preamble and
// its body (no registry work; request_test.go checks that the body is not even
// decoded), the "overloaded" code round-trips with its retry-after hint, a
// bare version-1 request is refused without being charged, and per-call
// context tenants override the client-wide one.

import (
	"errors"
	"net"
	"testing"

	"geomds/internal/cloud"
	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// startLimitedServer brings up a server enforcing cfg and returns it with
// its metrics registry and address.
func startLimitedServer(t *testing.T, cfg limits.Config) (*Server, *metrics.Registry, string) {
	t.Helper()
	reg := metrics.NewRegistry()
	inst := registry.NewInstance(cloud.SiteID(1), memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil,
		WithServerMetrics(reg),
		WithServerLimits(limits.New(cfg, reg)))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, reg, addr
}

func TestOverLimitRejectedBeforeDispatch(t *testing.T) {
	srv, reg, addr := startLimitedServer(t, limits.Config{
		Tenants: map[string]limits.TenantLimit{
			// Two tokens: one for the dial handshake (OpSite), one for the
			// first Create. Negligible refill afterwards.
			"greedy": {OpsPerSec: 0.0001, OpsBurst: 2},
		},
	})
	client, err := Dial(tctx, addr, WithTenant("greedy"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	if _, err := client.Create(tctx, wireEntry("adm-1")); err != nil {
		t.Fatalf("Create within budget: %v", err)
	}
	served := srv.Requests()

	_, err = client.Create(tctx, wireEntry("adm-2"))
	if !errors.Is(err, limits.ErrOverloaded) {
		t.Fatalf("over-limit Create = %v, want ErrOverloaded", err)
	}
	// Rejected before dispatch: no registry work was performed.
	if srv.Requests() != served {
		t.Fatalf("rejected request reached dispatch: Requests %d -> %d", served, srv.Requests())
	}
	var o *limits.Overload
	if !errors.As(err, &o) || o.RetryAfter <= 0 {
		t.Fatalf("decoded error carries no retry-after hint: %v", err)
	}

	snap := reg.Snapshot()
	if snap.Counters["limits_rejected_total"] == 0 ||
		snap.Counters["limits_tenant_greedy_rejected_total"] == 0 {
		t.Fatalf("rejection not counted: %v", snap.Counters)
	}
	if snap.Counters["rpc_server_errors_overloaded_total"] == 0 {
		t.Fatal("rpc_server_errors_overloaded_total not incremented")
	}
	if snap.Counters["rpc_server_dispatched_total"] != served {
		t.Fatal("rejected request was dispatched")
	}
}

func TestBatchRejectionAnswersEveryOp(t *testing.T) {
	_, _, addr := startLimitedServer(t, limits.Config{
		Tenants: map[string]limits.TenantLimit{
			"batcher": {OpsPerSec: 0.0001, OpsBurst: 2},
		},
	})
	client, err := Dial(tctx, addr, WithTenant("batcher"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	// Dial consumed one token; a 3-op batch exceeds the remaining budget
	// and must be refused as a whole, one response per op.
	ops := []Request{
		{Op: OpCreate, Entry: wireEntry("b-1")},
		{Op: OpCreate, Entry: wireEntry("b-2")},
		{Op: OpCreate, Entry: wireEntry("b-3")},
	}
	resps, err := client.Batch(tctx, ops)
	if err != nil {
		t.Fatalf("Batch transport error: %v", err)
	}
	if len(resps) != len(ops) {
		t.Fatalf("batch answered %d of %d ops", len(resps), len(ops))
	}
	for i, r := range resps {
		if r.OK || r.Err != ErrOverloaded || r.RetryAfterNs <= 0 {
			t.Fatalf("op %d = %+v, want overloaded with retry-after", i, r)
		}
		if err := decodeRespErr(r); !errors.Is(err, limits.ErrOverloaded) {
			t.Fatalf("op %d decodes to %v", i, err)
		}
	}
}

// TestBareV1RequestRefused speaks the retired un-tagged protocol by hand: a
// bare length-framed Request is not a frame envelope, so the server drops the
// connection without dispatching it or charging any tenant — and keeps
// serving everyone else.
func TestBareV1RequestRefused(t *testing.T) {
	srv, reg, addr := startLimitedServer(t, limits.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(gobMessage(t, Request{Op: OpPing})); err != nil {
		t.Fatal(err)
	}
	var resp ResponseFrame
	if err := readReply(conn, &resp); err == nil {
		t.Fatalf("bare request answered with %+v, want the connection closed", resp)
	}
	if n := srv.Requests(); n != 0 {
		t.Errorf("server dispatched %d requests, want 0", n)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["limits_admitted_total"] + snap.Counters["limits_rejected_total"]; n != 0 {
		t.Errorf("limiter was offered %d requests, want 0", n)
	}
	client, err := Dial(tctx, addr)
	if err != nil {
		t.Fatalf("dial after the refusal: %v", err)
	}
	defer client.Close()
	if err := client.Ping(tctx); err != nil {
		t.Errorf("ping after the refusal: %v", err)
	}
}

func TestContextTenantOverridesClientTenant(t *testing.T) {
	_, _, addr := startLimitedServer(t, limits.Config{
		Tenants: map[string]limits.TenantLimit{
			"blocked": {OpsPerSec: -1}, // deny everything
		},
	})
	client, err := Dial(tctx, addr) // default tenant: unlimited
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	if _, err := client.Create(tctx, wireEntry("ov-1")); err != nil {
		t.Fatalf("default-tenant Create: %v", err)
	}
	_, err = client.Create(limits.WithTenant(tctx, "blocked"), wireEntry("ov-2"))
	if !errors.Is(err, limits.ErrOverloaded) {
		t.Fatalf("context-tenant Create = %v, want ErrOverloaded", err)
	}
	// The override is per call: the next default-tenant call still works.
	if _, err := client.Create(tctx, wireEntry("ov-3")); err != nil {
		t.Fatalf("Create after override: %v", err)
	}
}

func TestWatchAdmission(t *testing.T) {
	_, _, addr := startLimitedServer(t, limits.Config{
		Tenants: map[string]limits.TenantLimit{
			"blocked": {OpsPerSec: -1},
		},
	})
	client, err := Dial(tctx, addr, WithTenant("blocked"))
	// Dial itself is rejected for a denied tenant: admission covers the
	// handshake too.
	if !errors.Is(err, limits.ErrOverloaded) {
		if client != nil {
			client.Close()
		}
		t.Fatalf("dial as blocked tenant = %v, want ErrOverloaded", err)
	}

	// An unlimited client whose watch call names the blocked tenant is
	// refused at the frame boundary — even though this registry has no
	// change feed, the admission check fires first.
	open, err := Dial(tctx, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer open.Close()
	_, err = open.Watch(limits.WithTenant(tctx, "blocked"), 0, WatchOptions{})
	if !errors.Is(err, limits.ErrOverloaded) {
		t.Fatalf("watch as blocked tenant = %v, want ErrOverloaded", err)
	}
	if d, ok := limits.RetryAfter(err); !ok || d <= 0 {
		t.Fatalf("watch rejection retry-after = %v,%v", d, ok)
	}
}

func TestByteQuotaOverWire(t *testing.T) {
	_, reg, addr := startLimitedServer(t, limits.Config{
		Tenants: map[string]limits.TenantLimit{
			// Generous ops, small byte budget: the handshake fits, a
			// payload-heavy create (its entry is some 5 KB) does not.
			"heavy": {OpsPerSec: 1000, OpsBurst: 1000, BytesPerSec: 0.0001, BytesBurst: 4096},
		},
	})
	client, err := Dial(tctx, addr, WithTenant("heavy"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	big := registry.NewEntry("big", 1, "task", registry.Location{Site: 1, Node: 1})
	for i := 0; i < 1024; i++ {
		big.Locations = append(big.Locations, registry.Location{Site: cloud.SiteID(i), Node: cloud.NodeID(i)})
	}
	_, err = client.Create(tctx, big)
	if !errors.Is(err, limits.ErrOverloaded) {
		t.Fatalf("byte-heavy Create = %v, want ErrOverloaded", err)
	}
	if reg.Snapshot().Counters["limits_rejected_bytes_total"] == 0 {
		t.Fatal("byte rejection not counted by reason")
	}
}
