package rpc

// One watchdog per pooled connection bounds every call on it, from the call's
// send: it must fail a connection whose oldest call waited the transport
// timeout, and nothing else — not a connection that sat idle, not calls that
// together span more than the timeout, not one that carried a watch.

import (
	"errors"
	"testing"
	"time"

	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// watchdogClient dials addr with one pooled connection, the given transport
// timeout and its own metrics registry, whose dial and error counters tell
// whether a call failed its connection and was retried on a fresh one.
func watchdogClient(t *testing.T, addr string, timeout time.Duration) (*Client, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	client, err := Dial(tctx, addr, WithPoolSize(1), WithTimeout(timeout), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, reg
}

// assertOneConnection fails t unless every call so far succeeded on the
// connection the client dialed first.
func assertOneConnection(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	if dials, errs := reg.Counter("rpc_client_dials_total").Value(), reg.Counter("rpc_client_errors_total").Value(); dials != 1 || errs != 0 {
		t.Errorf("%d dials and %d failed calls, want 1 and 0: the watchdog failed a healthy connection", dials, errs)
	}
}

// Calls that each take a third of the timeout, back to back for twice the
// timeout, keep the watchdog firing while one is pending; then a call after
// an idle spell longer than the timeout. None may fail the connection.
func TestIdleConnectionOutlivesTheTimeout(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		const timeout = 200 * time.Millisecond
		inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
		addr := tr.serve(t, NewServer(slowAPI{API: inst, delay: timeout / 3}, nil, WithServerMetrics(nil)))
		client, reg := watchdogClient(t, addr, timeout)
		if _, err := client.Create(tctx, wireEntry("slow-1")); err != nil {
			t.Fatal(err)
		}
		for i := range 6 {
			if _, err := client.Get(tctx, "slow-1"); err != nil {
				t.Fatalf("Get %d: %v", i, err)
			}
		}
		time.Sleep(5 * timeout / 2)
		if _, err := client.Get(tctx, "slow-1"); err != nil {
			t.Fatalf("Get after an idle spell: %v", err)
		}
		assertOneConnection(t, reg)
	})
}

// A call the server accepts and never answers fails after its one transport
// timeout — not retried on a fresh connection with a second one — wrapping
// ErrUnavailable, and the next call dials again and succeeds.
func TestUnansweredCallFailsAndRedials(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		const timeout = 200 * time.Millisecond
		api := &gatedAPI{nullAPI: nullAPI{entry: geobenchEntry(1)}, release: make(chan struct{})}
		defer close(api.release)
		addr := tr.serve(t, NewServer(api, nil, WithServerMetrics(nil)))
		client, reg := watchdogClient(t, addr, timeout)
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := client.Get(tctx, "gated")
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(25 * timeout):
			t.Fatal("a call the server never answers did not fail")
		}
		elapsed := time.Since(start)
		if !errors.Is(err, registry.ErrUnavailable) {
			t.Fatalf("an unanswered call = %v, want an error wrapping ErrUnavailable", err)
		}
		if elapsed < timeout || elapsed >= 2*timeout {
			t.Errorf("the unanswered call failed after %v, want one timeout of %v and not a second", elapsed, timeout)
		}
		dials := reg.Counter("rpc_client_dials_total")
		before := dials.Value()
		if err := client.Ping(tctx); err != nil {
			t.Fatalf("Ping after the failure: %v", err)
		}
		if dials.Value() != before+1 {
			t.Errorf("the call after a failed connection dialed %d times, want once", dials.Value()-before)
		}
	})
}

// Closing a watch writes its cancel on the connection the calls share; a call
// made more than a timeout later must find nothing of that write left on it.
func TestClosedWatchLeavesNoDeadline(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) {
		const timeout = 100 * time.Millisecond
		inst := registry.NewInstance(1, memcache.New(memcache.Config{}), registry.WithChangeFeed())
		t.Cleanup(func() { inst.Close() })
		addr := tr.serve(t, NewServer(inst, nil, WithServerMetrics(nil)))
		client, reg := watchdogClient(t, addr, timeout)
		w, err := client.Watch(tctx, 0, WatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		time.Sleep(5 * timeout / 2)
		if _, err := client.Put(tctx, wireEntry("after")); err != nil {
			t.Fatalf("Put after the watch's close: %v", err)
		}
		assertOneConnection(t, reg)
	})
}
