package core

import (
	"context"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

// This file holds the one operation path of the package. Every strategy
// operation is built from the same two steps — mutate and fetch, "one modelled
// exchange with the site that serves the entry plus one registry call there" —
// inside the same frame: refuse on a closed service, count, time, record one
// sample, wrap the error. The centralized, replicated and decentralized
// strategies are that path and nothing else (singleTarget); the hybrid
// strategy composes the steps twice, local site then hashed home.

// opNames are the OpError names of the four client operations.
var opNames = [...]string{
	metrics.OpRead:   "lookup",
	metrics.OpWrite:  "create",
	metrics.OpUpdate: "addlocation",
	metrics.OpDelete: "delete",
}

// service is what the four strategies share: the fabric they run over, the
// closed flag, the per-strategy operation counter and the frame around every
// operation.
type service struct {
	fabric *Fabric
	kind   StrategyKind
	closed atomic.Bool
	// ops counts every operation the strategy accepted
	// (core_strategy_<abbrev>_ops_total); nil when instrumentation is off.
	ops *metrics.Counter
}

func newService(fabric *Fabric, kind StrategyKind) service {
	return service{fabric: fabric, kind: kind, ops: fabric.strategyOps(kind)}
}

// Kind implements MetadataService.
func (s *service) Kind() StrategyKind { return s.kind }

// opFrame identifies one operation in flight: what it is, who issued it, on
// which entry, and when it started.
type opFrame struct {
	kind  metrics.OpKind
	from  cloud.SiteID
	name  string
	start time.Time
}

// begin opens an operation: it fails with ErrClosed on a closed service and
// otherwise counts the operation and starts its clock.
func (s *service) begin(kind metrics.OpKind, from cloud.SiteID, name string) (opFrame, error) {
	if s.closed.Load() {
		return opFrame{}, opErr(opNames[kind], from, name, ErrClosed)
	}
	s.ops.Inc()
	return opFrame{kind: kind, from: from, name: name, start: time.Now()}, nil
}

// finish closes an operation: one latency sample, and err as an *OpError.
func (s *service) finish(o opFrame, remote bool, err error) error {
	s.fabric.record(o.kind, o.start, remote)
	return opErr(opNames[o.kind], o.from, o.name, err)
}

// mutate is the write step: one modelled exchange carrying reqBytes from the
// caller's site to site to and an acknowledgement back, then the registry call
// do at that site's instance (the existence check of a create happens there,
// server-side, as part of the same request). A failed exchange — the caller
// gave up — skips the registry call. remote reports whether the exchange left
// the caller's datacenter.
func (f *Fabric) mutate(ctx context.Context, from, to cloud.SiteID, reqBytes int, do func(registry.API) (registry.Entry, error)) (e registry.Entry, remote bool, err error) {
	inst, err := f.Instance(to)
	if err != nil {
		return registry.Entry{}, false, err
	}
	if remote, err = f.call(ctx, from, to, reqBytes, f.ackBytes); err != nil {
		return registry.Entry{}, remote, err
	}
	if e, err = do(inst); err != nil {
		return registry.Entry{}, remote, err
	}
	return e, remote, nil
}

// fetch is the read step: the registry Get at site to, then the modelled
// exchange whose response carries the entry, or an acknowledgement when there
// is none. The registry's error wins over the exchange's: a genuine not-found
// is the answer even if the caller was cancelled while the modelled exchange
// completed, and only an otherwise-successful read surfaces the cancellation.
func (f *Fabric) fetch(ctx context.Context, from, to cloud.SiteID, name string) (registry.Entry, bool, error) {
	inst, err := f.Instance(to)
	if err != nil {
		return registry.Entry{}, false, err
	}
	e, err := inst.Get(ctx, name)
	respBytes := f.ackBytes
	if err == nil {
		respBytes = f.EntrySize(e)
	}
	remote, callErr := f.call(ctx, from, to, f.queryBytes, respBytes)
	if err == nil {
		err = callErr
	}
	if err != nil {
		return registry.Entry{}, remote, err
	}
	return e, remote, nil
}

// singleTarget implements the strategies in which one site serves the whole
// of an operation: the centralized baseline (a fixed site), the decentralized
// strategy (the entry's hashed home) and the replicated strategy's front end
// (the caller's own site). They differ in target and in what they do once an
// operation has been served (after), never in how it is served.
type singleTarget struct {
	service
	// target names the site that serves an operation on name issued from from.
	target func(from cloud.SiteID, name string) cloud.SiteID
	// after, when set, observes every served operation: whether it left the
	// caller's datacenter and how it ended.
	after func(o opFrame, remote bool, err error)
}

func (t *singleTarget) done(o opFrame, remote bool, err error) error {
	if t.after != nil {
		t.after(o, remote, err)
	}
	return t.finish(o, remote, err)
}

// Create implements MetadataService. Per the paper's definition a write is a
// look-up (to verify the name is free) followed by the actual write; both
// happen at the target instance within one round trip.
func (t *singleTarget) Create(ctx context.Context, from cloud.SiteID, e registry.Entry) (registry.Entry, error) {
	o, err := t.begin(metrics.OpWrite, from, e.Name)
	if err != nil {
		return registry.Entry{}, err
	}
	stored, remote, err := t.fabric.mutate(ctx, from, t.target(from, e.Name), t.fabric.EntrySize(e),
		func(inst registry.API) (registry.Entry, error) { return inst.Create(ctx, e) })
	return stored, t.done(o, remote, err)
}

// Lookup implements MetadataService: only the target instance is consulted.
func (t *singleTarget) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	o, err := t.begin(metrics.OpRead, from, name)
	if err != nil {
		return registry.Entry{}, err
	}
	e, remote, err := t.fabric.fetch(ctx, from, t.target(from, name), name)
	return e, t.done(o, remote, err)
}

// AddLocation implements MetadataService.
func (t *singleTarget) AddLocation(ctx context.Context, from cloud.SiteID, name string, loc registry.Location) (registry.Entry, error) {
	o, err := t.begin(metrics.OpUpdate, from, name)
	if err != nil {
		return registry.Entry{}, err
	}
	e, remote, err := t.fabric.mutate(ctx, from, t.target(from, name), t.fabric.queryBytes,
		func(inst registry.API) (registry.Entry, error) { return inst.AddLocation(ctx, name, loc) })
	return e, t.done(o, remote, err)
}

// Delete implements MetadataService.
func (t *singleTarget) Delete(ctx context.Context, from cloud.SiteID, name string) error {
	o, err := t.begin(metrics.OpDelete, from, name)
	if err != nil {
		return err
	}
	_, remote, err := t.fabric.mutate(ctx, from, t.target(from, name), t.fabric.queryBytes,
		func(inst registry.API) (registry.Entry, error) { return registry.Entry{}, inst.Delete(ctx, name) })
	return t.done(o, remote, err)
}

// Flush implements MetadataService for the strategies without asynchronous
// machinery: there is nothing to push.
func (t *singleTarget) Flush(ctx context.Context) error {
	if t.closed.Load() {
		return opErr("flush", 0, "", ErrClosed)
	}
	return ctx.Err()
}

// Close implements MetadataService.
func (t *singleTarget) Close() error {
	t.closed.Store(true)
	return nil
}
