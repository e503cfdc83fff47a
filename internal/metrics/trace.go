package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceEvent is one completed operation in a registry's trace ring: what
// ran, where, how long it took, and whether it failed. Events are cheap
// enough to record on hot paths (one short critical section per event) and
// bounded in number, so tracing is always on; cmd/metactl stats and
// cmd/metasim -stats render the most recent ones live.
type TraceEvent struct {
	// Seq is the event's position in the ring's lifetime sequence; it keeps
	// increasing after old events are overwritten, so readers can tell how
	// many events they missed.
	Seq uint64 `json:"seq"`
	// At is the wall-clock completion time.
	At time.Time `json:"at"`
	// Op names the operation, dot-qualified by subsystem (e.g. "rpc.get",
	// "core.write", "core.sync").
	Op string `json:"op"`
	// Detail carries optional context: a target address, an entry name, a
	// batch size.
	Detail string `json:"detail,omitempty"`
	// Latency is the operation's duration.
	Latency time.Duration `json:"latency_ns"`
	// Err is the failure message; empty on success.
	Err string `json:"err,omitempty"`
}

// TraceRing is a bounded, concurrent ring buffer of recent TraceEvents. Once
// full, every new event overwrites the oldest one. The zero-capacity ring and
// a nil *TraceRing drop every event.
type TraceRing struct {
	capacity int // immutable after construction

	mu   sync.Mutex
	buf  []TraceEvent
	next uint64 // lifetime sequence number of the next event
}

// NewTraceRing returns a ring retaining the most recent capacity events.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 0 {
		capacity = 0
	}
	return &TraceRing{capacity: capacity, buf: make([]TraceEvent, 0, capacity)}
}

// Add records one operation that completed at end after latency; errText is
// its failure message, empty on success. The caller passes the clock reading
// and the text it already has, so recording an event reads no clock and
// formats nothing.
func (t *TraceRing) Add(op, detail string, end time.Time, latency time.Duration, errText string) {
	if t == nil || t.capacity == 0 {
		return
	}
	ev := TraceEvent{At: end, Op: op, Detail: detail, Latency: latency, Err: errText}
	t.mu.Lock()
	ev.Seq = t.next
	t.next++
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[ev.Seq%uint64(t.capacity)] = ev
	}
	t.mu.Unlock()
}

// Len returns how many events the ring currently retains.
func (t *TraceRing) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns how many events have been recorded over the ring's lifetime,
// including overwritten ones.
func (t *TraceRing) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Events returns up to max retained events, oldest first (all of them when
// max <= 0). A nil ring returns nil.
func (t *TraceRing) Events(max int) []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.buf)
	if n == 0 {
		return nil
	}
	out := make([]TraceEvent, 0, n)
	if n < t.capacity {
		out = append(out, t.buf...)
	} else {
		// The ring has wrapped: the oldest event sits at next % capacity.
		start := int(t.next % uint64(t.capacity))
		out = append(out, t.buf[start:]...)
		out = append(out, t.buf[:start]...)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// SummarizeEvents computes a latency Summary over the events, reusing the
// same math that summarizes a Recorder's samples. Operation kinds are
// recovered from the events' dot-qualified op names, so PerKind and
// RemoteCount are best-effort (RemoteCount stays 0: trace events do not
// carry locality).
func SummarizeEvents(events []TraceEvent) Summary {
	samples := make([]Sample, 0, len(events))
	for _, ev := range events {
		samples = append(samples, Sample{Kind: kindFromOp(ev.Op), Latency: ev.Latency})
	}
	return summarize(samples)
}

// kindFromOp maps a trace op name onto the closest OpKind.
func kindFromOp(op string) OpKind {
	if i := strings.LastIndexByte(op, '.'); i >= 0 {
		op = op[i+1:]
	}
	switch {
	case strings.Contains(op, "read"), strings.Contains(op, "get"), strings.Contains(op, "lookup"), strings.Contains(op, "contains"):
		return OpRead
	case strings.Contains(op, "write"), strings.Contains(op, "create"), strings.Contains(op, "put"), strings.Contains(op, "merge"):
		return OpWrite
	case strings.Contains(op, "del"):
		return OpDelete
	case strings.Contains(op, "sync"), strings.Contains(op, "flush"), strings.Contains(op, "batch"):
		return OpSync
	default:
		return OpUpdate
	}
}

// RenderEvents formats events as an aligned table for a terminal, oldest
// first. It returns "" for an empty slice.
func RenderEvents(events []TraceEvent) string {
	if len(events) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %-14s %-28s %-12s %s\n", "seq", "at", "op", "detail", "latency", "err")
	for _, ev := range events {
		errText := ev.Err
		if len(errText) > 40 {
			errText = errText[:37] + "..."
		}
		fmt.Fprintf(&b, "%-8d %-12s %-14s %-28s %-12s %s\n",
			ev.Seq, ev.At.Format("15:04:05.000"), ev.Op, clip(ev.Detail, 28),
			ev.Latency.Round(time.Microsecond), errText)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 3 {
		return s[:n]
	}
	return s[:n-3] + "..."
}

// RenderReport formats the standard terminal report the cmd/ binaries share:
// the snapshot's instruments followed by the recent trace events and their
// latency summary. Pass nil events to render the snapshot alone.
func RenderReport(snap Snapshot, events []TraceEvent) string {
	var b strings.Builder
	b.WriteString(snap.Render())
	if len(events) > 0 {
		fmt.Fprintf(&b, "\nrecent operations:\n%s", RenderEvents(events))
		sum := SummarizeEvents(events)
		fmt.Fprintf(&b, "last %d ops: mean %v  p95 %v  max %v\n",
			sum.Count, sum.Mean.Round(time.Microsecond), sum.P95.Round(time.Microsecond), sum.Max.Round(time.Microsecond))
	}
	return b.String()
}
