// Package feed implements the change-feed layer of the metadata tier: every
// committed put/delete of a registry shard is published as a sequenced Event
// into a per-shard Log, and consumers subscribe from a sequence cursor to
// receive first the retained backlog and then the live tail.
//
// The sequence numbers are the resume tokens of the watch protocol. A Log
// assigns them itself, consecutively; a durable shard starts its Log at the
// sequence number of its last WAL record (StartAt), so the numbers of one
// incarnation never reach back into those of the last. A consumer that
// reconnects re-subscribes from the last sequence it processed and misses
// nothing, as long as the cursor still falls inside the Log's retained
// window — when it does not (the ring evicted past it, or the shard
// restarted and the pre-restart backlog is gone), Subscribe fails with
// ErrCompacted and the consumer falls back to snapshot+tail: fetch the
// shard's current state as synthetic put events, then tail from the head
// sequence captured before the snapshot.
//
// In-process consumers need no subscription: they observe a Log (Observe,
// or Tail to start from a cursor) and see each event on the goroutine that
// publishes it. A Combiner fans many subscriptions into one consumer for
// those that cannot, with per-source resume cursors, automatic resubscribe
// with exponential backoff and the snapshot fallback above.
package feed

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"geomds/internal/metrics"
)

// Op is the kind of mutation an Event describes.
type Op uint8

const (
	// OpPut is an upsert: the event's Value is the entry's encoded bytes.
	OpPut Op = 1
	// OpDelete is a removal; Value is nil.
	OpDelete Op = 2
)

// String returns "put" or "delete".
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one committed mutation of a shard.
type Event struct {
	// Seq is the event's sequence number in its Log — the resume token.
	// A Log numbers its events consecutively from its start (StartAt).
	Seq uint64
	// Op is the mutation kind.
	Op Op
	// Name is the entry's name (the store key).
	Name string
	// Value is the encoded entry (registry.AppendEntry) for puts, nil for
	// deletes.
	Value []byte
	// Origin labels where the event was produced when a Log relays events
	// from several underlying feeds (the router's combined feed tags each
	// event with its shard, e.g. "shard-2"); empty on a shard's own feed.
	Origin string
	// Commit is the mutation's commit time in Unix nanoseconds. Relays
	// preserve the original commit time, so replication lag measured at the
	// final consumer spans the whole pipeline.
	Commit int64
	// Sync marks a mutation applied by a bulk replication operation (a
	// Merge or DeleteMany landing a batch from another deployment, or a
	// shard-migration sweep) rather than committed by a primary client
	// write. Watchers see both and can tell them apart; relays preserve the
	// mark.
	Sync bool
}

// Sentinel errors of the subscription protocol.
var (
	// ErrCompacted means the cursor falls outside the Log's retained window
	// — older than the oldest retained event (evicted, or the shard
	// restarted) or newer than the head (a cursor from a previous
	// incarnation). The consumer must fall back to snapshot+tail.
	ErrCompacted = errors.New("feed: cursor outside the retained window")
	// ErrLagged means the subscriber consumed too slowly and its buffer
	// overflowed; the subscription was dropped without losing Log state, so
	// re-subscribing from the last processed cursor resumes cleanly.
	ErrLagged = errors.New("feed: subscriber lagged and was dropped")
	// ErrClosed means the Log was closed.
	ErrClosed = errors.New("feed: log closed")
)

// DefaultCapacity is the number of recent events a Log retains for resume.
const DefaultCapacity = 4096

// DefaultSubscriberBuffer is the default per-subscription channel buffer.
const DefaultSubscriberBuffer = 256

// LogOption configures NewLog.
type LogOption func(*Log)

// WithCapacity sets how many recent events the Log retains (default
// DefaultCapacity). Values <= 0 keep the default.
func WithCapacity(n int) LogOption {
	return func(l *Log) {
		if n > 0 {
			l.capacity = n
		}
	}
}

// WithLogMetrics makes the Log report feed_events_total and
// feed_subscribers to the registry.
func WithLogMetrics(reg *metrics.Registry) LogOption {
	return func(l *Log) {
		l.events = reg.Counter("feed_events_total")
		l.subscribers = reg.Gauge("feed_subscribers")
	}
}

// Log is one shard's change feed: a bounded ring of recent events plus the
// live subscriber set. Publishing is cheap (append to the ring, one
// non-blocking send per subscriber) and never blocks on a slow consumer —
// a subscriber that cannot keep up is dropped with ErrLagged instead of
// back-pressuring the shard's write path.
//
// A Log is safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	capacity int // 0 once the log retains nothing (RetainNone)
	ring     []Event
	start    int    // index of the oldest retained event
	count    int    // retained events
	floor    uint64 // sequence horizon: events with Seq <= floor are gone
	seq      uint64 // last published (or started-at) sequence
	subs     map[*Subscription]struct{}
	closed   bool

	// observers are called in registration order (see Observe and Tail);
	// each is held by a pointer of its own, so that its detach finds it.
	observers []*observer

	events      *metrics.Counter
	subscribers *metrics.Gauge
}

// NewLog returns an empty feed log.
func NewLog(opts ...LogOption) *Log {
	l := &Log{capacity: DefaultCapacity, subs: make(map[*Subscription]struct{})}
	for _, o := range opts {
		o(l)
	}
	l.ring = make([]Event, l.capacity)
	return l
}

// StartAt positions an empty log at the given sequence: a durable shard
// starts its feed at its last WAL record's. Its previous incarnation
// published at most one event per record, so no earlier cursor passes the
// floor, and one that missed events takes the snapshot fallback.
func (l *Log) StartAt(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 && seq > l.seq {
		l.seq = seq
		l.floor = seq
	}
}

// RetainNone makes the log keep no window from now on, for a log whose
// events a relay retains: its ring goes, and each event it publishes moves
// the floor up to the head, so Tail and Subscribe from before the head answer
// ErrCompacted. The log goes on numbering its events and delivering them to
// its subscribers and observers.
func (l *Log) RetainNone() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.capacity, l.ring, l.start, l.count = 0, make([]Event, 1), 0, 0
	l.floor = l.seq
}

// Seq returns the sequence number of the last published event (the head).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Floor returns the sequence horizon: cursors below it are compacted.
func (l *Log) Floor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// Append publishes a mutation with the current time, returning its
// sequence number: Publish of the bare event.
func (l *Log) Append(op Op, name string, value []byte) uint64 {
	return l.Publish(&Event{Op: op, Name: name, Value: value})
}

// Publish publishes a copy of ev under the next sequence number, which it
// stamps on ev (with the current time for a zero Commit) and returns; on a
// closed log it returns 0. ev is taken by reference to keep the frames small:
// a publish, and what its observers publish in turn, runs at the bottom of a
// write's call chain, often on a new goroutine whose stack would have to grow.
func (l *Log) Publish(ev *Event) uint64 {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0
	}
	l.seq++
	ev.Seq = l.seq
	if ev.Commit == 0 {
		ev.Commit = time.Now().UnixNano()
	}
	retained := l.deliverLocked(ev)
	for _, o := range l.observers {
		o.fn(retained)
	}
	if l.capacity == 0 {
		*retained = Event{} // pins no value until the next publish
	}
	l.mu.Unlock()
	l.events.Inc()
	return ev.Seq
}

// deliverLocked appends the event to the ring and sends it to every matching
// subscriber, dropping one whose buffer is full. It returns the ring's copy.
func (l *Log) deliverLocked(ev *Event) *Event {
	retained := &l.ring[0]
	if l.capacity == 0 {
		// No window (RetainNone): the event is gone once it is delivered.
		// The one slot left holds the copy the observers see, so ev itself
		// never escapes to the heap.
		l.floor = l.seq
	} else {
		if l.count == l.capacity {
			// Evict the oldest retained event; the floor moves up to it.
			l.floor = l.ring[l.start].Seq
			l.start = (l.start + 1) % l.capacity
			l.count--
		}
		retained = &l.ring[(l.start+l.count)%l.capacity]
		l.count++
	}
	*retained = *ev
	var dropped []*Subscription
	for sub := range l.subs {
		select {
		case sub.ch <- *ev:
		default:
			// The subscriber's buffer is full: drop it rather than block
			// the shard's write path. Its cursor lets it resume.
			dropped = append(dropped, sub)
		}
	}
	for _, sub := range dropped {
		l.dropLocked(sub, ErrLagged)
	}
	return retained
}

// observer is one function added by Observe or Tail; a Tail observer is a
// consumer, and counts in feed_subscribers while it is attached.
type observer struct {
	fn     func(*Event)
	counts bool
}

// Observe adds fn to the log's observers and returns its detach function:
// fn sees each event after the ring and the subscribers, under the log's
// lock, before Publish returns, after the observers added before it. The
// event is the ring's copy: fn must not keep or modify it, nor call into the
// log. Closing the log calls fn(nil) once; on a closed log Observe calls it at
// once. Detaching is idempotent, and once it returns fn is not called again.
func (l *Log) Observe(fn func(*Event)) (detach func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		fn(nil)
		return func() {}
	}
	return l.observeLocked(&observer{fn: fn})
}

// Tail is Observe from a cursor, for a consumer that must not miss an event:
// under the log's lock it calls fn with each retained event after from, then
// adds fn as an observer, so fn sees every event after from exactly once and
// in order. It fails as Subscribe does, with ErrClosed on a closed log and
// ErrCompacted for a cursor outside the retained window, and like a
// subscription it counts in feed_subscribers until it is detached or the log
// closes. fn runs under the log's lock, on the committing goroutine, as an
// Observe observer does: a lock it takes comes after the log's in the lock
// order, and whoever holds that lock must not publish, subscribe or detach.
func (l *Log) Tail(from uint64, fn func(*Event)) (detach func(), err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.cursorErrLocked(from); err != nil {
		return nil, err
	}
	for i := 0; i < l.count; i++ {
		if ev := &l.ring[(l.start+i)%l.capacity]; ev.Seq > from {
			fn(ev)
		}
	}
	l.subscribers.Add(1)
	return l.observeLocked(&observer{fn: fn, counts: true}), nil
}

// cursorErrLocked reports why a consumer cannot start from the cursor:
// ErrClosed, or ErrCompacted for a cursor outside the retained window.
func (l *Log) cursorErrLocked(from uint64) error {
	switch {
	case l.closed:
		return ErrClosed
	case from < l.floor || from > l.seq:
		return ErrCompacted
	}
	return nil
}

// observeLocked appends o to the observers and returns its detach.
func (l *Log) observeLocked(o *observer) (detach func()) {
	l.observers = append(l.observers, o)
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		n := len(l.observers)
		l.observers = slices.DeleteFunc(l.observers, func(x *observer) bool { return x == o })
		if o.counts && len(l.observers) < n {
			l.subscribers.Add(-1)
		}
	}
}

// dropLocked removes the subscription and closes its channel with the given
// terminal error. Callers hold l.mu, so no Publish can race the close.
func (l *Log) dropLocked(sub *Subscription, err error) {
	if _, ok := l.subs[sub]; !ok {
		return
	}
	delete(l.subs, sub)
	sub.setErr(err)
	close(sub.ch)
	l.subscribers.Add(-1)
}

// Close ends every subscription (ErrClosed) and every observer, and stops
// the log.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for sub := range l.subs {
		l.dropLocked(sub, ErrClosed)
	}
	for _, o := range l.observers {
		o.fn(nil)
		if o.counts {
			l.subscribers.Add(-1)
		}
	}
	l.observers = nil
}

// SubOption configures Subscribe.
type SubOption func(*Subscription)

// WithBuffer sets the subscription's channel buffer (default
// DefaultSubscriberBuffer). The buffer bounds how far the consumer may fall
// behind live publishing before being dropped with ErrLagged.
func WithBuffer(n int) SubOption {
	return func(s *Subscription) {
		if n > 0 {
			s.buffer = n
		}
	}
}

// Subscribe registers a consumer resuming from the given cursor: every
// retained event with Seq > from is delivered first (the backlog), then the
// live tail. from = 0 on a fresh log means "everything"; from = Seq() means
// "only new events". It fails with ErrCompacted when the cursor falls
// outside the retained window — the caller then snapshots the shard state
// and re-subscribes from the head sequence captured before the snapshot.
func (l *Log) Subscribe(from uint64, opts ...SubOption) (*Subscription, error) {
	sub := &Subscription{log: l, buffer: DefaultSubscriberBuffer}
	for _, o := range opts {
		o(sub)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.cursorErrLocked(from); err != nil {
		return nil, err
	}
	var backlog []Event
	for i := 0; i < l.count; i++ {
		ev := l.ring[(l.start+i)%l.capacity]
		if ev.Seq > from {
			backlog = append(backlog, ev)
		}
	}
	// The channel must hold the whole backlog plus live headroom: the
	// backlog is queued before the subscriber reads anything.
	sub.ch = make(chan Event, len(backlog)+sub.buffer)
	for _, ev := range backlog {
		sub.ch <- ev
	}
	l.subs[sub] = struct{}{}
	l.subscribers.Add(1)
	return sub, nil
}

// Subscription is one consumer's view of a Log. Read Events until it is
// closed, then check Err: nil after Close, ErrLagged after a buffer
// overflow, ErrClosed after the log shut down.
type Subscription struct {
	log    *Log
	ch     chan Event
	buffer int

	mu  sync.Mutex
	err error
}

// Events returns the delivery channel. It is closed when the subscription
// ends for any reason.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Err returns why the subscription ended (nil for a clean Close).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Subscription) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Close detaches the subscription and closes its channel. Idempotent; safe
// to call concurrently with delivery.
func (s *Subscription) Close() {
	s.log.mu.Lock()
	s.log.dropLocked(s, nil)
	s.log.mu.Unlock()
	// dropLocked decremented the gauge only if the sub was still attached;
	// double Close is a no-op by the membership check inside it.
}
