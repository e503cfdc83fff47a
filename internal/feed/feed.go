// Package feed implements the change-feed layer of the metadata tier: every
// committed put/delete of a registry shard is published as a sequenced Event
// into a per-shard Log, and consumers subscribe from a sequence cursor to
// receive first the retained backlog and then the live tail.
//
// The sequence numbers are the resume tokens of the watch protocol. For a
// durable shard they are the WAL sequence numbers themselves
// (store.Durable assigns them under its mutation mutex, so event order is
// exactly log order); for a memory-only shard the Log assigns its own
// consecutive sequence. A consumer that reconnects re-subscribes from the
// last sequence it processed and misses nothing, as long as the cursor still
// falls inside the Log's retained window — when it does not (the ring
// evicted past it, or the shard restarted and the pre-restart backlog is
// gone), Subscribe fails with ErrCompacted and the consumer falls back to
// snapshot+tail: fetch the shard's current state as synthetic put events,
// then tail from the head sequence captured before the snapshot.
//
// A Combiner fans many per-shard subscriptions into one consumer with
// per-source resume cursors, automatic resubscribe with exponential backoff,
// the snapshot fallback above, and breaker-style health propagation
// (consecutive subscribe failures mark a source down until a subscribe
// succeeds again — the same consecutive-failure shape as the registry
// router's shard breaker).
package feed

import (
	"errors"
	"fmt"
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
	// Seq is the event's sequence number in its Log — the resume token. For
	// durable shards it equals the WAL record's sequence number. Sequences
	// are strictly increasing per Log but may have holes (the WAL journals
	// some records, e.g. deletes of absent keys, that change no state and
	// publish no event).
	Seq uint64
	// Op is the mutation kind.
	Op Op
	// Name is the entry's name (the store key).
	Name string
	// Value is the encoded entry (registry.AppendEntry) for puts, nil for
	// deletes. Events replayed from data an older release wrote may carry a
	// gob value; registry.DecodeEntry reads both.
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
	// write. Feed-driven replication agents skip Sync events — they are the
	// agents' own applies coming back around — while watchers still see
	// them; relays preserve the mark.
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
	capacity int

	mu     sync.Mutex
	ring   []Event
	start  int    // index of the oldest retained event
	count  int    // retained events
	floor  uint64 // sequence horizon: events with Seq <= floor are gone
	seq    uint64 // last published (or started-at) sequence
	subs   map[*Subscription]struct{}
	closed bool

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

// StartAt positions an empty log at the given sequence: a durable shard that
// recovered its WAL to sequence n starts its feed there, so cursors from
// before the restart land below the floor and trigger the snapshot
// fallback instead of silently missing the un-replayable backlog.
func (l *Log) StartAt(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 && seq > l.seq {
		l.seq = seq
		l.floor = seq
	}
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

// Append publishes a mutation with the next self-assigned sequence number
// and the current time, returning the assigned sequence. Memory-only shards
// (no WAL to borrow sequences from) publish through it.
func (l *Log) Append(op Op, name string, value []byte) uint64 {
	return l.Publish(Event{Op: op, Name: name, Value: value})
}

// Publish publishes an event. A zero Seq is replaced with the next
// self-assigned sequence; a non-zero Seq (a WAL sequence, or a relay
// preserving holes) must exceed the head and becomes the new head. A zero
// Commit is stamped with the current time. Publish returns the event's
// sequence number; publishing on a closed log returns 0.
func (l *Log) Publish(ev Event) uint64 {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0
	}
	switch {
	case ev.Seq == 0:
		l.seq++
		ev.Seq = l.seq
	case ev.Seq > l.seq:
		l.seq = ev.Seq
	default:
		// A non-monotonic external sequence would corrupt every cursor;
		// refuse it.
		l.mu.Unlock()
		return 0
	}
	if ev.Commit == 0 {
		ev.Commit = time.Now().UnixNano()
	}
	if l.count == l.capacity {
		// Evict the oldest retained event; the floor moves up to it.
		l.floor = l.ring[l.start].Seq
		l.start = (l.start + 1) % l.capacity
		l.count--
	}
	l.ring[(l.start+l.count)%l.capacity] = ev
	l.count++
	var dropped []*Subscription
	for sub := range l.subs {
		if !sub.matches(ev) {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			// The subscriber's buffer is full: drop it rather than block
			// the shard's write path. Its cursor lets it resume.
			dropped = append(dropped, sub)
		}
	}
	for _, sub := range dropped {
		l.dropLocked(sub, ErrLagged)
	}
	l.mu.Unlock()
	l.events.Inc()
	return ev.Seq
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

// Close drops every subscription with ErrClosed and stops the log.
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

// WithPrefix delivers only events whose Name starts with the prefix.
func WithPrefix(p string) SubOption {
	return func(s *Subscription) { s.prefix = p }
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
	if l.closed {
		return nil, ErrClosed
	}
	if from < l.floor || from > l.seq {
		return nil, ErrCompacted
	}
	var backlog []Event
	for i := 0; i < l.count; i++ {
		ev := l.ring[(l.start+i)%l.capacity]
		if ev.Seq > from && sub.matches(ev) {
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
	prefix string

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

// matches reports whether the event passes the subscription's filter.
func (s *Subscription) matches(ev Event) bool {
	return s.prefix == "" || (len(ev.Name) >= len(s.prefix) && ev.Name[:len(s.prefix)] == s.prefix)
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
