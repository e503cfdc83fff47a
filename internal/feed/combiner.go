package feed

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Stream is one live subscription a Combiner consumes: a channel of events
// that closes when the subscription ends, and a Close to detach early. *Subscription implements it for in-process
// logs; the RPC client's watch stream implements it for remote shards.
type Stream interface {
	Events() <-chan Event
	Close()
}

// Source is one feed a Combiner subscribes to.
type Source struct {
	// Name labels the source in output events, cursors and stream-state
	// callbacks (e.g. "site-2" or "shard-1").
	Name string
	// From is the initial resume cursor (0 = from the beginning).
	From uint64
	// Subscribe opens a stream resuming after the cursor. It must fail with
	// (or wrap) ErrCompacted when the cursor predates the source's retained
	// window, which routes the combiner into the snapshot fallback.
	Subscribe func(ctx context.Context, from uint64) (Stream, error)
	// Snapshot returns the source's current state as synthetic put events
	// plus the head sequence *captured before assembling the state*, so
	// that tailing from the returned head misses nothing (mutations racing
	// the snapshot may be delivered twice — once inside the state, once
	// from the tail — which is safe because puts are idempotent upserts).
	// A nil Snapshot disables the fallback: a compacted cursor then counts
	// as a subscribe failure and is retried with backoff.
	Snapshot func(ctx context.Context) ([]Event, uint64, error)
}

// SourceEvent is one event tagged with the source that produced it.
type SourceEvent struct {
	Source string
	Event
}

// Combiner defaults.
const (
	DefaultResubscribeBackoff    = 50 * time.Millisecond
	DefaultResubscribeBackoffMax = 2 * time.Second
)

// CombinerOption configures NewCombiner.
type CombinerOption func(*Combiner)

// WithResubscribeBackoff sets the initial and maximum delay between failed
// subscribe attempts (exponential in between).
func WithResubscribeBackoff(initial, max time.Duration) CombinerOption {
	return func(c *Combiner) {
		if initial > 0 {
			c.backoff = initial
		}
		if max >= initial && max > 0 {
			c.backoffMax = max
		}
	}
}

// WithStreamStateFunc installs a callback invoked (from the source's
// goroutine) on every stream transition: connected=true after each successful
// subscribe (including the snapshot fallback), connected=false the moment a
// live stream ends — lag drop, compaction, shard restart, transport loss —
// before the resubscribe loop starts its backoff. It reports every gap in
// delivery; the near cache uses it to flush and serve through while a gap is
// open, because events published inside the gap were never delivered.
func WithStreamStateFunc(fn func(source string, connected bool)) CombinerOption {
	return func(c *Combiner) { c.streamState = fn }
}

// WithCombinerBuffer sets the output channel's buffer (default 64).
func WithCombinerBuffer(n int) CombinerOption {
	return func(c *Combiner) {
		if n > 0 {
			c.outBuf = n
		}
	}
}

// Combiner fans many per-shard (or per-site) feed subscriptions into one
// consumer channel. Per-source event order is preserved; events of different
// sources interleave arbitrarily. Each source keeps its own resume cursor,
// advanced only after the event has been handed to the consumer, so a
// consumer cancelled mid-event sees every event at most once and a
// reconnect resumes with no gaps: exactly-once delivery to the output
// channel as long as cursors stay inside the sources' retained windows, and
// at-least-once (via the snapshot fallback) beyond that.
type Combiner struct {
	sources     []Source
	backoff     time.Duration
	backoffMax  time.Duration
	outBuf      int
	streamState func(string, bool)

	out    chan SourceEvent
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	cursors map[string]uint64
	started bool
}

// NewCombiner returns a combiner over the given sources; call Start to
// begin consuming.
func NewCombiner(sources []Source, opts ...CombinerOption) *Combiner {
	c := &Combiner{
		sources:    sources,
		backoff:    DefaultResubscribeBackoff,
		backoffMax: DefaultResubscribeBackoffMax,
		outBuf:     64,
		cursors:    make(map[string]uint64, len(sources)),
	}
	for _, o := range opts {
		o(c)
	}
	c.out = make(chan SourceEvent, c.outBuf)
	for _, src := range sources {
		c.cursors[src.Name] = src.From
	}
	return c
}

// Events returns the combined output channel. It closes after Close (or the
// Start context's cancellation) once every source goroutine has drained.
func (c *Combiner) Events() <-chan SourceEvent { return c.out }

// Cursor returns the source's resume cursor: the sequence number of the
// last event delivered to the output channel.
func (c *Combiner) Cursor(source string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cursors[source]
}

// Start launches one consuming goroutine per source. The combiner stops
// when ctx is cancelled or Close is called.
func (c *Combiner) Start(ctx context.Context) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	ctx, c.cancel = context.WithCancel(ctx)
	c.wg.Add(len(c.sources))
	for _, src := range c.sources {
		go c.run(ctx, src)
	}
	go func() {
		c.wg.Wait()
		close(c.out)
	}()
}

// Close stops every source goroutine; Events closes once they drain.
func (c *Combiner) Close() {
	c.mu.Lock()
	cancel := c.cancel
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	c.wg.Wait()
}

// run is one source's subscribe/consume/resubscribe loop.
func (c *Combiner) run(ctx context.Context, src Source) {
	defer c.wg.Done()
	backoff := c.backoff
	for ctx.Err() == nil {
		cursor := c.Cursor(src.Name)
		st, err := src.Subscribe(ctx, cursor)
		if err != nil && errors.Is(err, ErrCompacted) && src.Snapshot != nil {
			// The cursor fell out of the retained window: rebuild from a
			// state snapshot, then tail from the head captured before it.
			st, err = c.fallback(ctx, src)
		}
		if err != nil {
			if !sleep(ctx, backoff) {
				return
			}
			if backoff *= 2; backoff > c.backoffMax {
				backoff = c.backoffMax
			}
			continue
		}
		backoff = c.backoff
		if c.streamState != nil {
			c.streamState(src.Name, true)
		}
	consume:
		for {
			select {
			case ev, ok := <-st.Events():
				if !ok {
					// The stream ended (lag, shard restart, transport
					// loss); loop to resubscribe from the cursor.
					if c.streamState != nil {
						c.streamState(src.Name, false)
					}
					break consume
				}
				select {
				case c.out <- SourceEvent{Source: src.Name, Event: ev}:
					c.setCursor(src.Name, ev.Seq)
				case <-ctx.Done():
					// Cancelled mid-event: the cursor was not advanced, so
					// the undelivered event is replayed on the next resume
					// — and everything already delivered is behind the
					// cursor, so nothing is re-queued twice.
					st.Close()
					return
				}
			case <-ctx.Done():
				st.Close()
				return
			}
		}
	}
}

// fallback snapshots the source and returns the tail stream from the
// snapshot's head sequence, queueing the state itself as put events.
func (c *Combiner) fallback(ctx context.Context, src Source) (Stream, error) {
	events, head, err := src.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	st, err := src.Subscribe(ctx, head)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if ev.Seq == 0 {
			ev.Seq = head
		}
		select {
		case c.out <- SourceEvent{Source: src.Name, Event: ev}:
		case <-ctx.Done():
			st.Close()
			return nil, ctx.Err()
		}
	}
	c.setCursor(src.Name, head)
	return st, nil
}

func (c *Combiner) setCursor(source string, seq uint64) {
	c.mu.Lock()
	if seq > c.cursors[source] {
		c.cursors[source] = seq
	}
	c.mu.Unlock()
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
