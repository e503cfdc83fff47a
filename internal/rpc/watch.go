package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"geomds/internal/feed"
	"geomds/internal/registry"
)

// This file implements the watch half of the wire protocol: a client opens a
// long-lived subscription to the server registry's change feed and the
// server pushes every committed put and delete as it happens, tagged with
// the feed sequence number the client can resume from after a reconnect.
// The frame flow (normatively specified in docs/WIRE.md) is:
//
//	client                              server
//	  ── FrameWatch{FromSeq,Prefix} ──►
//	  ◄── FrameWatch ack{StartSeq,Fallback} ──
//	  ◄── FrameWatchEvent{Events...} ──   (repeated)
//	  ◄── FrameWatchEvent{Err} ──         (terminal, on feed loss)
//	  ── FrameWatchCancel ──►             (or just close the connection)
//
// A FromSeq older than the server's retained event window is answered with
// the cursor-too-old error when the client set NoFallback; otherwise the
// server falls back transparently: the ack carries Fallback=true and the
// current state arrives as synthetic put events (all at StartSeq) before
// the live tail. A single or batch frame naming the watch op is refused with
// bad-op (streaming cannot be expressed in the one-response-per-request
// shape).

// Watch frame kinds (see FrameKind).
const (
	// FrameWatch opens a subscription (client to server) and acknowledges
	// it (server to client).
	FrameWatch FrameKind = 3
	// FrameWatchEvent carries a batch of change events server to client. A
	// frame whose Resp.Err is set is terminal: the subscription ended.
	FrameWatchEvent FrameKind = 4
	// FrameWatchCancel closes the subscription with the same header ID.
	FrameWatchCancel FrameKind = 5
)

// ErrCursorTooOld reports that the requested resume cursor predates the
// server's retained event window and the client disabled the snapshot
// fallback. The client maps it onto feed.ErrCompacted.
const ErrCursorTooOld ErrCode = "cursor-too-old"

// ErrFeedLagged reports that the server dropped the subscription because
// the client consumed too slowly; resume from the last delivered sequence.
const ErrFeedLagged ErrCode = "feed-lagged"

// ErrFeedClosed reports that the feed behind the subscription shut down.
const ErrFeedClosed ErrCode = "feed-closed"

// WatchRequest is the payload of a client-to-server FrameWatch.
type WatchRequest struct {
	// FromSeq is the resume cursor: events with sequence numbers greater
	// than it are streamed. 0 subscribes from the start of the retained
	// window.
	FromSeq uint64
	// Prefix, when non-empty, restricts the stream to names with this
	// prefix (the key-range form of a watch: with the registry's
	// hash-based placement, "keys homed on shard S" is served by watching
	// the tier feed and filtering on Origin client-side instead).
	Prefix string
	// NoFallback refuses the snapshot fallback: a FromSeq older than the
	// retained window then fails with ErrCursorTooOld instead of
	// re-sending the current state.
	NoFallback bool
}

// WatchAck is the payload of the server's FrameWatch acknowledgement.
type WatchAck struct {
	// StartSeq is the sequence number the stream resumes after: FromSeq
	// normally, the snapshot head when Fallback is set.
	StartSeq uint64
	// Fallback reports that the cursor was too old and the current state
	// is being re-sent as put events before the live tail.
	Fallback bool
}

// watchEventBatch bounds how many events one FrameWatchEvent carries: the
// server yields once after an event arrives, then drains what is queued up to
// this many, so a burst amortizes framing without letting one frame grow
// unboundedly.
const watchEventBatch = 256

// encodeFeedErr classifies the feed sentinels terminating a subscription.
func encodeFeedErr(err error) (ErrCode, string) {
	switch {
	case errors.Is(err, feed.ErrLagged):
		return ErrFeedLagged, err.Error()
	case errors.Is(err, feed.ErrClosed):
		return ErrFeedClosed, err.Error()
	case errors.Is(err, feed.ErrCompacted):
		return ErrCursorTooOld, err.Error()
	}
	return encodeErr(err)
}

// decodeFeedErr maps the feed error codes back to their sentinels; other
// codes fall through to the standard table (which preserves an overload's
// retry-after hint).
func decodeFeedErr(resp Response) error {
	switch resp.Err {
	case ErrFeedLagged:
		return &wireError{detail: resp.Detail, cause: feed.ErrLagged}
	case ErrFeedClosed:
		return &wireError{detail: resp.Detail, cause: feed.ErrClosed}
	case ErrCursorTooOld:
		return &wireError{detail: resp.Detail, cause: feed.ErrCompacted}
	}
	return decodeRespErr(resp)
}

// --- Server side ---

// connWatches tracks one connection's live watch subscriptions so that a
// cancel frame (or the connection ending) stops the matching stream
// goroutines.
type connWatches struct {
	mu sync.Mutex
	m  map[uint64]context.CancelFunc
}

func newConnWatches() *connWatches {
	return &connWatches{m: make(map[uint64]context.CancelFunc)}
}

func (w *connWatches) add(id uint64, cancel context.CancelFunc) {
	w.mu.Lock()
	w.m[id] = cancel
	w.mu.Unlock()
}

func (w *connWatches) cancel(id uint64) {
	w.mu.Lock()
	cancel := w.m[id]
	delete(w.m, id)
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (w *connWatches) cancelAll() {
	w.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(w.m))
	for _, c := range w.m {
		cancels = append(cancels, c)
	}
	w.m = make(map[uint64]context.CancelFunc)
	w.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// startWatch opens one subscription and spawns its streaming goroutine. It
// answers the FrameWatch synchronously (ack or error) so the client knows
// the outcome before any event arrives.
func (s *Server) startWatch(conn net.Conn, wmu *sync.Mutex, wg *sync.WaitGroup, watches *connWatches, rf RequestFrame) {
	refuse := func(code ErrCode, detail string) {
		out := ResponseFrame{
			Header: Header{ID: rf.Header.ID, Kind: FrameWatch},
			Resp:   Response{OK: false, Err: code, Detail: detail},
		}
		s.obs.countErr(code)
		if err := s.writeReply(conn, wmu, &out); err != nil && !s.isClosed() {
			s.logger.Printf("rpc: write to %s: %v", conn.RemoteAddr(), err)
		}
	}
	feeder, ok := s.reg.(registry.ChangeFeeder)
	if !ok || feeder.ChangeFeed() == nil {
		refuse(ErrBadOp, "registry exposes no change feed")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	log := feeder.ChangeFeed()
	req := rf.Watch
	ack := WatchAck{StartSeq: req.FromSeq}
	var snapshot []feed.Event
	sub, err := log.Subscribe(req.FromSeq, feed.WithPrefix(req.Prefix), feed.WithBuffer(watchEventBatch))
	if errors.Is(err, feed.ErrCompacted) && !req.NoFallback {
		// Cursor too old: re-send the current state, then tail from the
		// head captured before the state was read (at-least-once across
		// the fallback; puts are idempotent upserts).
		var head uint64
		snapshot, head, err = feeder.FeedSnapshot(ctx)
		if err == nil {
			sub, err = log.Subscribe(head, feed.WithPrefix(req.Prefix), feed.WithBuffer(watchEventBatch))
		}
		ack = WatchAck{StartSeq: head, Fallback: true}
	}
	if err != nil {
		cancel()
		code, detail := encodeFeedErr(err)
		refuse(code, detail)
		return
	}
	out := ResponseFrame{
		Header: Header{ID: rf.Header.ID, Kind: FrameWatch},
		Resp:   Response{OK: true},
		Watch:  ack,
	}
	if err := s.writeReply(conn, wmu, &out); err != nil {
		cancel()
		sub.Close()
		conn.Close()
		return
	}
	watches.add(rf.Header.ID, cancel)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cancel()
		defer sub.Close()
		s.streamWatch(ctx, conn, wmu, rf.Header.ID, req.Prefix, snapshot, ack.StartSeq, sub)
		watches.cancel(rf.Header.ID)
	}()
}

// streamWatch pushes the snapshot (if any) and then the live tail until the
// subscription, the connection or the context ends.
func (s *Server) streamWatch(ctx context.Context, conn net.Conn, wmu *sync.Mutex, id uint64, prefix string, snapshot []feed.Event, startSeq uint64, sub *feed.Subscription) {
	send := func(events []feed.Event, terminal error) bool {
		out := ResponseFrame{
			Header: Header{ID: id, Kind: FrameWatchEvent},
			Resp:   Response{OK: terminal == nil},
		}
		out.Events = events
		if terminal != nil {
			out.Resp.Err, out.Resp.Detail = encodeFeedErr(terminal)
		}
		if err := s.writeReply(conn, wmu, &out); err != nil {
			conn.Close() // the watch consumer is gone; unblock the read loop
			return false
		}
		return true
	}
	if len(snapshot) > 0 {
		batch := make([]feed.Event, 0, min(len(snapshot), watchEventBatch))
		for _, ev := range snapshot {
			if prefix != "" && (len(ev.Name) < len(prefix) || ev.Name[:len(prefix)] != prefix) {
				continue
			}
			if ev.Seq == 0 {
				ev.Seq = startSeq
			}
			batch = append(batch, ev)
			if len(batch) == watchEventBatch {
				if !send(batch, nil) {
					return
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 && !send(batch, nil) {
			return
		}
	}
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				err := sub.Err()
				if err == nil {
					err = feed.ErrClosed
				}
				send(nil, err)
				return
			}
			// Yield once before draining, as the WAL's group commit does
			// before its sync: the events a write's other replicas are
			// publishing, and the write's own reply, run first, so one frame
			// carries them all and follows the reply.
			runtime.Gosched()
			batch := []feed.Event{ev}
			ended := false
		drain:
			for len(batch) < watchEventBatch {
				select {
				case ev2, ok2 := <-sub.Events():
					if !ok2 {
						ended = true
						break drain
					}
					batch = append(batch, ev2)
				default:
					break drain
				}
			}
			if !send(batch, nil) {
				return
			}
			if ended {
				err := sub.Err()
				if err == nil {
					err = feed.ErrClosed
				}
				send(nil, err)
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// --- Client side ---

// WatchOptions configure Client.Watch.
type WatchOptions struct {
	// Prefix restricts the stream to names with this prefix.
	Prefix string
	// NoFallback makes a too-old cursor fail with feed.ErrCompacted
	// instead of being served by the server's snapshot+tail fallback.
	NoFallback bool
}

// WatchStream is one live watch subscription. It implements feed.Stream, so
// a feed.Combiner can fan remote shards' watches into one consumer.
//
// The stream rides its own dedicated TCP connection: event delivery applies
// backpressure through the transport instead of competing with pipelined
// request/response traffic.
type WatchStream struct {
	conn net.Conn
	out  chan feed.Event
	done chan struct{}
	once sync.Once
	ack  WatchAck

	mu  sync.Mutex
	err error
}

// Events returns the event channel; it closes when the subscription ends
// (Close, server shutdown, transport loss, or the feed dropping the
// subscriber), after which Err explains why.
func (w *WatchStream) Events() <-chan feed.Event { return w.out }

// Err returns the terminal error after Events closed: nil after a clean
// Close, feed.ErrLagged / feed.ErrClosed for server-side feed ends, an
// error wrapping registry.ErrUnavailable for transport loss.
func (w *WatchStream) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// StartSeq returns the sequence number the stream resumed after: the
// requested cursor, or the snapshot head when Fallback reports true.
func (w *WatchStream) StartSeq() uint64 { return w.ack.StartSeq }

// Fallback reports whether the server fell back to snapshot+tail because
// the requested cursor predated its retained window.
func (w *WatchStream) Fallback() bool { return w.ack.Fallback }

// Close ends the subscription. Idempotent.
func (w *WatchStream) Close() {
	w.once.Do(func() {
		close(w.done)
		w.conn.Close()
	})
}

func (w *WatchStream) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Watch subscribes to the server registry's change feed, resuming after
// from (0 = the start of the retained window). The context bounds the
// subscription handshake only; the returned stream lives until Close or a
// terminal condition. A from older than the server's retained window is
// served by the snapshot+tail fallback — the current state arrives as put
// events before the live tail — unless opts.NoFallback is set, in which
// case it fails with feed.ErrCompacted.
func (c *Client) Watch(ctx context.Context, from uint64, opts WatchOptions) (*WatchStream, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.errClosed()
	}
	c.mu.Unlock()
	dialer := net.Dialer{Timeout: c.timeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("rpc: connect %s: %w", c.addr, ctx.Err())
		}
		return nil, fmt.Errorf("rpc: connect %s: %v: %w", c.addr, err, registry.ErrUnavailable)
	}
	c.obs.dials.Inc()
	id := c.nextID.Add(1)
	req := RequestFrame{
		Header: Header{ID: id, Kind: FrameWatch, Tenant: c.tenant},
		Watch:  WatchRequest{FromSeq: from, Prefix: opts.Prefix, NoFallback: opts.NoFallback},
	}
	if err := writeRequest(conn, &req); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: watch %s: %v: %w", c.addr, err, registry.ErrUnavailable)
	}
	// The handshake is bounded by the context's deadline (or the transport
	// timeout); the stream itself has no read deadline.
	if dl, ok := ctx.Deadline(); ok {
		conn.SetReadDeadline(dl)
	} else {
		conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	// The handshake and the stream read through one buffered reader: the ack
	// and the first events can arrive in one segment, and a second reader
	// would lose what the first one buffered.
	br := bufio.NewReaderSize(conn, connReadBuffer)
	var ackFrame ResponseFrame
	if err := readReply(br, &ackFrame); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: watch %s: %v: %w", c.addr, err, registry.ErrUnavailable)
	}
	conn.SetReadDeadline(time.Time{})
	if ackFrame.Header.Kind != FrameWatch {
		conn.Close()
		return nil, fmt.Errorf("rpc: watch %s: unexpected %d frame in handshake: %w", c.addr, ackFrame.Header.Kind, registry.ErrUnavailable)
	}
	if !ackFrame.Resp.OK {
		conn.Close()
		return nil, decodeFeedErr(ackFrame.Resp)
	}
	w := &WatchStream{
		conn: conn,
		out:  make(chan feed.Event, watchEventBatch),
		done: make(chan struct{}),
		ack:  ackFrame.Watch,
	}
	go w.readLoop(br)
	return w, nil
}

// readLoop decodes event frames from br, the reader the handshake used, and
// delivers them in order until the stream ends one way or another.
func (w *WatchStream) readLoop(br *bufio.Reader) {
	defer close(w.out)
	for {
		var rf ResponseFrame
		if err := readReply(br, &rf); err != nil {
			select {
			case <-w.done:
				// Closed locally: a clean end, not an error.
			default:
				w.setErr(fmt.Errorf("rpc: watch: %v: %w", err, registry.ErrUnavailable))
			}
			return
		}
		if rf.Header.Kind != FrameWatchEvent {
			continue
		}
		for _, ev := range rf.Events {
			select {
			case w.out <- ev:
			case <-w.done:
				return
			}
		}
		if rf.Resp.Err != ErrNone {
			w.setErr(decodeFeedErr(rf.Resp))
			return
		}
	}
}
