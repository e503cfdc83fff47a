package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
//	  ◄── FrameWatchEvent{Err} ──         (terminal, on feed loss or lag)
//	  ── FrameWatchCancel ──►             (or just close the connection)
//
// A watch rides one of the client's pooled connections, beside its calls.
// On the server it is a Tail observer of the feed that queues events on the
// committing goroutine, and every write on the connection sends what the
// connection's watches have queued ahead of its own frame, in one write: a
// watched write's reply carries its events. The watch's own goroutine sends
// what no write took. On the client the connection's reader routes event
// frames to their streams without ever waiting for a consumer (see
// watchStall); one that stops reading ends its stream with feed.ErrLagged.
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

// watchEventBatch bounds how many events one FrameWatchEvent carries, so a
// burst amortizes framing without letting one frame grow unboundedly; a
// served watch may queue this many events beyond its backlog.
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

// serverWatch is one watch of a connection: a Tail observer of the
// registry's feed that queues the events its prefix selects, on the
// committing goroutine, for the connection's next write (see outbox).
type serverWatch struct {
	id     uint64
	prefix string
	wake   chan struct{} // one slot: the queue stopped being empty, or the watch ended

	mu    sync.Mutex // taken under the feed log's lock and under the outbox's
	queue []feed.Event
	limit int   // the queue length that lags the watch; 0 while Tail replays
	end   error // feed.ErrLagged or feed.ErrClosed; nothing is queued after it
}

// observe is the watch's Tail observer: it queues ev and wakes the stream
// goroutine when the queue was empty. A queue past its limit ends the watch
// with feed.ErrLagged, as a full subscription buffer drops a subscriber; the
// log closing (nil) ends it with feed.ErrClosed.
func (w *serverWatch) observe(ev *feed.Event) {
	if ev != nil && !strings.HasPrefix(ev.Name, w.prefix) {
		return
	}
	w.mu.Lock()
	if w.end != nil {
		w.mu.Unlock()
		return
	}
	wake := len(w.queue) == 0
	switch {
	case ev == nil:
		w.end, wake = feed.ErrClosed, true
	case w.limit > 0 && len(w.queue) >= w.limit:
		w.end, wake = feed.ErrLagged, true
	default:
		w.queue = append(w.queue, *ev)
	}
	w.mu.Unlock()
	if wake {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// appendQueued takes the whole queue, appending it to dst as event frames of
// at most watchEventBatch events. Its callers hold the outbox's lock, so the
// events of one watch go out in the order they were queued.
func (w *serverWatch) appendQueued(dst []byte) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	for q := w.queue; len(q) > 0 && err == nil; {
		n := min(len(q), watchEventBatch)
		dst, err = appendEventFrame(dst, w.id, q[:n], nil)
		q = q[n:]
	}
	clear(w.queue) // pins no event values
	w.queue = w.queue[:0]
	if cap(w.queue) > 4*watchEventBatch {
		w.queue = nil // a replayed backlog's array is not kept
	}
	return dst, err
}

// state reports whether events are queued and why the watch ended, if it has.
func (w *serverWatch) state() (queued bool, end error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue) > 0, w.end
}

// appendEventFrame appends one length-prefixed FrameWatchEvent carrying
// events, terminal if end is not nil. Such a frame has nobody to answer if it
// outgrows MaxMessageSize; that is an error, which ends its connection.
func appendEventFrame(dst []byte, id uint64, events []feed.Event, end error) ([]byte, error) {
	f := ResponseFrame{Header: Header{ID: id, Kind: FrameWatchEvent}, Resp: Response{OK: end == nil}, Events: events}
	if end != nil {
		f.Resp.Err, f.Resp.Detail = encodeFeedErr(end)
	}
	start := len(dst)
	dst = appendResponseFrame(append(dst, 0, 0, 0, 0), &f)
	size := len(dst) - start - 4
	if size > MaxMessageSize {
		return dst[:start], fmt.Errorf("rpc: event frame of %d bytes exceeds the message limit of %d", size, MaxMessageSize)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(size))
	return dst, nil
}

// startWatch tails the registry's feed for one watch and spawns its stream
// goroutine. It answers the FrameWatch synchronously (ack or error) so the
// client knows the outcome before any event arrives.
func (s *Server) startWatch(ob *outbox, wg *sync.WaitGroup, watches *connWatches, rf RequestFrame) {
	refuse := func(code ErrCode, detail string) {
		out := ResponseFrame{
			Header: Header{ID: rf.Header.ID, Kind: FrameWatch},
			Resp:   Response{OK: false, Err: code, Detail: detail},
		}
		s.obs.countErr(code)
		if err := s.writeReply(ob, &out); err != nil && !s.isClosed() {
			s.logger.Printf("rpc: write to %s: %v", peerName(ob.conn), err)
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
	w := &serverWatch{id: rf.Header.ID, prefix: req.Prefix, wake: make(chan struct{}, 1)}
	ack := WatchAck{StartSeq: req.FromSeq}
	var snapshot []feed.Event
	detach, err := log.Tail(req.FromSeq, w.observe)
	if errors.Is(err, feed.ErrCompacted) && !req.NoFallback {
		// Cursor too old: re-send the current state, then tail from the
		// head captured before the state was read (at-least-once across
		// the fallback; puts are idempotent upserts).
		var head uint64
		snapshot, head, err = feeder.FeedSnapshot(ctx)
		if err == nil {
			detach, err = log.Tail(head, w.observe)
		}
		ack = WatchAck{StartSeq: head, Fallback: true}
	}
	if err != nil {
		cancel()
		code, detail := encodeFeedErr(err)
		refuse(code, detail)
		return
	}
	// The watch lags once it queues watchEventBatch events past its backlog.
	w.mu.Lock()
	w.limit = len(w.queue) + watchEventBatch
	w.mu.Unlock()
	out := ResponseFrame{
		Header: Header{ID: rf.Header.ID, Kind: FrameWatch},
		Resp:   Response{OK: true},
		Watch:  ack,
	}
	if err := s.writeReply(ob, &out); err != nil {
		cancel()
		detach()
		ob.close()
		return
	}
	watches.add(rf.Header.ID, cancel)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cancel()
		defer detach()
		s.streamWatch(ctx, ob, w, snapshot, ack.StartSeq)
		watches.cancel(rf.Header.ID)
	}()
}

// streamWatch sends the snapshot (if any), makes the watch live, and then
// sends what no other write on the connection took, until the watch ends,
// the connection fails or the context ends. A write error closes the
// connection, which ends its read loop.
func (s *Server) streamWatch(ctx context.Context, ob *outbox, w *serverWatch, snapshot []feed.Event, startSeq uint64) {
	var frame []byte // one buffer for every frame the goroutine sends
	send := func(events []feed.Event, end error, leaving *serverWatch) bool {
		var err error
		if frame, err = appendEventFrame(frame[:0], w.id, events, end); err == nil {
			err = ob.write(frame, leaving)
		}
		if err != nil {
			ob.close()
		}
		return err == nil
	}
	if len(snapshot) > 0 {
		// Before the watch is live, so no live event overtakes the state.
		batch := make([]feed.Event, 0, min(len(snapshot), watchEventBatch))
		for _, ev := range snapshot {
			if !strings.HasPrefix(ev.Name, w.prefix) {
				continue
			}
			if ev.Seq == 0 {
				ev.Seq = startSeq
			}
			batch = append(batch, ev)
			if len(batch) == watchEventBatch {
				if !send(batch, nil, nil) {
					return
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 && !send(batch, nil, nil) {
			return
		}
	}
	ob.setLive(w, true)
	defer ob.setLive(w, false)
	for {
		select {
		case <-w.wake:
		case <-ctx.Done():
			return
		}
		// Yield once, as the WAL's group commit does before its sync: the
		// write whose commit queued the events usually runs first and sends
		// them ahead of its reply, with the events the write's other replicas
		// publish meanwhile.
		runtime.Gosched()
		queued, end := w.state()
		if end != nil {
			send(nil, end, w) // the queue, then the terminal frame
			return
		}
		if queued && ob.write(nil, nil) != nil {
			ob.close()
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

// watchStall is how long a stream's consumer may take no event while events
// wait for it. The connection's reader never waits for a consumer, because
// the connection carries other calls' replies: events the stream's buffer
// cannot take spill into a queue that a pump goroutine delivers, so a
// consumer that keeps reading receives a burst (a backlog, a fallback
// snapshot) whole, at its own pace. One that stops reading for watchStall
// ends its stream with feed.ErrLagged, as the server drops a watch that
// falls behind, and resumes from its cursor.
const watchStall = time.Second

// WatchStream is one live watch subscription. It implements feed.Stream, so
// a feed.Combiner can fan remote shards' watches into one consumer.
//
// The stream rides one of its Client's pooled connections, beside that
// connection's calls: the connection's reader routes the stream's event
// frames to it by their header ID, and the server sends the events queued
// for it ahead of its next reply on the connection.
type WatchStream struct {
	pc   *poolConn
	id   uint64
	out  chan feed.Event
	quit chan struct{} // closed by Close: the pump stops waiting on the consumer
	ack  WatchAck

	mu        sync.Mutex
	spill     []feed.Event // what out could not take, in order, for the pump
	pumping   bool         // the pump owns delivery until spill is empty
	ended     bool         // no further event is taken; err says why
	outClosed bool
	quitting  bool
	err       error
}

// Events returns the event channel; it closes when the subscription ends
// (Close, server shutdown, transport loss, the feed dropping the
// subscription, or the consumer stalling), after which Err explains why.
func (w *WatchStream) Events() <-chan feed.Event { return w.out }

// Err returns the terminal error after Events closed: nil after a clean
// Close, feed.ErrLagged / feed.ErrClosed for feed ends, an error wrapping
// registry.ErrUnavailable for transport loss or a closed Client.
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

// Close ends the subscription and cancels it at the server. Idempotent.
func (w *WatchStream) Close() {
	w.mu.Lock()
	if w.quitting {
		w.mu.Unlock()
		return
	}
	w.quitting = true
	close(w.quit)
	live := !w.ended
	w.ended, w.spill = true, nil
	if !w.pumping {
		w.closeOutLocked()
	}
	w.mu.Unlock()
	w.pc.forgetStream(w.id)
	if live {
		w.cancel()
	}
}

// cancel sends the server the stream's FrameWatchCancel. No reply answers
// it, so it is pending under the stream's ID only while it is written: the
// connection's watchdog bounds the write, and nothing outlives it.
func (w *WatchStream) cancel() {
	frame, err := encodeRequest(&RequestFrame{Header: Header{ID: w.id, Kind: FrameWatchCancel}})
	if err != nil {
		return
	}
	c := calls.Get().(*call)
	c.sent = time.Now()
	if w.pc.register(w.id, c) != nil {
		releaseFrame(frame)
		return
	}
	w.pc.send(frame) //nolint:errcheck // a failed write fails the connection, which the server sees
	w.pc.forget(w.id)
}

// end ends the stream with err unless it has ended already. The events it
// holds are still delivered first.
func (w *WatchStream) end(err error) {
	w.mu.Lock()
	w.endLocked(err)
	w.mu.Unlock()
}

func (w *WatchStream) endLocked(err error) {
	if !w.ended {
		w.ended, w.err = true, err
		if !w.pumping {
			w.closeOutLocked()
		}
	}
}

func (w *WatchStream) closeOutLocked() {
	if !w.outClosed {
		w.outClosed = true
		close(w.out)
	}
}

// deliver takes one event frame for the consumer without waiting for it,
// and reports whether the stream has ended.
func (w *WatchStream) deliver(rf *ResponseFrame) (ended bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ended {
		return true
	}
	for _, ev := range rf.Events {
		if !w.pumping {
			select {
			case w.out <- ev:
				continue
			default:
				w.pumping = true
				go w.pump()
			}
		}
		w.spill = append(w.spill, ev)
	}
	if rf.Resp.Err != ErrNone {
		w.endLocked(decodeFeedErr(rf.Resp))
	}
	return w.ended
}

// pump delivers the spilled events in order, waiting on the consumer as the
// connection's reader must not, until the spill is empty. A consumer that
// takes no event for watchStall ends the stream with feed.ErrLagged, and
// the server is told.
func (w *WatchStream) pump() {
	stall := time.NewTimer(watchStall)
	defer stall.Stop()
	for {
		w.mu.Lock()
		batch := w.spill
		w.spill = nil
		if len(batch) == 0 {
			w.pumping = false
			if w.ended {
				w.closeOutLocked()
			}
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		for _, ev := range batch {
			stall.Reset(watchStall)
			select {
			case w.out <- ev:
			case <-w.quit:
				w.mu.Lock()
				w.pumping = false
				w.closeOutLocked()
				w.mu.Unlock()
				return
			case <-stall.C:
				w.mu.Lock()
				lagged := !w.ended
				w.spill, w.pumping = nil, false
				w.endLocked(fmt.Errorf("rpc: watch %d: consumer took no event for %v: %w", w.id, watchStall, feed.ErrLagged))
				w.closeOutLocked()
				w.mu.Unlock()
				if lagged {
					w.pc.forgetStream(w.id)
					w.cancel()
				}
				return
			}
		}
	}
}

// Watch subscribes to the server registry's change feed, resuming after
// from (0 = the start of the retained window). The context bounds the
// subscription handshake only; the returned stream lives until Close, a
// terminal condition, or the end of the pooled connection it rides. A from
// older than the server's retained window is served by the snapshot+tail
// fallback — the current state arrives as put events before the live tail —
// unless opts.NoFallback is set, in which case it fails with
// feed.ErrCompacted.
func (c *Client) Watch(ctx context.Context, from uint64, opts WatchOptions) (*WatchStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("rpc: %s: %w", c.addr, err)
	}
	id := c.nextID.Add(1)
	frame, err := encodeRequest(&RequestFrame{
		Header: Header{ID: id, Kind: FrameWatch, Tenant: c.tenant},
		Watch:  WatchRequest{FromSeq: from, Prefix: opts.Prefix, NoFallback: opts.NoFallback},
	})
	if err != nil {
		return nil, fmt.Errorf("rpc: %s: %w", c.addr, err)
	}
	pc, err := c.grabConn(ctx)
	if err != nil {
		releaseFrame(frame)
		return nil, err
	}
	w := &WatchStream{pc: pc, id: id, out: make(chan feed.Event, watchEventBatch), quit: make(chan struct{})}
	// Registered before the request goes out: the first events can follow
	// the ack in one segment, and the reader routes them as it reads them.
	pc.addStream(id, w)
	ack, err := pc.do(ctx, id, frame, time.Now())
	switch {
	case err != nil:
		err = fmt.Errorf("rpc: watch %s: %w", c.addr, err)
	case ack.Header.Kind != FrameWatch:
		err = fmt.Errorf("rpc: watch %s: unexpected %d frame in handshake: %w", c.addr, ack.Header.Kind, registry.ErrUnavailable)
	case !ack.Resp.OK:
		pc.forgetStream(id)
		return nil, decodeFeedErr(ack.Resp)
	default:
		w.ack = ack.Watch
		return w, nil
	}
	// The server may have started the watch all the same.
	w.Close()
	return nil, err
}
