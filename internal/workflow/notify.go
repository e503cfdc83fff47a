package workflow

import (
	"sync"

	"context"

	"geomds/internal/core"
	"geomds/internal/feed"
	"geomds/internal/metrics"
)

// Notifier turns the fabric's change feeds into task wake-ups: instead of
// polling for an input's metadata on a fixed interval, a blocked task parks
// on its input's name and is woken the moment a put for that name is
// published anywhere in the deployment. Sync-marked events wake waiters too
// — deliberately: under feed-driven replication the Sync apply is exactly
// the moment the entry becomes visible at the waiting task's site.
//
// The polling fall-back never goes away: the engine still re-polls on its
// retry interval even with a Notifier attached, so a wake-up lost to feed
// retention (snapshot fallback collapses events) only costs latency, never
// progress.
type Notifier struct {
	mu      sync.Mutex
	waiters map[string][]chan struct{}
	closed  bool

	cancel context.CancelFunc
	comb   *feed.Combiner
	done   chan struct{}

	wakeups *metrics.Counter // workflow_feed_wakeups_total
}

// NewNotifier returns an empty notifier. Attach it to a fabric's feeds with
// ConsumeFeed, or drive it manually with Notify (tests, external feeds).
func NewNotifier() *Notifier {
	return &Notifier{waiters: make(map[string][]chan struct{})}
}

// ConsumeFeed subscribes the notifier to every site feed of the fabric and
// starts waking waiters on put events. It fails with core.ErrNoFeed when the
// fabric was built without site.Config.Feed. Call Close to detach.
func (n *Notifier) ConsumeFeed(fabric *core.Fabric) error {
	sources, err := fabric.FeedSources()
	if err != nil {
		return err
	}
	n.wakeups = fabric.Metrics().Counter("workflow_feed_wakeups_total")
	comb := feed.NewCombiner(sources, feed.WithCombinerMetrics(fabric.Metrics()))
	ctx, cancel := context.WithCancel(context.Background())
	comb.Start(ctx)
	n.cancel, n.comb, n.done = cancel, comb, make(chan struct{})
	go func() {
		defer close(n.done)
		for sev := range comb.Events() {
			if sev.Event.Op == feed.OpPut {
				n.Notify(sev.Event.Name)
			}
		}
	}()
	return nil
}

// Wait registers interest in the next put of name. It returns the wake
// channel (closed on notification) and a cancel function releasing the
// registration; cancel is idempotent and must be called when the waiter
// stops caring (the engine calls it after every poll round). Register BEFORE
// checking the lookup — never after — or a put landing between the check
// and the registration is lost and the waiter sleeps a full poll interval.
func (n *Notifier) Wait(name string) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		close(ch) // wake immediately: a closed notifier must not park anyone
		return ch, func() {}
	}
	n.waiters[name] = append(n.waiters[name], ch)
	n.mu.Unlock()
	return ch, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		ws := n.waiters[name]
		for i, w := range ws {
			if w == ch {
				n.waiters[name] = append(ws[:i], ws[i+1:]...)
				if len(n.waiters[name]) == 0 {
					delete(n.waiters, name)
				}
				return
			}
		}
	}
}

// Notify wakes every waiter parked on exactly name and clears them. Waking
// is per-name, not broadcast: a thousand tasks blocked on distinct inputs do
// not stampede the metadata service when one unrelated file lands.
func (n *Notifier) Notify(name string) {
	n.mu.Lock()
	ws := n.waiters[name]
	delete(n.waiters, name)
	n.mu.Unlock()
	if len(ws) > 0 && n.wakeups != nil {
		n.wakeups.Add(int64(len(ws)))
	}
	for _, ch := range ws {
		close(ch)
	}
}

// Close detaches the feed consumer (if attached) and wakes every remaining
// waiter so nothing stays parked on a dead notifier. Idempotent.
func (n *Notifier) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	all := n.waiters
	n.waiters = make(map[string][]chan struct{})
	n.mu.Unlock()
	if n.cancel != nil {
		n.cancel()
		n.comb.Close()
		<-n.done
	}
	for _, ws := range all {
		for _, ch := range ws {
			close(ch)
		}
	}
}
