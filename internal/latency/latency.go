// Package latency injects wide-area network latency into in-process
// multi-site experiments.
//
// The paper's evaluation runs on four real Azure datacenters connected by
// WANs; this repository reproduces the experiments on a single machine by
// sleeping for the time a message would have spent on the wire. A global
// Scale factor shrinks every injected delay by the same ratio so that an
// experiment representing tens of minutes of datacenter time completes in
// seconds while preserving the local / same-region / geo-distant hierarchy
// that drives every result. Measured wall-clock durations are converted back
// to "simulated" time with Model.ToSimulated.
package latency

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"geomds/internal/cloud"
)

// spinThreshold is the longest delay waited by spinning instead of by
// time.Sleep. Timer granularity on common kernels makes very short sleeps
// overshoot by hundreds of microseconds, which would systematically inflate
// scaled intra-datacenter latencies (and with them every "local is cheap"
// result); spinning keeps those short waits accurate at negligible CPU cost
// because they are, by construction, short.
const spinThreshold = 300 * time.Microsecond

// PreciseSleepContext waits for d with sub-millisecond fidelity: short waits
// spin (yielding the processor between polls), longer waits sleep for the
// bulk of the duration and spin the remainder. It returns early — with the
// context's error — when ctx is cancelled or its deadline passes. The bulk of
// a long wait blocks on a timer racing ctx.Done(), so a cancelled caller
// (a client that gave up, a closing service) is unblocked immediately instead
// of serving out a modelled WAN delay it no longer cares about.
func PreciseSleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	start := time.Now()
	if d > spinThreshold {
		timer := time.NewTimer(d - spinThreshold)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
	for time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return ctx.Err()
}

// Model converts message exchanges between sites into injected delays.
// A Model is safe for concurrent use.
type Model struct {
	topo *cloud.Topology

	// scale multiplies every injected delay; 1.0 injects real WAN latencies,
	// 0.01 makes the experiment run 100x faster while preserving ratios.
	scale float64

	// sleep, when non-nil, replaces the default context-aware precise sleep;
	// tests use it to capture requested delays without waiting. A custom
	// sleeper is not interruptible — the model checks the context before and
	// after invoking it instead.
	sleep func(time.Duration)

	mu  sync.Mutex
	rng *rand.Rand

	// accounting of injected (unscaled) delay, per distance class.
	injected [3]time.Duration
	messages [3]int64
}

// Option configures a Model.
type Option func(*Model)

// WithScale sets the time-compression factor applied to every injected
// delay. scale must be positive; 1.0 means real time.
func WithScale(scale float64) Option {
	return func(m *Model) {
		if scale > 0 {
			m.scale = scale
		}
	}
}

// WithSeed seeds the jitter generator, making delay sequences reproducible.
func WithSeed(seed int64) Option {
	return func(m *Model) { m.rng = rand.New(rand.NewSource(seed)) }
}

// WithSleeper replaces the sleeping function; tests use it to capture the
// requested delays without actually waiting.
func WithSleeper(sleep func(time.Duration)) Option {
	return func(m *Model) { m.sleep = sleep }
}

// New returns a latency model over the given topology. The default scale is
// 1.0 (real time) and the default jitter seed is 1.
func New(topo *cloud.Topology, opts ...Option) *Model {
	m := &Model{
		topo:  topo,
		scale: 1.0,
		rng:   rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Scale returns the configured time-compression factor.
func (m *Model) Scale() float64 { return m.scale }

// Topology returns the topology the model injects latencies for.
func (m *Model) Topology() *cloud.Topology { return m.topo }

// OneWay computes the unscaled one-way delay for a message of size bytes
// travelling from site a to site b, including jitter and the bandwidth term.
func (m *Model) OneWay(a, b cloud.SiteID, bytes int) time.Duration {
	link := m.topo.Link(a, b)
	d := link.RTT / 2
	d += m.jitter(link.Jitter)
	d += transferTime(link, bytes)
	if d < 0 {
		d = 0
	}
	return d
}

// RoundTrip computes the unscaled request/response delay for a message of
// reqBytes with a reply of respBytes between sites a and b.
func (m *Model) RoundTrip(a, b cloud.SiteID, reqBytes, respBytes int) time.Duration {
	link := m.topo.Link(a, b)
	d := link.RTT
	d += m.jitter(link.Jitter)
	d += transferTime(link, reqBytes) + transferTime(link, respBytes)
	if d < 0 {
		d = 0
	}
	return d
}

// InjectOneWay sleeps for the scaled one-way delay of a message from a to b
// and returns the unscaled delay that was modelled. A cancelled context cuts
// the wait short and is reported as the returned error; the delay is still
// accounted in full (the message was sent — the caller just stopped waiting).
func (m *Model) InjectOneWay(ctx context.Context, a, b cloud.SiteID, bytes int) (time.Duration, error) {
	d := m.OneWay(a, b, bytes)
	m.account(a, b, d)
	return d, m.wait(ctx, m.scaled(d))
}

// InjectRoundTrip sleeps for the scaled round-trip delay of a request from a
// to b and back, returning the unscaled modelled delay. A cancelled context
// cuts the wait short (see InjectOneWay).
func (m *Model) InjectRoundTrip(ctx context.Context, a, b cloud.SiteID, reqBytes, respBytes int) (time.Duration, error) {
	d := m.RoundTrip(a, b, reqBytes, respBytes)
	m.account(a, b, d)
	return d, m.wait(ctx, m.scaled(d))
}

// InjectDuration sleeps for an arbitrary unscaled duration (e.g. a task's
// compute time), applying the model's scale factor. A cancelled context cuts
// the wait short and is reported as the returned error.
func (m *Model) InjectDuration(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	return m.wait(ctx, m.scaled(d))
}

// Sleeper returns a plain, context-free sleep function applying the model's
// scale factor; components that cannot thread a context (e.g. the simulated
// cache tier's service times) use it.
func (m *Model) Sleeper() func(time.Duration) {
	return func(d time.Duration) { m.InjectDuration(context.Background(), d) } //nolint:errcheck
}

// wait blocks for the (already scaled) duration d, honouring cancellation.
func (m *Model) wait(ctx context.Context, d time.Duration) error {
	if m.sleep != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.sleep(d)
		return ctx.Err()
	}
	return PreciseSleepContext(ctx, d)
}

// ToSimulated converts a measured wall-clock duration back into simulated
// (paper-scale) time by dividing out the scale factor.
func (m *Model) ToSimulated(wall time.Duration) time.Duration {
	return time.Duration(float64(wall) / m.scale)
}

// ToWall converts a simulated duration into the wall-clock time it will take
// under the configured scale.
func (m *Model) ToWall(sim time.Duration) time.Duration {
	return time.Duration(float64(sim) * m.scale)
}

// Stats reports, per distance class, the number of messages injected and the
// total unscaled delay modelled for them.
func (m *Model) Stats() map[cloud.Distance]LinkStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[cloud.Distance]LinkStats, 3)
	for d := cloud.Local; d <= cloud.GeoDistant; d++ {
		out[d] = LinkStats{Messages: m.messages[d], Injected: m.injected[d]}
	}
	return out
}

// LinkStats aggregates injection accounting for one distance class.
type LinkStats struct {
	// Messages is the number of message exchanges injected.
	Messages int64
	// Injected is the total unscaled delay modelled for those messages.
	Injected time.Duration
}

func (m *Model) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * m.scale)
}

func (m *Model) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Uniform in [-max/2, +max/2] so that the mean delay stays at RTT.
	return time.Duration(m.rng.Int63n(int64(max))) - max/2
}

func (m *Model) account(a, b cloud.SiteID, d time.Duration) {
	class := m.topo.DistanceClass(a, b)
	m.mu.Lock()
	m.messages[class]++
	m.injected[class] += d
	m.mu.Unlock()
}

// transferTime converts a message size into time on the wire given the
// link's sustained bandwidth. Zero-bandwidth links add no transfer time
// (latency-only model).
func transferTime(link cloud.Link, bytes int) time.Duration {
	if link.BandwidthMBps <= 0 || bytes <= 0 {
		return 0
	}
	seconds := float64(bytes) / (link.BandwidthMBps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}
