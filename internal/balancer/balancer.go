// Package balancer implements the Dragonfly fleet front tier: a TCP
// balancer that tracks N backend tile servers, actively health-checks them
// (dial + proto.MsgPing probe with a timeout and a consecutive-failure
// threshold), routes new sessions to the least-loaded healthy member, and
// steers reconnecting clients away from dead or draining backends. It
// needs no session state of its own: the client's held-tile bitmap is the
// only durable session state, so failover is literally "route the resume
// handshake somewhere healthy" — proto.MsgResume rebuilds the new host's
// dedup state for free.
//
// The probe is the balancer's one source of truth about a member: its
// outcome sets the member's failure count (health), and its pong carries
// the load the score reads (active sessions, queued bytes, drain flag).
// When every routable backend's load data has gone stale the balancer
// falls back to round-robin rather than trusting old numbers.
package balancer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/proto"
	"dragonfly/internal/retry"
)

// Failpoints (docs/RESILIENCE.md, "Failpoint catalog"): balancer.dial
// fails a backend route dial, balancer.probe fails a health-check
// exchange, balancer.splice severs (error kinds) or stalls (delay) the
// server→client byte stream mid-splice. All are one disarmed atomic load.
var (
	siteDial   = chaos.NewSite("balancer.dial")
	siteProbe  = chaos.NewSite("balancer.probe")
	siteSplice = chaos.NewSite("balancer.splice")
)

// errSpliceStall reports a splice torn down for exhausting the
// SpliceStallBudget: the peer accepted bytes too slowly for too long and
// the splice was severed rather than left pinning balancer resources.
var errSpliceStall = errors.New("balancer: splice write-stall budget exhausted")

// Defaults for Config's zero values.
const (
	defaultProbeInterval = 500 * time.Millisecond
	defaultProbeTimeout  = time.Second
	defaultFailThreshold = 3
	defaultDialTimeout   = 2 * time.Second
)

// queueBytesPerConn converts queued backlog bytes into active-connection
// equivalents for the load score: a backend with 4 MB of committed queue
// is as loaded as one with one more session.
const queueBytesPerConn = 4 << 20

// BackendConfig names one fleet member.
type BackendConfig struct {
	// Addr is the streaming (wire protocol) address.
	Addr string
}

// Config tunes a Balancer. The zero value of every field has a sensible
// default except Backends, which is required.
type Config struct {
	Backends []BackendConfig

	// ProbeInterval is the health-check period per healthy backend;
	// ProbeTimeout bounds each probe's dial+exchange. A backend is
	// unhealthy from its FailThreshold-th consecutive failure (probe or
	// route dial) until its next good probe, so the worst-case detection
	// budget is FailThreshold×(ProbeInterval+ProbeTimeout). Past the
	// threshold the probe period doubles per further failure, up to
	// 4×ProbeInterval, and the same 4×ProbeInterval is how old load data
	// may be before the picker stops trusting it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int

	// DialTimeout bounds the backend dial when routing a session.
	DialTimeout time.Duration

	// SpliceStallBudget bounds the cumulative excess write time of each
	// splice direction — the balancer's slowloris defense, the same
	// proto.StallMeter policy as Server.WriteStallBudget. Exhaustion
	// severs the splice with errSpliceStall; the client's resume path
	// recovers the session on a healthy member. 0 disables.
	SpliceStallBudget time.Duration

	// Obs, when non-nil, receives lb_* counters and gauges. Nil disables.
	Obs *obs.Registry
	// Logf receives transition diagnostics; nil silences logging.
	Logf func(format string, args ...any)

	// Dial overrides backend dialing (tests and in-memory rigs); nil
	// dials TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// Balancer is the front tier. Create with New, then Serve.
type Balancer struct {
	cfg      Config
	backends []*backend
	rr       atomic.Uint64
	start    sync.Once

	mu      sync.Mutex
	splices map[net.Conn]struct{}
}

// backend is the tracked state of one fleet member. The probe fields are
// guarded by mu; routed is the balancer's own live splice count.
type backend struct {
	cfg    BackendConfig
	routed atomic.Int64

	mu         sync.Mutex
	failStreak int // consecutive probe and route-dial failures
	draining   bool
	active     int64     // sessions reported by the last probe pong
	queueBytes float64   // queued payload reported by the last probe pong
	loadAt     time.Time // when the load fields were last refreshed
	lastErr    error
}

// BackendStatus is a point-in-time view of one backend, for status
// endpoints and test assertions.
type BackendStatus struct {
	Addr        string
	Healthy     bool
	Draining    bool
	ActiveConns int64
	QueueBytes  int64
	Routed      int64
	LastErr     string
}

// New validates cfg and builds a balancer. Probes start on Serve.
func New(cfg Config) (*Balancer, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("balancer: at least one backend is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = defaultProbeTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = defaultFailThreshold
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	bl := &Balancer{cfg: cfg, splices: make(map[net.Conn]struct{})}
	for _, bc := range cfg.Backends {
		// Optimistic start: members begin healthy (no failures yet) but
		// with stale load data, so the first sessions round-robin while the
		// first probe round confirms liveness.
		bl.backends = append(bl.backends, &backend{cfg: bc})
	}
	bl.setHealthyGauge()
	return bl, nil
}

func (bl *Balancer) logf(format string, args ...any) {
	if bl.cfg.Logf != nil {
		bl.cfg.Logf(format, args...)
	}
}

// healthy reports whether b's failure count is below the threshold.
// Callers hold b.mu.
func (bl *Balancer) healthy(b *backend) bool { return b.failStreak < bl.cfg.FailThreshold }

func (bl *Balancer) setHealthyGauge() {
	n := 0
	for _, b := range bl.backends {
		b.mu.Lock()
		if bl.healthy(b) {
			n++
		}
		b.mu.Unlock()
	}
	bl.cfg.Obs.Gauge("lb_healthy_backends").Set(float64(n))
}

// Status reports every backend's tracked state.
func (bl *Balancer) Status() []BackendStatus {
	out := make([]BackendStatus, 0, len(bl.backends))
	for _, b := range bl.backends {
		b.mu.Lock()
		st := BackendStatus{
			Addr:        b.cfg.Addr,
			Healthy:     bl.healthy(b),
			Draining:    b.draining,
			ActiveConns: b.active,
			QueueBytes:  int64(b.queueBytes),
			Routed:      b.routed.Load(),
		}
		if b.lastErr != nil {
			st.LastErr = b.lastErr.Error()
		}
		b.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// startProbes launches the per-backend health-check loops; they stop when
// ctx is done. Serve calls this; calling it again is a no-op.
func (bl *Balancer) startProbes(ctx context.Context) {
	bl.start.Do(func() {
		for _, b := range bl.backends {
			go bl.probeLoop(ctx, b)
		}
	})
}

func (bl *Balancer) probeLoop(ctx context.Context, b *backend) {
	// First probe immediately: a balancer fronting a dead member should
	// learn so within one probe budget of starting, not one interval later.
	for ctx.Err() == nil {
		bl.probeOnce(b)
		b.mu.Lock()
		n := b.failStreak
		b.mu.Unlock()
		retry.Sleep(ctx, bl.probeWait(n))
	}
}

// probeWait is the pause before a member's next probe after failStreak
// consecutive failures: ProbeInterval while it is healthy, then doubling
// per failure past FailThreshold up to 4×ProbeInterval, so a dead member
// costs a dial every few intervals instead of every one while its first
// good probe still brings it back.
func (bl *Balancer) probeWait(failStreak int) time.Duration {
	return retry.Exp(bl.cfg.ProbeInterval, 4*bl.cfg.ProbeInterval, failStreak-bl.cfg.FailThreshold)
}

// probeOnce performs one health check: dial, MsgPing, read the reply. A
// status pong refreshes the load data; a busy rejection means the member
// is alive but unroutable (draining or saturated — admission control
// fast-rejects before reading the probe); anything else is a failure.
func (bl *Balancer) probeOnce(b *backend) {
	bl.cfg.Obs.Counter("lb_probes").Inc()
	err := bl.exchangeProbe(b)
	if err != nil {
		bl.cfg.Obs.Counter("lb_probe_fail").Inc()
	}
	bl.noteProbe(b, err)
}

func (bl *Balancer) exchangeProbe(b *backend) error {
	if err := siteProbe.Err(); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	conn, err := bl.cfg.Dial(b.cfg.Addr, bl.cfg.ProbeTimeout)
	if err != nil {
		return fmt.Errorf("probe dial: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(bl.cfg.ProbeTimeout))
	// Write concurrently with the read: a draining or saturated server
	// fast-rejects before reading a byte, so over an unbuffered transport
	// its busy error and our ping would otherwise deadlock until the
	// timeout. The deferred Close reaps the writer either way.
	go func() { _ = proto.WritePing(conn) }()
	msg, err := proto.ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("probe read: %w", err)
	}
	switch {
	case msg.Type == proto.MsgPing && msg.Ping != nil:
		b.mu.Lock()
		b.active = int64(msg.Ping.ActiveConns)
		b.queueBytes = float64(msg.Ping.QueueBytes)
		b.draining = msg.Ping.Draining
		b.loadAt = time.Now()
		b.mu.Unlock()
		return nil
	case msg.Type == proto.MsgError && proto.IsBusyText(msg.Error):
		b.mu.Lock()
		b.draining = true
		b.loadAt = time.Now()
		b.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("probe reply type %d", msg.Type)
	}
}

// noteProbe applies one health observation (active probe, or passive
// route-dial failure when err is non-nil): a success clears the member's
// failure count, a failure adds one, and the member is healthy while the
// count is below FailThreshold.
func (bl *Balancer) noteProbe(b *backend, err error) {
	b.mu.Lock()
	b.lastErr = err
	was := bl.healthy(b)
	if err == nil {
		b.failStreak = 0
	} else {
		b.failStreak++
	}
	healthy := bl.healthy(b)
	b.mu.Unlock()
	if healthy == was {
		return
	}
	bl.setHealthyGauge()
	if healthy {
		bl.cfg.Obs.Counter("lb_recovered").Inc()
		bl.logf("balancer: backend %s recovered", b.cfg.Addr)
	} else {
		bl.cfg.Obs.Counter("lb_unhealthy").Inc()
		bl.logf("balancer: backend %s marked unhealthy: %v", b.cfg.Addr, err)
	}
}

// score is the routing load figure: the larger of the backend-reported
// session count and the balancer's own live splice count (probe data can
// be one interval stale), plus the queued backlog in connection
// equivalents.
func (b *backend) score() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.active
	if r := b.routed.Load(); r > n {
		n = r
	}
	return float64(n) + b.queueBytes/queueBytesPerConn
}

func (bl *Balancer) routable(b *backend) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bl.healthy(b) && !b.draining
}

// loadFresh reports whether b's load data is recent enough to score on:
// no older than 4×ProbeInterval, several missed probes for a healthy
// member.
func (bl *Balancer) loadFresh(b *backend) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.loadAt.IsZero() && time.Since(b.loadAt) <= 4*bl.cfg.ProbeInterval
}

// pick selects the routing target: the lowest-scoring routable backend
// with fresh load data, falling back to round-robin across routable
// members when every score would be guesswork. exclude removes backends
// that already failed this routing attempt.
func (bl *Balancer) pick(exclude map[*backend]bool) *backend {
	var candidates []*backend
	for _, b := range bl.backends {
		if !exclude[b] && bl.routable(b) {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	var fresh []*backend
	for _, b := range candidates {
		if bl.loadFresh(b) {
			fresh = append(fresh, b)
		}
	}
	if len(fresh) == 0 {
		i := bl.rr.Add(1) - 1
		return candidates[i%uint64(len(candidates))]
	}
	best := fresh[0]
	bestScore := best.score()
	for _, b := range fresh[1:] {
		if s := b.score(); s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// route attaches one client connection to a backend and splices until
// either side ends. Backends whose dial fails are charged a passive
// health failure and the next candidate is tried; with no routable
// backend left the client gets the retryable busy reject, so resilient
// clients back off and redial instead of dying.
func (bl *Balancer) route(ctx context.Context, clientConn net.Conn) {
	defer clientConn.Close()
	exclude := make(map[*backend]bool)
	for {
		b := bl.pick(exclude)
		if b == nil {
			bl.cfg.Obs.Counter("lb_no_backend").Inc()
			_ = clientConn.SetWriteDeadline(time.Now().Add(bl.cfg.ProbeTimeout))
			_ = proto.WriteError(clientConn, proto.BusyText("no healthy backend"))
			return
		}
		srvConn, err := bl.dialBackend(b)
		if err != nil {
			// Passive detection: a failed route dial is as telling as a
			// failed probe, and it arrives sooner.
			bl.cfg.Obs.Counter("lb_route_dial_fail").Inc()
			bl.noteProbe(b, fmt.Errorf("route dial: %w", err))
			exclude[b] = true
			continue
		}
		bl.cfg.Obs.Counter("lb_routed").Inc()
		b.routed.Add(1)
		bl.trackSplice(clientConn, true)
		bl.splice(clientConn, srvConn)
		bl.trackSplice(clientConn, false)
		b.routed.Add(-1)
		return
	}
}

// dialBackend opens the routing connection to a member, with the
// balancer.dial failpoint in front so chaos runs can make a live member
// look dead to the router (and charge its failure count) without touching
// it.
func (bl *Balancer) dialBackend(b *backend) (net.Conn, error) {
	if err := siteDial.Err(); err != nil {
		return nil, err
	}
	return bl.cfg.Dial(b.cfg.Addr, bl.cfg.DialTimeout)
}

func (bl *Balancer) trackSplice(c net.Conn, add bool) {
	bl.mu.Lock()
	if add {
		bl.splices[c] = struct{}{}
	} else {
		delete(bl.splices, c)
	}
	bl.mu.Unlock()
}

// splice copies bytes both ways until either side ends, with an ordered
// close: the client conn is closed only after the server→client copy has
// fully returned, so every tile the backend counted as sent reaches the
// client before the link drops. The fleet-wide zero-duplicate-send
// invariant is proved over this property.
//
// With SpliceStallBudget set, both destination conns are wrapped in a
// stall meter: a peer that blocks writes beyond the budget severs the
// splice (errSpliceStall, lb_splice_stalls) instead of pinning the
// balancer goroutines and the backend's queue bytes indefinitely. The
// balancer.splice failpoint rides the server→client read side, severing
// or stalling mid-stream to exercise exactly that recovery.
func (bl *Balancer) splice(clientConn, srvConn net.Conn) {
	var cdst, sdst net.Conn = clientConn, srvConn
	if bud := bl.cfg.SpliceStallBudget; bud > 0 {
		trip := func() {
			bl.cfg.Obs.Counter("lb_splice_stalls").Inc()
			bl.logf("balancer: %v", errSpliceStall)
		}
		cdst = &stallConn{Conn: clientConn, meter: proto.NewStallMeter(bud), onTrip: trip}
		sdst = &stallConn{Conn: srvConn, meter: proto.NewStallMeter(bud), onTrip: trip}
	}
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(sdst, clientConn)
		srvConn.Close()
		close(done)
	}()
	_, _ = io.Copy(cdst, spliceSrc{srvConn})
	srvConn.Close()
	clientConn.Close()
	<-done
}

// spliceSrc fronts the backend's read side of a splice with the
// balancer.splice failpoint: error kinds sever the stream (the client
// resumes elsewhere), delay stalls it.
type spliceSrc struct{ net.Conn }

func (c spliceSrc) Read(p []byte) (int, error) {
	if err := siteSplice.Err(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// stallConn charges each write's blocking time to a proto.StallMeter; see
// Config.SpliceStallBudget. Every write runs under a deadline of the
// remaining budget plus its free allowance, so a fully hung peer cannot
// out-wait the meter.
type stallConn struct {
	net.Conn
	meter  proto.StallMeter
	onTrip func()
}

func (c *stallConn) trip() error {
	if c.onTrip != nil {
		c.onTrip()
		c.onTrip = nil
	}
	return errSpliceStall
}

func (c *stallConn) Write(p []byte) (int, error) {
	rem := c.meter.Remaining()
	if rem <= 0 {
		return 0, c.trip()
	}
	// The deadline counts from start, so a write cut off by it is charged
	// at least rem and trips the meter.
	start := time.Now()
	_ = c.Conn.SetWriteDeadline(start.Add(rem + c.meter.Allowance()))
	n, err := c.Conn.Write(p)
	c.meter.Spend(time.Since(start))
	if err != nil {
		if c.meter.Remaining() <= 0 {
			return n, fmt.Errorf("%w (after %v)", c.trip(), err)
		}
		return n, err
	}
	_ = c.Conn.SetWriteDeadline(time.Time{})
	return n, nil
}

// Serve accepts client connections and routes each to a backend until the
// listener fails or ctx is done; cancellation also severs the active
// splices so Serve's callers can tear down promptly.
func (bl *Balancer) Serve(ctx context.Context, l net.Listener) error {
	bl.startProbes(ctx)
	go func() {
		<-ctx.Done()
		l.Close()
		bl.mu.Lock()
		for c := range bl.splices {
			c.Close()
		}
		bl.mu.Unlock()
	}()
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("balancer: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			bl.route(ctx, conn)
		}()
	}
}
