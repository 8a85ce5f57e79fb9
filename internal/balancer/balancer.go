// Package balancer implements the Dragonfly fleet front tier: a TCP
// balancer that tracks N backend tile servers, actively health-checks them
// (dial + proto.MsgPing probe with timeout and consecutive-failure
// thresholds), routes new sessions to the least-loaded healthy member, and
// steers reconnecting clients away from dead or draining backends. It
// needs no session state of its own: the client's held-tile bitmap is the
// only durable session state, so failover is literally "route the resume
// handshake somewhere healthy" — proto.MsgResume rebuilds the new host's
// dedup state for free.
//
// Load scoring reads each backend's probe pong (active sessions, drain
// flag) and, when an admin address is configured, the obs /metrics
// endpoint (srv_queue_bytes). When every routable backend's load data has
// gone stale the balancer falls back to round-robin rather than trusting
// old numbers.
package balancer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/proto"
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

// ErrSpliceStall reports a splice torn down for exhausting the
// SpliceStallBudget: the peer accepted bytes too slowly for too long and
// the splice was severed rather than left pinning balancer resources.
var ErrSpliceStall = errors.New("balancer: splice write-stall budget exhausted")

// Defaults for Config's zero values.
const (
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultProbeTimeout     = time.Second
	DefaultFailThreshold    = 3
	DefaultRecoverThreshold = 1
	DefaultDialTimeout      = 2 * time.Second
)

// QueueBytesPerConn converts queued backlog bytes into active-connection
// equivalents for the load score: a backend with 4 MB of committed queue
// is as loaded as one with one more session.
const QueueBytesPerConn = 4 << 20

// BackendConfig names one fleet member.
type BackendConfig struct {
	// Addr is the streaming (wire protocol) address.
	Addr string
	// AdminAddr is the obs admin endpoint for queue-bytes scraping; empty
	// disables scraping and the score uses active connections only.
	AdminAddr string
}

// Config tunes a Balancer. The zero value of every field has a sensible
// default except Backends, which is required.
type Config struct {
	Backends []BackendConfig

	// ProbeInterval is the health-check period per backend; ProbeTimeout
	// bounds each probe's dial+exchange. A backend is marked unhealthy
	// after FailThreshold consecutive probe failures and healthy again
	// after RecoverThreshold consecutive successes, so the worst-case
	// detection budget is FailThreshold×(ProbeInterval+ProbeTimeout).
	ProbeInterval    time.Duration
	ProbeTimeout     time.Duration
	FailThreshold    int
	RecoverThreshold int

	// DialTimeout bounds the backend dial when routing a session.
	DialTimeout time.Duration
	// MetricsMaxAge is how old a backend's load data may be before the
	// picker stops trusting it (default 4×ProbeInterval).
	MetricsMaxAge time.Duration

	// BreakerThreshold is the consecutive-failure count (probe or route
	// dial) at which a backend's circuit breaker trips: probing and
	// routing to the member stop entirely for BreakerCooldown, then a
	// single half-open probe trial decides between recovery (the normal
	// RecoverThreshold path) and re-tripping. The breaker sits behind the
	// health state — the default threshold of 2×FailThreshold means a
	// member is first marked unhealthy (stops receiving sessions), and
	// only sustained failure beyond that stops the prober from burning
	// dials on it. 0 means 2×FailThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before the
	// half-open trial. 0 means 4×ProbeInterval.
	BreakerCooldown time.Duration

	// SpliceStallBudget bounds the cumulative excess write time of each
	// splice direction — the balancer's slowloris defense, the same
	// proto.StallMeter policy as Server.WriteStallBudget. Exhaustion
	// severs the splice with ErrSpliceStall; the client's resume path
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

// backend is the tracked state of one fleet member. The health fields are
// guarded by mu; routed is the balancer's own live splice count.
type backend struct {
	cfg    BackendConfig
	routed atomic.Int64

	mu         sync.Mutex
	healthy    bool
	draining   bool
	failStreak int
	okStreak   int
	active     int64 // sessions reported by the last probe pong
	queueBytes float64
	loadAt     time.Time // when active/draining were last refreshed
	lastErr    error
	// openUntil is the circuit breaker: while in the future, probes and
	// routing skip this member entirely. The first probe after expiry is
	// the half-open trial.
	openUntil time.Time
}

// breakerOpen reports whether the member's circuit is open right now.
func (b *backend) breakerOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Now().Before(b.openUntil)
}

// BackendStatus is a point-in-time view of one backend, for status
// endpoints and test assertions.
type BackendStatus struct {
	Addr        string
	Healthy     bool
	Draining    bool
	BreakerOpen bool
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
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.RecoverThreshold <= 0 {
		cfg.RecoverThreshold = DefaultRecoverThreshold
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.MetricsMaxAge <= 0 {
		cfg.MetricsMaxAge = 4 * cfg.ProbeInterval
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 2 * cfg.FailThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 4 * cfg.ProbeInterval
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	bl := &Balancer{cfg: cfg, splices: make(map[net.Conn]struct{})}
	for _, bc := range cfg.Backends {
		// Optimistic start: members begin healthy (but with stale load
		// data), so the first sessions round-robin while the first probe
		// round confirms liveness.
		bl.backends = append(bl.backends, &backend{cfg: bc, healthy: true})
	}
	bl.setHealthyGauge()
	return bl, nil
}

func (bl *Balancer) logf(format string, args ...any) {
	if bl.cfg.Logf != nil {
		bl.cfg.Logf(format, args...)
	}
}

func (bl *Balancer) setHealthyGauge() {
	n := 0
	for _, b := range bl.backends {
		b.mu.Lock()
		if b.healthy {
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
			Healthy:     b.healthy,
			Draining:    b.draining,
			BreakerOpen: time.Now().Before(b.openUntil),
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

// StartProbes launches the per-backend health-check loops; they stop when
// ctx is done. Serve calls this; calling it again is a no-op.
func (bl *Balancer) StartProbes(ctx context.Context) {
	bl.start.Do(func() {
		for _, b := range bl.backends {
			go bl.probeLoop(ctx, b)
		}
	})
}

func (bl *Balancer) probeLoop(ctx context.Context, b *backend) {
	// First probe immediately: a balancer fronting a dead member should
	// learn so within one probe budget of starting, not one interval later.
	t := time.NewTicker(bl.cfg.ProbeInterval)
	defer t.Stop()
	for {
		bl.probeOnce(b)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeOnce performs one health check: dial, MsgPing, read the reply. A
// status pong refreshes the load data; a busy rejection means the member
// is alive but unroutable (draining or saturated — admission control
// fast-rejects before reading the probe); anything else is a failure.
func (bl *Balancer) probeOnce(b *backend) {
	if b.breakerOpen() {
		// Open circuit: don't burn a dial on a member that just failed
		// BreakerThreshold times in a row. The first probe after the
		// cooldown is the half-open trial.
		bl.cfg.Obs.Counter("lb_breaker_skips").Inc()
		return
	}
	bl.cfg.Obs.Counter("lb_probes").Inc()
	err := bl.exchangeProbe(b)
	if err != nil {
		bl.cfg.Obs.Counter("lb_probe_fail").Inc()
		bl.noteProbe(b, false, err)
		return
	}
	bl.noteProbe(b, true, nil)
	if b.cfg.AdminAddr != "" {
		if snap, err := bl.fetchMetrics(b.cfg.AdminAddr); err == nil {
			b.mu.Lock()
			b.queueBytes = snap.Gauges["srv_queue_bytes"]
			b.mu.Unlock()
		}
	}
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

// fetchMetrics scrapes http://<adminAddr>/metrics.
func (bl *Balancer) fetchMetrics(adminAddr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	httpc := http.Client{Timeout: bl.cfg.ProbeTimeout}
	resp, err := httpc.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("balancer: metrics status %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// noteProbe applies one health observation (active probe or passive route
// failure) to the backend's streaks and flips its state at the configured
// thresholds.
func (bl *Balancer) noteProbe(b *backend, ok bool, err error) {
	b.mu.Lock()
	b.lastErr = err
	var flipped bool
	if ok {
		b.failStreak = 0
		b.okStreak++
		if !b.healthy && b.okStreak >= bl.cfg.RecoverThreshold {
			b.healthy = true
			flipped = true
		}
	} else {
		b.okStreak = 0
		b.failStreak++
		if b.healthy && b.failStreak >= bl.cfg.FailThreshold {
			b.healthy = false
			flipped = true
		}
		// Circuit breaker: sustained failure past the (stricter) breaker
		// threshold opens the member's circuit for the cooldown — a
		// half-open failure lands here again and re-opens it.
		if bl.cfg.BreakerThreshold > 0 && b.failStreak >= bl.cfg.BreakerThreshold {
			now := time.Now()
			if !now.Before(b.openUntil) { // was closed (or just expired): a fresh trip
				bl.cfg.Obs.Counter("lb_breaker_open").Inc()
				bl.logf("balancer: backend %s breaker open for %v after %d consecutive failures",
					b.cfg.Addr, bl.cfg.BreakerCooldown, b.failStreak)
			}
			b.openUntil = now.Add(bl.cfg.BreakerCooldown)
		}
	}
	healthy := b.healthy
	b.mu.Unlock()
	if !flipped {
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
	return float64(n) + b.queueBytes/QueueBytesPerConn
}

func (b *backend) routable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy && !b.draining && !time.Now().Before(b.openUntil)
}

func (b *backend) loadFresh(maxAge time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.loadAt.IsZero() && time.Since(b.loadAt) <= maxAge
}

// pick selects the routing target: the lowest-scoring routable backend
// with fresh load data, falling back to round-robin across routable
// members when every score would be guesswork. exclude removes backends
// that already failed this routing attempt.
func (bl *Balancer) pick(exclude map[*backend]bool) *backend {
	var candidates []*backend
	for _, b := range bl.backends {
		if !exclude[b] && b.routable() {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	var fresh []*backend
	for _, b := range candidates {
		if b.loadFresh(bl.cfg.MetricsMaxAge) {
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
			bl.noteProbe(b, false, fmt.Errorf("route dial: %w", err))
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
// look dead to the router (and charge its breaker) without touching it.
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
// splice (ErrSpliceStall, lb_splice_stalls) instead of pinning the
// balancer goroutines and the backend's queue bytes indefinitely. The
// balancer.splice failpoint rides the server→client read side, severing
// or stalling mid-stream to exercise exactly that recovery.
func (bl *Balancer) splice(clientConn, srvConn net.Conn) {
	var cdst, sdst net.Conn = clientConn, srvConn
	if bud := bl.cfg.SpliceStallBudget; bud > 0 {
		trip := func() {
			bl.cfg.Obs.Counter("lb_splice_stalls").Inc()
			bl.logf("balancer: %v", ErrSpliceStall)
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
	if f := siteSplice.Fault(); f.Active() {
		if f.Kind == chaos.FaultDelay {
			time.Sleep(f.Delay)
		} else {
			return 0, f.Err
		}
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
	return ErrSpliceStall
}

func (c *stallConn) Write(p []byte) (int, error) {
	rem := c.meter.Remaining()
	if rem <= 0 {
		return 0, c.trip()
	}
	_ = c.Conn.SetWriteDeadline(time.Now().Add(rem + c.meter.Allowance()))
	start := time.Now()
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
	bl.StartProbes(ctx)
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

// ListenAndServe listens on addr and serves until ctx is done.
func (bl *Balancer) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("balancer: listen %s: %w", addr, err)
	}
	bl.logf("balancer: listening on %s fronting %d backends", l.Addr(), len(bl.backends))
	err = bl.Serve(ctx, l)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
