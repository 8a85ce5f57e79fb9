// Package fleettest is the one in-process rig for proofs that need a
// server "process" which can die and come back: a Backend is a restartable
// tile server on one address over in-memory pipes, a Fleet is N of them
// behind a real balancer. The networked experiments and the client's crash
// tests all assert the paper's promise — skip, never stall — across kills,
// cold restarts and drains, and all of them count what every instance that
// ever ran has sent; this package is where that machinery lives once.
//
// It imports neither client nor experiments, so both can use it.
package fleettest

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dragonfly/internal/balancer"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

// Backend is one fleet member: a server process reachable through pipes
// from one constructor, killed abruptly and restarted cold on the same
// address. Every instance shares Reg, so a member's metrics read as one
// series across restarts — exactly like a supervised process coming back
// on the same port. A dialed conn reaches the server one way:
// through the instance's real accept loop (server.Serve), so the accept
// failpoint and the fresh-instance gauge publish are on every rig's path.
type Backend struct {
	Addr string
	Reg  *obs.Registry

	ctx       context.Context
	m         *video.Manifest
	pipe      func() (client, server net.Conn)
	configure func(*server.Server)

	life sync.Mutex // serializes Kill and Restart, held across their waits

	mu        sync.Mutex
	cur       *instance      // nil while the process is down
	latest    *server.Server // the last instance started, live or dead
	instances int            // instances started: restarts + 1
}

// NewBackend starts the first instance. pipe builds each connection
// (netem.Pipe over a link, whose writes the armed netem.link.write rules
// fault); configure sets up every fresh server.Server before it serves
// (its Obs is already Reg). Cancelling ctx stops whatever instance is
// running; Kill also waits for it.
func NewBackend(ctx context.Context, addr string, m *video.Manifest,
	pipe func() (client, server net.Conn), configure func(*server.Server)) *Backend {
	b := &Backend{Addr: addr, Reg: obs.NewRegistry(), ctx: ctx, m: m, pipe: pipe, configure: configure}
	b.Restart()
	return b
}

// instance is one run of the process: a server, the listener feeding its
// accept loop, and the server-side conns Kill must sever.
type instance struct {
	addr   pipeAddr
	srv    *server.Server
	accept chan net.Conn
	closed chan struct{} // listener closed: Accept and Dial fail
	once   sync.Once
	cancel context.CancelFunc
	served chan struct{} // server.Serve returned

	mu     sync.Mutex
	killed bool
	conns  []net.Conn
}

// Accept implements net.Listener and records the server half of each conn.
// A conn handed over in the instant of a kill is severed here: the process
// is gone, whichever side of the race the dial fell on.
func (in *instance) Accept() (net.Conn, error) {
	select {
	case c := <-in.accept:
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.killed {
			c.Close()
			return nil, net.ErrClosed
		}
		in.conns = append(in.conns, c)
		return c, nil
	case <-in.closed:
		return nil, net.ErrClosed
	}
}

func (in *instance) Close() error {
	in.once.Do(func() { close(in.closed) })
	return nil
}

func (in *instance) Addr() net.Addr { return in.addr }

type pipeAddr string

func (pipeAddr) Network() string  { return "pipe" }
func (a pipeAddr) String() string { return string(a) }

// Dial connects like TCP would: refused while the process is down,
// otherwise a fresh pipe accepted by the live instance.
func (b *Backend) Dial() (net.Conn, error) {
	b.mu.Lock()
	in := b.cur
	b.mu.Unlock()
	if in != nil {
		client, srv := b.pipe()
		select {
		case in.accept <- srv:
			return client, nil
		case <-in.closed:
			client.Close()
			srv.Close()
		}
	}
	return nil, fmt.Errorf("%s: connection refused", b.Addr)
}

// Kill downs the process abruptly — no goodbye, no drain: dials are
// refused from here on, every live connection is severed mid-frame, and
// the call returns once the serve loop and its handlers have exited. A
// no-op while the process is already down.
func (b *Backend) Kill() {
	b.life.Lock()
	defer b.life.Unlock()
	b.kill()
}

func (b *Backend) kill() {
	b.mu.Lock()
	in := b.cur
	b.cur = nil
	b.mu.Unlock()
	if in == nil {
		return
	}
	in.mu.Lock()
	in.killed = true
	dead := in.conns
	in.conns = nil
	in.mu.Unlock()
	for _, c := range dead {
		c.Close()
	}
	in.cancel()
	<-in.served
}

// Restart brings the process up cold on the same address (killing the
// running instance first, if any): a new server.Server with zero state,
// whose only way back to any session is the client's resume bitmap.
func (b *Backend) Restart() {
	b.life.Lock()
	defer b.life.Unlock()
	b.kill()
	s := server.New(b.m)
	s.Obs = b.Reg
	b.configure(s)
	ctx, cancel := context.WithCancel(b.ctx)
	in := &instance{addr: pipeAddr(b.Addr), srv: s, accept: make(chan net.Conn),
		closed: make(chan struct{}), cancel: cancel, served: make(chan struct{})}
	go func() {
		defer close(in.served)
		_ = s.Serve(ctx, in) // returns the cancellation Kill (or ctx) caused
	}()
	b.mu.Lock()
	b.cur, b.latest = in, s
	b.instances++
	b.mu.Unlock()
}

// Drain puts the live instance in drain mode: in-flight sessions run on,
// new handshakes get a retryable busy reject. A no-op while down.
func (b *Backend) Drain() {
	b.mu.Lock()
	in := b.cur
	b.mu.Unlock()
	if in != nil {
		in.srv.Drain()
	}
}

// Totals is the send accounting of every instance that ever ran on this
// address, dead ones included — a duplicate primary sent by a restarted
// server shows up here — and how many there were. Every instance counts
// into the shared Reg, so the latest reads the sum.
func (b *Backend) Totals() (total server.Counters, instances int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.latest.Counters(), b.instances
}

// Health-check settings of a Fleet's balancer. A dead member is marked
// unhealthy within FailThreshold × (ProbeInterval + ProbeTimeout).
const (
	ProbeInterval = 50 * time.Millisecond
	ProbeTimeout  = 250 * time.Millisecond
	FailThreshold = 2
)

// Fleet is N backends named s0…s(N-1) and a balancer serving Front. The
// balancer reaches each member only through Dial's pipes, probes included,
// and reads each member's load off its probe pong, so the rig opens no
// socket.
type Fleet struct {
	Backends []*Backend
	Balancer *balancer.Balancer
	Front    *netem.PipeListener // dial the balancer here
	LB       *obs.Registry       // the balancer's lb_* metrics

	cancel context.CancelFunc
	closed sync.Once
	served chan struct{} // Balancer.Serve returned; nil until it starts
}

// NewFleet starts n backends serving m over pipes from one constructor
// and a balancer in front of them. configure sets up every fresh server
// instance and is told which member it belongs to.
func NewFleet(n int, m *video.Manifest, pipe func() (client, server net.Conn),
	configure func(addr string, s *server.Server)) (*Fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{LB: obs.NewRegistry(), cancel: cancel}
	var cfgs []balancer.BackendConfig
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("s%d", i)
		b := NewBackend(ctx, addr, m, pipe, func(s *server.Server) { configure(addr, s) })
		f.Backends = append(f.Backends, b)
		cfgs = append(cfgs, balancer.BackendConfig{Addr: addr})
	}
	bl, err := balancer.New(balancer.Config{
		Backends:      cfgs,
		ProbeInterval: ProbeInterval,
		ProbeTimeout:  ProbeTimeout,
		FailThreshold: FailThreshold,
		DialTimeout:   ProbeTimeout,
		Obs:           f.LB,
		Dial:          f.Dial,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Balancer = bl
	f.Front = netem.NewPipeListener(netem.Link{})
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = bl.Serve(ctx, f.Front) // returns the cancellation Close caused
	}()
	return f, nil
}

// Dial reaches a backend by address, in the shape balancer.Config.Dial and
// client.MultiDialer.DialAddr take; the pipes have no dial latency, so the
// timeout is unused.
func (f *Fleet) Dial(addr string, _ time.Duration) (net.Conn, error) {
	for _, b := range f.Backends {
		if b.Addr == addr {
			return b.Dial()
		}
	}
	return nil, fmt.Errorf("%s: no such backend", addr)
}

// Totals sums Backend.Totals over the fleet.
func (f *Fleet) Totals() (total server.Counters, instances int) {
	for _, b := range f.Backends {
		t, n := b.Totals()
		total.Add(t)
		instances += n
	}
	return total, instances
}

// Close stops the balancer and every backend, and returns once their
// serve loops have. Calling it again is a no-op.
func (f *Fleet) Close() {
	f.closed.Do(func() {
		f.cancel()
		if f.served != nil {
			<-f.served
		}
		for _, b := range f.Backends {
			b.Kill()
		}
	})
}
