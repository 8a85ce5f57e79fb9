package balancer

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/leaktest"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/proto"
)

// Chaos tests arm the process-global failpoint registry; none may run in
// t.Parallel. Each disarms on cleanup.

func armBalancer(t *testing.T, rules ...chaos.Rule) {
	t.Helper()
	if err := chaos.Arm(rules...); err != nil {
		t.Fatalf("chaos.Arm: %v", err)
	}
	t.Cleanup(chaos.Disarm)
}

// TestFailureCountBacksOffAndRecovers drives a member's health arc with
// injected probe faults against a perfectly healthy server. The probe wait
// is a pure function of the failure count: ProbeInterval below
// FailThreshold, then doubling to the 4×ProbeInterval cap. The member is
// unroutable from the threshold on, stays so while failures continue, and
// is routable again after the first good probe.
func TestFailureCountBacksOffAndRecovers(t *testing.T) {
	f := newFleet("a")
	reg := obs.NewRegistry()
	const interval = 10 * time.Millisecond
	bl, err := New(Config{
		Backends:      backendConfigs("a"),
		FailThreshold: 2,
		ProbeInterval: interval,
		Obs:           reg,
		Dial:          f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range []time.Duration{interval, interval, interval, 2 * interval, 4 * interval, 4 * interval, 4 * interval} {
		if got := bl.probeWait(n); got != want {
			t.Errorf("probeWait(%d) = %v, want %v", n, got, want)
		}
	}

	// Probes are driven by hand so every transition is deterministic.
	b := bl.backends[0]
	armBalancer(t, chaos.Rule{Site: "balancer.probe", Kind: chaos.FaultError, Count: 4})
	for i := 1; i <= 4; i++ {
		bl.probeOnce(b)
		healthy := i < 2
		if st := bl.Status()[0]; st.Healthy != healthy || bl.routable(b) != healthy {
			t.Fatalf("after %d failures: status %+v, routable %v; want healthy and routable = %v",
				i, st, bl.routable(b), healthy)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["lb_probe_fail"] != 4 || snap.Counters["lb_unhealthy"] != 1 {
		t.Errorf("lb_probe_fail = %d, lb_unhealthy = %d; want 4 and 1",
			snap.Counters["lb_probe_fail"], snap.Counters["lb_unhealthy"])
	}

	// The failpoint budget is spent: the next probe reaches the server.
	bl.probeOnce(b)
	if st := bl.Status()[0]; !st.Healthy || !bl.routable(b) {
		t.Fatalf("first good probe did not recover the member: %+v", st)
	}
	if got := reg.Snapshot().Counters["lb_recovered"]; got != 1 {
		t.Errorf("lb_recovered = %d, want 1", got)
	}
}

// TestRouteDialFaultFailsOver: an injected route-dial fault on the first
// pick charges that member's health passively and the session lands on the
// next candidate — the client never notices.
func TestRouteDialFaultFailsOver(t *testing.T) {
	armBalancer(t, chaos.Rule{Site: "balancer.dial", Kind: chaos.FaultError, Count: 1})
	f := newFleet("a", "b")
	reg := obs.NewRegistry()
	bl, err := New(Config{
		Backends:      backendConfigs("a", "b"),
		ProbeInterval: time.Hour, // passive detection only
		Obs:           reg,
		Dial:          f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := netemListener(t, bl)

	c, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
	msg, err := proto.ReadMessage(c)
	if err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("session through faulted dial: %v / %+v", err, msg)
	}
	c.Close()
	snap := reg.Snapshot()
	if got := snap.Counters["lb_route_dial_fail"]; got != 1 {
		t.Errorf("lb_route_dial_fail = %d, want 1", got)
	}
	if got := snap.Counters["lb_routed"]; got != 1 {
		t.Errorf("lb_routed = %d, want 1", got)
	}
}

// TestSpliceFaultSeversStream: an injected balancer.splice fault mid-splice
// tears the session down; the client sees a dead link (its resume path is
// the recovery), and the splice goroutines unwind.
func TestSpliceFaultSeversStream(t *testing.T) {
	armBalancer(t, chaos.Rule{Site: "balancer.splice", Kind: chaos.FaultError, After: 1})
	f := newFleet("a")
	bl, err := New(Config{
		Backends:      backendConfigs("a"),
		ProbeInterval: time.Hour,
		Dial:          f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := netemListener(t, bl)

	c, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
	// After: 1 lets the first server→client read (the manifest) through;
	// the next read is severed.
	if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("manifest through splice: %v / %+v", err, msg)
	}
	if _, err := proto.ReadMessage(c); err == nil {
		t.Fatal("severed splice still delivered bytes")
	}
	if chaos.Injections("balancer.splice") == 0 {
		t.Error("no splice faults injected")
	}
}

// TestSpliceStallBudgetSevers is the balancer slowloris defense: a client
// that stops accepting bytes mid-splice exhausts SpliceStallBudget and the
// splice is severed (counted) instead of pinning balancer goroutines and
// backend queue bytes indefinitely.
func TestSpliceStallBudgetSevers(t *testing.T) {
	reg := obs.NewRegistry()
	bl, err := New(Config{
		Backends:          backendConfigs("a"),
		SpliceStallBudget: 20 * time.Millisecond,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	clientConn, clientFar := net.Pipe()
	srvConn, srvFar := net.Pipe()
	// The "backend" floods data; the "client" (clientFar) never reads.
	go func() {
		buf := make([]byte, 32*1024)
		for {
			if _, err := srvFar.Write(buf); err != nil {
				return
			}
		}
	}()
	defer clientFar.Close()
	defer srvFar.Close()

	done := make(chan struct{})
	go func() {
		bl.splice(clientConn, srvConn)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled splice never severed")
	}
	if got := reg.Snapshot().Counters["lb_splice_stalls"]; got != 1 {
		t.Errorf("lb_splice_stalls = %d, want 1", got)
	}
}

// slowDeadlineConn is a peer that accepts no byte, behind a
// SetWriteDeadline that takes 5 ms to return, as on a loaded scheduler:
// each write blocks until its deadline and fails.
type slowDeadlineConn struct {
	net.Conn
	deadline time.Time
}

func (c *slowDeadlineConn) SetWriteDeadline(t time.Time) error {
	c.deadline = t
	time.Sleep(5 * time.Millisecond)
	return nil
}

func (c *slowDeadlineConn) Write([]byte) (int, error) {
	time.Sleep(time.Until(c.deadline))
	return 0, os.ErrDeadlineExceeded
}

// TestStallConnTripsAtDeadline: a write cut off by its deadline is charged
// the whole remaining budget, however long setting the deadline took, so
// the stall trips the meter once instead of ending the splice uncounted.
func TestStallConnTripsAtDeadline(t *testing.T) {
	trips := 0
	c := &stallConn{Conn: &slowDeadlineConn{}, meter: proto.NewStallMeter(20 * time.Millisecond), onTrip: func() { trips++ }}
	if _, err := c.Write([]byte{1}); !errors.Is(err, errSpliceStall) || trips != 1 {
		t.Fatalf("write to a peer that accepts nothing: err %v, %d trips; want errSpliceStall and 1", err, trips)
	}
}

// TestBalancerTeardownNoLeak is the satellite-4 assertion for this tier:
// probes, routes, and splices started under injected dial/probe faults all
// unwind on context cancellation.
func TestBalancerTeardownNoLeak(t *testing.T) {
	defer leaktest.Check(t)()
	armBalancer(t,
		chaos.Rule{Site: "balancer.dial", Kind: chaos.FaultError, Every: 2},
		chaos.Rule{Site: "balancer.probe", Kind: chaos.FaultError, Every: 2},
	)
	f := newFleet("a", "b")
	bl, err := New(Config{
		Backends:      backendConfigs("a", "b"),
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		FailThreshold: 2,
		Dial:          f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := netem.NewPipeListener(netem.Link{})
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- bl.Serve(ctx, lis) }()

	for i := 0; i < 4; i++ {
		c, err := lis.Dial()
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
		// Read whatever comes (manifest or busy) and hang up.
		_, _ = proto.ReadMessage(c)
		c.Close()
	}
	time.Sleep(30 * time.Millisecond) // let probes hit the armed faults
	cancel()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if chaos.Injections("balancer.probe") == 0 {
		t.Error("no probe faults injected during the run")
	}
}

// netemListener serves bl on a fresh in-memory listener torn down with the
// test.
func netemListener(t *testing.T, bl *Balancer) *netem.PipeListener {
	t.Helper()
	lis := netem.NewPipeListener(netem.Link{})
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- bl.Serve(ctx, lis) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-serveDone:
		case <-time.After(5 * time.Second):
			t.Error("balancer Serve did not stop")
		}
	})
	return lis
}
