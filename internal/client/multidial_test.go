package client

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/netem"
	"dragonfly/internal/trace"
)

// TestPlayResilientRetriesInitialDial is the regression test for the
// initial-connect bug: a connection-refused on the first dial must run
// through the same backoff-and-redial loop that absorbs busy rejects, not
// kill the session before it starts.
func TestPlayResilientRetriesInitialDial(t *testing.T) {
	m := liveManifest()
	calls := 0
	dial := func() (net.Conn, error) {
		calls++
		if calls <= 2 {
			return nil, errors.New("dial tcp 127.0.0.1:9: connect: connection refused")
		}
		link := netem.Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{20}}}
		return servePipe(t, m, link), nil
	}
	met, err := PlayResilient(dial, "live", liveHead(3*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 3},
	})
	if err != nil {
		t.Fatalf("session died on refused initial dials: %v", err)
	}
	if calls != 3 {
		t.Errorf("dial calls = %d, want 3 (two refusals, one success)", calls)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Errorf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	checkAccounting(t, met)
}

// Without a reconnect budget the historical behavior stands: the first
// dial failure is fatal.
func TestPlayResilientInitialDialFatalWithoutBudget(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	_, err := PlayResilient(dial, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{})
	if err == nil {
		t.Fatal("zero-budget initial dial failure did not error")
	}
}

func TestMultiDialerRotates(t *testing.T) {
	var got []string
	d := &MultiDialer{
		Addrs: []string{"a", "b", "c"},
		DialAddr: func(addr string, _ time.Duration) (net.Conn, error) {
			got = append(got, addr)
			c, s := net.Pipe()
			s.Close()
			return c, nil
		},
	}
	for i := 0; i < 4; i++ {
		c, err := d.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	want := []string{"a", "b", "c", "a"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("dial order = %v, want %v", got, want)
		}
	}
}

func TestMultiDialerBacksOffFailedAddress(t *testing.T) {
	dials := map[string]int{}
	d := &MultiDialer{
		Addrs:   []string{"dead", "live"},
		Backoff: time.Minute, // dead stays penalized for the whole test
		DialAddr: func(addr string, _ time.Duration) (net.Conn, error) {
			dials[addr]++
			if addr == "dead" {
				return nil, errors.New("connection refused")
			}
			c, s := net.Pipe()
			s.Close()
			return c, nil
		},
	}
	for i := 0; i < 4; i++ {
		c, err := d.Dial()
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c.Close()
	}
	if dials["dead"] != 1 {
		t.Errorf("dead address dialed %d times, want 1 (backed off after the failure)", dials["dead"])
	}
	if dials["live"] != 4 {
		t.Errorf("live address dialed %d times, want 4", dials["live"])
	}
}

// Backed-off addresses are still tried as a last resort: with every member
// penalized, Dial attempts them all rather than failing without a dial.
func TestMultiDialerRetriesBackedOffAsLastResort(t *testing.T) {
	attempts := 0
	d := &MultiDialer{
		Addrs:   []string{"x", "y"},
		Backoff: time.Minute,
		DialAddr: func(string, time.Duration) (net.Conn, error) {
			attempts++
			return nil, errors.New("refused")
		},
	}
	if _, err := d.Dial(); err == nil {
		t.Fatal("all-failing dial reported success")
	}
	if _, err := d.Dial(); err == nil {
		t.Fatal("all-failing dial reported success")
	}
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4 (both addresses tried on both dials)", attempts)
	}
}

func TestMultiDialerNoAddrs(t *testing.T) {
	if _, err := (&MultiDialer{}).Dial(); err == nil {
		t.Fatal("empty address list did not error")
	}
}

// TestBackoffDelaysPinned pins the reconnect delay and the per-address
// dial penalty for attempts 0–8 to the values the hand-written doubling
// loops produced before both moved onto retry.Exp (recorded at PR 19's
// commit with the same RNG seed): a change to the shared arithmetic that
// moves any client's schedule fails here, per call site. Any reconnect
// delay stays within [d, 1.5d] of its unjittered doubling d, and every
// dial penalty is capped at 2 s.
func TestBackoffDelaysPinned(t *testing.T) {
	const ms = int64(time.Millisecond)
	for _, c := range []struct {
		name string
		p    ReconnectPolicy
		want [9]int64
	}{
		{"defaults (50 ms → 2 s, jitter 0.5)", ReconnectPolicy{},
			[9]int64{59325709, 103300024, 260409385, 441763740, 817527383, 1906554639, 2812877135, 2384445849, 2383044653}},
		{"20 ms → 200 ms", ReconnectPolicy{BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
			[9]int64{23730283, 41320009, 104163754, 176705496, 204381845, 238319329, 281287713, 238444584, 238304465}},
	} {
		rng := rand.New(rand.NewSource(42))
		for attempt, want := range c.want {
			if got := c.p.delay(attempt, rng); int64(got) != want {
				t.Errorf("ReconnectPolicy %s: delay(%d) = %d ns, want %d", c.name, attempt, got, want)
			}
		}
	}
	p := ReconnectPolicy{BaseDelay: 30 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 9; attempt++ {
		d := min(30*time.Millisecond<<attempt, 100*time.Millisecond)
		for k := 0; k < 50; k++ {
			if got := p.delay(attempt, rng); got < d || got > d+d/2 {
				t.Fatalf("ReconnectPolicy 30 ms → 100 ms: delay(%d) = %v, want in [%v, %v]", attempt, got, d, d+d/2)
			}
		}
	}
	for _, c := range []struct {
		name string
		d    *MultiDialer
		want [9]int64
	}{
		{"defaults (100 ms → 2 s)", &MultiDialer{},
			[9]int64{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms, 2000 * ms, 2000 * ms}},
		{"20 ms → 2 s", &MultiDialer{Backoff: 20 * time.Millisecond},
			[9]int64{20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 640 * ms, 1280 * ms, 2000 * ms, 2000 * ms}},
	} {
		for fails, want := range c.want {
			if got := c.d.penalty(fails); int64(got) != want {
				t.Errorf("MultiDialer %s: penalty(%d) = %v, want %v", c.name, fails, got, time.Duration(want))
			}
		}
	}
}
