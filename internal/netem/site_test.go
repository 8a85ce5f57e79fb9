package netem

import (
	"errors"
	"io"
	"math/bits"
	"net"
	"testing"
	"time"

	"dragonfly/internal/chaos"
)

// linkRun is what one run over a fresh unshaped Pipe saw: every byte the
// reader received, and what each Write returned and how long it took.
type linkRun struct {
	got  []byte
	ns   []int
	errs []error
	took []time.Duration
}

// runLink makes three all-zero 8-byte writes through a fresh Pipe, after
// arming rule at the netem.link.write site when arm is set.
func runLink(t *testing.T, rule chaos.Rule, arm bool) linkRun {
	t.Helper()
	rule.Site = "netem.link.write"
	if arm {
		if err := chaos.Arm(rule); err != nil {
			t.Fatal(err)
		}
	}
	client, server := pipe(Link{})
	defer client.Close()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(client)
		got <- b
	}()
	var r linkRun
	for i := 0; i < 3; i++ {
		start := time.Now()
		n, err := server.Write(make([]byte, 8))
		r.took = append(r.took, time.Since(start))
		r.ns = append(r.ns, n)
		r.errs = append(r.errs, err)
	}
	server.Close()
	r.got = <-got
	return r
}

// flipped returns the bit offsets set in b (all writes are zeros).
func flipped(b []byte) []int {
	var at []int
	for i, v := range b {
		for ; v != 0; v &= v - 1 {
			at = append(at, 8*i+bits.TrailingZeros8(v))
		}
	}
	return at
}

// TestLinkSite holds each fault kind of the netem.link.write site to what
// a link does with it: error severs, delay stalls, corrupt flips one bit
// (the same one every run) and partial silently drops the tail.
func TestLinkSite(t *testing.T) {
	t.Cleanup(chaos.Disarm)
	for _, tc := range []struct {
		name  string
		rule  chaos.Rule
		check func(t *testing.T, run func(arm bool) linkRun)
	}{
		{"sever", chaos.Rule{Kind: chaos.FaultError, After: 1, Count: 1}, func(t *testing.T, run func(arm bool) linkRun) {
			r := run(true)
			if r.errs[0] != nil || !errors.Is(r.errs[1], chaos.ErrInjected) || r.errs[2] == nil {
				t.Fatalf("write errors %v, want nil, injected, then closed", r.errs)
			}
			if len(r.got) != 8 {
				t.Fatalf("reader got %d bytes, want the 8 before the cut", len(r.got))
			}
			// The rule has fired its one cut: the next pipe works.
			if r := run(false); len(r.got) != 3*8 || r.errs[2] != nil {
				t.Fatalf("pipe after the cut: got %d bytes, errors %v", len(r.got), r.errs)
			}
		}},
		{"delay", chaos.Rule{Kind: chaos.FaultDelay, Delay: 150 * time.Millisecond, Count: 1}, func(t *testing.T, run func(arm bool) linkRun) {
			r := run(true)
			if r.took[0] < 150*time.Millisecond {
				t.Errorf("stalled write returned after %v, want >= 150ms", r.took[0])
			}
			if r.errs[0] != nil || len(r.got) != 3*8 {
				t.Errorf("stalled writes delivered %d bytes (errors %v), want all 24", len(r.got), r.errs)
			}
		}},
		{"corrupt", chaos.Rule{Kind: chaos.FaultCorrupt, After: 2, Count: 1}, func(t *testing.T, run func(arm bool) linkRun) {
			first := flipped(run(true).got)
			if len(first) != 1 || first[0]/64 != 2 {
				t.Fatalf("flipped bits %v, want exactly one, in the third write (bits 128..191)", first)
			}
			if again := flipped(run(true).got); len(again) != 1 || again[0] != first[0] {
				t.Errorf("second run flipped bits %v, first flipped %v", again, first)
			}
		}},
		{"partial", chaos.Rule{Kind: chaos.FaultPartial, Frac: 0.25, Count: 1}, func(t *testing.T, run func(arm bool) linkRun) {
			r := run(true)
			if r.ns[0] != 8 || r.errs[0] != nil {
				t.Errorf("torn write reported (%d, %v), want (8, nil)", r.ns[0], r.errs[0])
			}
			if len(r.got) != 2+2*8 {
				t.Errorf("reader got %d bytes, want 2 of the torn write and 16 after", len(r.got))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, func(arm bool) linkRun { return runLink(t, tc.rule, arm) })
		})
	}
}

// discardConn accepts every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestDisarmedLinkWriteZeroAlloc: with the site disarmed, an unshaped
// Write is the inner Write and nothing more.
func TestDisarmedLinkWriteZeroAlloc(t *testing.T) {
	chaos.Disarm()
	c := newConn(discardConn{}, Link{})
	p := make([]byte, 64)
	if a := testing.AllocsPerRun(1000, func() { _, _ = c.Write(p) }); a != 0 {
		t.Errorf("disarmed unshaped Write allocated %.1f times, want 0", a)
	}
}
