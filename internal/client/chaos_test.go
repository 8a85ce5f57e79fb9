package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/chaos"

	"dragonfly/internal/core"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// chaosLink is the 20 Mbps path the chaos tests cut.
var chaosLink = netem.Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{20}}}

// linkCuts is the rule that severs the link on the (after+1)-th write the
// servers send over it and then on every every-th one, count times: the
// hit count runs on across reconnections, so each cut lands on whichever
// connection is live.
func linkCuts(after, every, count int) chaos.Rule {
	return chaos.Rule{Site: "netem.link.write", Kind: chaos.FaultError, After: after, Every: every, Count: count}
}

// chaosCuts is how many times armChaosCuts cuts the link: on the 31st, 61st
// and 91st of the ~170 writes a session's server sends, while the client
// still has most of the video left to fetch.
const chaosCuts = 3

func armChaosCuts(t *testing.T) {
	t.Helper()
	if err := chaos.Arm(linkCuts(30, 30, chaosCuts)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chaos.Disarm)
}

// faultDialer returns a DialFunc that opens a fresh shaped pipe and runs a
// server session on the far end, modelling reconnections to the same
// server over the same path; the armed netem.link.write rules cut it.
func faultDialer(srv *server.Server) DialFunc {
	return func() (net.Conn, error) {
		l := netem.NewPipeListener(chaosLink)
		return dialServe(srv, l, l.Dial)
	}
}

func checkAccounting(t *testing.T, met *player.Metrics) {
	t.Helper()
	if met.BytesUseful > met.BytesReceived {
		t.Errorf("BytesUseful %d > BytesReceived %d", met.BytesUseful, met.BytesReceived)
	}
	sum := met.MaskingShare() + met.BlankShare()
	for q := video.Quality(0); q < video.NumQualities; q++ {
		sum += met.QualityShare(q)
	}
	if met.RenderedViewportTiles() > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("render shares sum to %f", sum)
	}
}

// TestPlayResilientSurvivesChaos is the chaos integration test of ISSUE.md:
// a Dragonfly session over a shaped in-memory link that is hard-disconnected
// three times mid-stream must finish — continuous playback, full frame
// count — while the resume protocol keeps the server from ever re-sending a
// primary tile the client already holds.
func TestPlayResilientSurvivesChaos(t *testing.T) {
	m := liveManifest()
	srv := server.New(m)
	srv.Heartbeat = 100 * time.Millisecond
	armChaosCuts(t)

	met, err := PlayResilient(faultDialer(srv), "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 8,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			ReadTimeout: 400 * time.Millisecond,
			Seed:        42,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The session must have finished despite the outages.
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.RebufferDuration != 0 {
		t.Errorf("NeverStall session rebuffered %v", met.RebufferDuration)
	}
	if met.Truncated {
		t.Error("session truncated")
	}

	// Every scheduled cut must have been made, observed and recovered from.
	if n := chaos.Injections("netem.link.write"); n != chaosCuts {
		t.Errorf("link cuts made = %d, want %d", n, chaosCuts)
	}
	if met.Disconnects < chaosCuts {
		t.Errorf("Disconnects = %d, want >= %d", met.Disconnects, chaosCuts)
	}
	if met.OutageDuration <= 0 {
		t.Errorf("OutageDuration = %v, want > 0", met.OutageDuration)
	}
	if met.ResumedTiles <= 0 {
		t.Errorf("ResumedTiles = %d, want > 0", met.ResumedTiles)
	}

	// Server-side proof the resume protocol worked: the reconnections went
	// through MsgResume, the summaries restored dedup state, and no primary
	// tile was ever transmitted twice. The pipe is synchronous, so a primary
	// the server counted was fully read (and recorded) by the client and is
	// therefore present in the next resume summary.
	c := srv.Counters()
	if c.Resumes < chaosCuts {
		t.Errorf("server Resumes = %d, want >= %d", c.Resumes, chaosCuts)
	}
	if c.ResumedItems <= 0 {
		t.Errorf("server ResumedItems = %d, want > 0", c.ResumedItems)
	}
	maxPrimaries := int64(m.NumChunks * m.NumTiles())
	if c.PrimarySent > maxPrimaries {
		t.Errorf("server sent %d primaries for %d (chunk,tile) slots: held tiles were re-sent", c.PrimarySent, maxPrimaries)
	}

	checkAccounting(t, met)
}

// TestPlayResilientBeatsNoReconnect runs the same fault script with and
// without the reconnector: the resilient session must deliver strictly
// better quality than one that gives up after the first cut.
func TestPlayResilientBeatsNoReconnect(t *testing.T) {
	run := func(reconnect bool) *player.Metrics {
		m := liveManifest()
		srv := server.New(m)
		srv.Heartbeat = 100 * time.Millisecond
		armChaosCuts(t)

		dial := faultDialer(srv)
		if !reconnect {
			// The first dial succeeds; every reconnection attempt fails, so
			// the budget drains and the session plays out what it holds.
			first := true
			inner := dial
			dial = func() (net.Conn, error) {
				if !first {
					return nil, fmt.Errorf("no route")
				}
				first = false
				return inner()
			}
		}
		met, err := PlayResilient(dial, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
			Reconnect: ReconnectPolicy{
				MaxAttempts: 4,
				BaseDelay:   20 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				ReadTimeout: 400 * time.Millisecond,
				Seed:        7,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, met)
		return met
	}

	resilient := run(true)
	cutoff := run(false)

	// Both keep playing (NeverStall): masking arrives within the first few
	// hundred milliseconds, so neither goes blank — but the cut-off session
	// renders the rest of the video from low-quality masking while the
	// resilient one recovers its primaries.
	if cutoff.TotalFrames != resilient.TotalFrames {
		t.Errorf("frame counts diverge: resilient %d, cutoff %d", resilient.TotalFrames, cutoff.TotalFrames)
	}
	if cutoff.MaskingShare() <= resilient.MaskingShare() {
		t.Errorf("cutoff masking share %.3f should exceed resilient %.3f", cutoff.MaskingShare(), resilient.MaskingShare())
	}
	if cutoff.BytesReceived >= resilient.BytesReceived {
		t.Errorf("cutoff received %d bytes, resilient only %d", cutoff.BytesReceived, resilient.BytesReceived)
	}
	if cutoff.MedianScore() >= resilient.MedianScore() {
		t.Errorf("cutoff median %.2f should be below resilient %.2f", cutoff.MedianScore(), resilient.MedianScore())
	}
}

// TestPlayResilientDeadFleetBudget is the satellite test for the total
// reconnect budget: a fleet that refuses every dial (an always-refuse
// client.dial failpoint) must fail the session with the typed
// errReconnectBudget once TotalBudget elapses, no matter how many attempts
// the per-outage policy would still allow.
func TestPlayResilientDeadFleetBudget(t *testing.T) {
	if err := chaos.Arm(chaos.Rule{Site: "client.dial", Kind: chaos.FaultError}); err != nil {
		t.Fatalf("chaos.Arm: %v", err)
	}
	t.Cleanup(chaos.Disarm)

	start := time.Now()
	_, err := PlayResilient(func() (net.Conn, error) {
		t.Error("dial reached the network past an armed always-refuse failpoint")
		return nil, fmt.Errorf("unreachable")
	}, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 1 << 20, // attempts alone would retry ~forever
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			TotalBudget: 100 * time.Millisecond,
			Seed:        3,
		},
	})
	if !errors.Is(err, errReconnectBudget) {
		t.Fatalf("err = %v, want errReconnectBudget", err)
	}
	// The typed budget error is the %w chain; the last dial error rides
	// along as text only, so callers classify on the budget, not the cause.
	if !strings.Contains(err.Error(), "chaos: injected fault") {
		t.Errorf("err = %v, want the last injected dial error in the text", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("budget of 100ms took %v to fire", elapsed)
	}
	if chaos.Injections("client.dial") == 0 {
		t.Errorf("no dial faults injected")
	}
}

// TestPlayResilientMidSessionBudgetDegrades: when the fleet dies after the
// session is established (dial refuses from the second connect on), budget
// exhaustion must degrade like link death — playback finishes on held tiles
// and masking, it does not error out.
func TestPlayResilientMidSessionBudgetDegrades(t *testing.T) {
	// After: 1 lets the opening dial through; every later dial is refused.
	if err := chaos.Arm(chaos.Rule{Site: "client.dial", Kind: chaos.FaultError, After: 1},
		linkCuts(60, 0, 1)); err != nil {
		t.Fatalf("chaos.Arm: %v", err)
	}
	t.Cleanup(chaos.Disarm)

	m := liveManifest()
	srv := server.New(m)
	srv.Heartbeat = 100 * time.Millisecond

	met, err := PlayResilient(faultDialer(srv), "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 1 << 20,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			ReadTimeout: 400 * time.Millisecond,
			TotalBudget: 150 * time.Millisecond,
			Seed:        9,
		},
	})
	if err != nil {
		t.Fatalf("mid-session budget exhaustion must not fail playback: %v", err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Errorf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.Disconnects == 0 {
		t.Errorf("schedule cut the link but Disconnects = 0")
	}
	checkAccounting(t, met)
}

// TestTotalBudgetSpansOpeningAndOutages: TotalBudget is one ledger, as its
// doc says. Refused dials spend two thirds of it before the first
// handshake; the link is then cut and every later dial refused, and the
// outage must be abandoned within what is left of the budget — not after
// a fresh full budget of its own.
func TestTotalBudgetSpansOpeningAndOutages(t *testing.T) {
	const budget, refuseFor = 1500 * time.Millisecond, time.Second
	m := liveManifest()
	srv := server.New(m)
	srv.Heartbeat = 100 * time.Millisecond
	if err := chaos.Arm(linkCuts(50, 0, 1)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chaos.Disarm)

	inner := faultDialer(srv)
	start := time.Now()
	var (
		mu     sync.Mutex
		opened time.Duration // when the one dial that got through was made
	)
	dial := func() (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if elapsed := time.Since(start); opened == 0 && elapsed >= refuseFor {
			opened = elapsed
			return inner()
		}
		return nil, errors.New("connection refused")
	}
	tr := obs.NewTrace(0)
	met, err := PlayResilient(dial, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 1 << 20,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			ReadTimeout: 400 * time.Millisecond,
			TotalBudget: budget,
			Seed:        11,
		},
		Trace: tr,
	})
	if err != nil {
		t.Fatalf("the opening phase fit the budget, so playback must not fail: %v", err)
	}
	if met.Disconnects != 1 {
		t.Fatalf("Disconnects = %d, want the one scheduled cut", met.Disconnects)
	}
	if n := chaos.Injections("netem.link.write"); n != 1 {
		t.Fatalf("link cuts made = %d, want 1", n)
	}
	var outage, dead time.Duration = -1, -1
	for _, e := range tr.Events() {
		switch {
		case e.Kind == obs.EvOutage && outage < 0:
			outage = e.At
		case e.Kind == obs.EvLinkDead && dead < 0:
			dead = e.At
		}
	}
	if outage < 0 || dead < 0 {
		t.Fatalf("trace has outage at %v and link death at %v; want both", outage, dead)
	}
	mu.Lock()
	left := budget - opened
	mu.Unlock()
	if spent := dead - outage; spent > left+200*time.Millisecond {
		t.Errorf("outage abandoned after %v; the opening phase spent %v of the %v budget, leaving %v",
			spent, budget-left, budget, left)
	}
}
