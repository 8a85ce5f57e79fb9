package experiments

import (
	"bytes"
	"testing"
)

// TestQoEFeedback is the closed-loop acceptance proof: traced sessions on
// a fast and a starved link stream into a live ingest service, the rollup
// quantiles must match the exact pooled per-session statistics within the
// documented envelope, and two identical servers driven by that rollup
// must shed measurably harder for the over-budget cohort than for the
// under-budget one under otherwise identical workloads.
func TestQoEFeedback(t *testing.T) {
	var buf bytes.Buffer
	out, err := extQoEFeedback(&buf, 7)
	if err != nil {
		t.Fatalf("qoe-feedback: %v\n%s", err, buf.String())
	}
	t.Logf("\n%s", buf.String())

	// Phase A: the rollup reproduced exact statistics within the envelope
	// (extQoEFeedback already errors otherwise; pin the envelope itself).
	if out.EnvelopeDB <= 0 || out.EnvelopeDB > 0.25+1e-9 {
		t.Errorf("quality envelope = %.3f dB, want (0, 0.25]", out.EnvelopeDB)
	}
	if out.QualitySamples == 0 {
		t.Error("no quality samples folded")
	}

	// Phase B: the loop steered the cohorts apart.
	if !(out.OverScale < 1) {
		t.Errorf("over-budget scale = %.3f, want < 1 (shed harder)", out.OverScale)
	}
	if !(out.UnderScale > 1) {
		t.Errorf("under-budget scale = %.3f, want > 1 (relax)", out.UnderScale)
	}
	if out.OverScaledInstalls == 0 || out.UnderScaledInstalls == 0 {
		t.Errorf("scaled installs = %d/%d, want both > 0 (feedback never reached the install path)",
			out.OverScaledInstalls, out.UnderScaledInstalls)
	}
	if out.OverShed <= out.UnderShed {
		t.Errorf("shed bytes: over-budget %d <= under-budget %d, want strictly more shedding for the over-budget cohort",
			out.OverShed, out.UnderShed)
	}

	// The server-view traces round-tripped through the watch path.
	if out.ServerTraceSessions == 0 {
		t.Error("no server-view traces folded back through the watcher")
	}
	if out.ServerTraceShedFolded == 0 {
		t.Error("server traces carried no shed events for the over-budget cohort")
	}
}
