package experiments

import (
	"bytes"
	"testing"
)

// TestExtChaos is the gate on the `chaos` experiment: one seeded session
// over a link that flips bits and truncates a write while the server
// process is killed and restarted cold, then the admission probe.
//
//   - every frame rendered, zero rebuffering,
//   - the restart happened (two instances) and the cold instance learned
//     what the client held from resume summaries alone: zero duplicate
//     primary sends summed over both,
//   - the corruptions were detected as frame-CRC failures and no corrupt
//     tile was ever held,
//   - the probing session was busy-rejected at least once and absorbed
//     every rejection the server counted — the holder, which has the slot
//     before the prober dials, is never the one rejected.
func TestExtChaos(t *testing.T) {
	var buf bytes.Buffer
	out, err := extChaos(&buf, 7)
	if err != nil {
		t.Fatalf("chaos: %v\n%s", err, buf.String())
	}
	t.Logf("\n%s", buf.String())

	met := out.Metrics
	if want := wireChunks * 30; met.TotalFrames != want || met.Truncated {
		t.Errorf("rendered %d frames (truncated %v), want %d", met.TotalFrames, met.Truncated, want)
	}
	if met.RebufferDuration != 0 {
		t.Errorf("rebuffer = %s, want 0", met.RebufferDuration)
	}
	if out.Instances != 2 {
		t.Errorf("server instances = %d, want 2 (one cold restart)", out.Instances)
	}
	if out.ExcessPrimary != 0 {
		t.Errorf("duplicate primary sends across the restart = %d, want 0", out.ExcessPrimary)
	}
	if met.CorruptFrames == 0 {
		t.Error("no corrupt frame detected — the link faults missed the stream")
	}
	if met.CorruptTiles != 0 {
		t.Errorf("corrupt tiles = %d, want 0 (the frame CRC tears the link down first)", met.CorruptTiles)
	}
	if out.Totals.Resumes < 1 {
		t.Error("no resume handshake reached either instance")
	}
	if out.BusyRetries < 1 || out.RejectedConns != out.BusyRetries {
		t.Errorf("admission probe: server rejected %d conns, prober absorbed %d busy retries; want equal and >= 1",
			out.RejectedConns, out.BusyRetries)
	}
}
