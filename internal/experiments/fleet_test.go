package experiments

import (
	"bytes"
	"testing"
)

// TestFleetChaos is the fleet-wide chaos proof from the issue: a balancer
// fronting three servers, eight concurrent clients, one server killed and
// cold-restarted, a second drained, a third killed once the restart is
// back — all mid-stream, under a fixed seed. The invariants are safety
// properties, so they hold under any goroutine schedule:
//
//   - every session completes every frame,
//   - zero duplicate primary sends summed across the whole fleet,
//   - zero corrupt tiles rendered,
//   - zero rebuffering outside the fault windows (NeverStall makes that
//     zero rebuffering, full stop),
//   - the dead member is marked unhealthy within the probe budget.
func TestFleetChaos(t *testing.T) {
	var buf bytes.Buffer
	out, err := extFleetChaos(&buf, 7)
	if err != nil {
		t.Fatalf("fleet-chaos: %v\n%s", err, buf.String())
	}
	t.Logf("\n%s", buf.String())

	if out.Completed != out.Clients {
		t.Errorf("completed sessions = %d, want %d", out.Completed, out.Clients)
	}
	if out.ExcessPrimary != 0 {
		t.Errorf("fleet-wide duplicate primary sends = %d, want 0", out.ExcessPrimary)
	}
	if out.CorruptTiles != 0 {
		t.Errorf("corrupt tiles rendered = %d, want 0", out.CorruptTiles)
	}
	if out.RebufferTotal != 0 {
		t.Errorf("rebuffer total = %s, want 0", out.RebufferTotal)
	}
	// The faults must have actually bitten: sessions were severed and came
	// back through the resume path.
	if out.Disconnects == 0 {
		t.Error("no client survived a disconnect — kills missed the streams")
	}
	if out.Totals.Resumes == 0 {
		t.Error("no resume handshake reached any server")
	}
	if out.Instances <= out.Servers {
		t.Errorf("instances = %d, want restarts beyond the initial %d", out.Instances, out.Servers)
	}
	if out.Routed == 0 {
		t.Error("balancer spliced no sessions")
	}
	if out.UnhealthyAfter <= 0 {
		t.Error("balancer never marked the killed backend unhealthy")
	} else if out.UnhealthyAfter > out.ProbeBudget {
		t.Errorf("unhealthy detection took %s, budget %s", out.UnhealthyAfter, out.ProbeBudget)
	}
	if !out.Recovered {
		t.Error("restarted members not routable again by end of run")
	}
	if out.Totals.Probes == 0 {
		t.Error("servers answered no status probes")
	}
}
