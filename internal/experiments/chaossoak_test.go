package experiments

import (
	"bytes"
	"testing"
)

// TestChaosSoak is the all-tier failpoint soak from the issue: every
// registered failpoint site armed from one seeded schedule over a
// balancer-fronted fleet with a live ingest tier, plus one abrupt server
// kill and cold restart. The assertions are the safety contract the
// hardening exists to keep:
//
//   - every session completes every frame with zero rebuffering,
//   - any primary send beyond one per slot is explained by a detected
//     (and dropped — never held) corrupt tile,
//   - all telemetry pushes deliver through the retry budget (zero drops),
//   - watcher and poller absorb their injected faults and keep folding,
//   - the snapshot tier quarantines the corrupt rollup planted by the
//     faulted writer and ends with a healthy, parseable one on disk.
//
// Must not run in t.Parallel: the failpoint registry is process-global.
func TestChaosSoak(t *testing.T) {
	var buf bytes.Buffer
	out, err := extChaosSoak(&buf, 11)
	if err != nil {
		t.Fatalf("chaos-soak: %v\n%s", err, buf.String())
	}
	t.Logf("\n%s", buf.String())

	if out.Completed != out.Clients {
		t.Errorf("completed sessions = %d, want %d", out.Completed, out.Clients)
	}
	if out.RebufferTotal != 0 {
		t.Errorf("rebuffer total = %s, want 0", out.RebufferTotal)
	}
	// Duplicate-send accounting: a corrupt tile is dropped by the client
	// (never held) and its slot may be legitimately re-sent, so detected
	// corruptions are the only excess primary sends allowed.
	if out.ExcessPrimary > out.CorruptDetected {
		t.Errorf("unexplained duplicate primary sends: excess %d > corrupt detected %d",
			out.ExcessPrimary, out.CorruptDetected)
	}
	if out.CorruptDetected == 0 {
		t.Error("no corrupt tile detected — store.frame corruption never reached a client")
	}

	// The chaos actually happened, on every tier.
	if out.InjectedSites != out.ArmedSites {
		t.Errorf("only %d of %d armed sites fired", out.InjectedSites, out.ArmedSites)
	}
	if out.Disconnects == 0 {
		t.Error("no client survived a disconnect — kill and link faults missed the streams")
	}
	if out.Totals.Resumes == 0 {
		t.Error("no resume handshake reached any server")
	}
	if out.Instances <= out.Servers {
		t.Errorf("instances = %d, want a cold restart beyond the initial %d", out.Instances, out.Servers)
	}
	if out.Routed == 0 {
		t.Error("balancer spliced no sessions")
	}

	// Ingest-tier hardening: retries absorbed the injected faults without
	// losing telemetry.
	if out.PushDrops != 0 {
		t.Errorf("push drops = %d, want 0 (retry budget must absorb the armed faults)", out.PushDrops)
	}
	if out.PushRetries == 0 {
		t.Error("push retries = 0 — the armed ingest.push faults never exercised the retry path")
	}
	if out.RollupSessions != int64(out.Clients) {
		t.Errorf("rollup sessions = %d, want %d (every client trace delivered)", out.RollupSessions, out.Clients)
	}
	if out.WatchErrs == 0 {
		t.Error("watch errors = 0 — the armed ingest.watch.read faults never hit the tailer")
	}
	if out.ServerTraceSessions == 0 {
		t.Error("no server-view traces folded despite watcher faults being survivable")
	}
	if out.PollRetries == 0 && out.PollErrs == 0 {
		t.Error("feedback poller never saw its armed faults")
	}

	// Snapshot recovery: the corrupt rollup planted before startup was
	// quarantined, and a healthy snapshot stands at the end.
	if out.Quarantined != 1 {
		t.Errorf("quarantined snapshots = %d, want 1", out.Quarantined)
	}
	if !out.SnapshotRecovered {
		t.Error("no healthy rollup.json recovered on disk")
	}
	if out.SnapshotRecovered && out.SnapshotSessions != int64(out.Clients) {
		t.Errorf("recovered snapshot folded %d sessions, want %d", out.SnapshotSessions, out.Clients)
	}
}
