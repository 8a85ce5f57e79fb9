package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestExtPopulation runs the population-sweep experiment in its acceptance
// configuration and checks its shard-merge determinism claim and report
// shape.
func TestExtPopulation(t *testing.T) {
	env := testEnv()
	var buf bytes.Buffer
	out, err := ExtPopulation(env, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if out.Sessions != 48 { // 24 members x 2 schemes
		t.Fatalf("folded %d sessions, want 48", out.Sessions)
	}
	if !out.ShardsEqual {
		t.Fatal("2-shard merge diverged from the whole sweep")
	}
	if out.Cohorts == 0 {
		t.Fatal("no cohorts sampled")
	}
	for _, scheme := range []string{"dragonfly", "pano"} {
		if _, ok := out.BestSchemeDB[scheme]; !ok {
			t.Errorf("no summary quality for scheme %q", scheme)
		}
	}
	report := buf.String()
	for _, want := range []string{"population-scale sweep", "byte-for-byte", "cohort"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if env.LastSweep.Sessions != 48 {
		t.Errorf("LastSweep recorded %d sessions, want 48", env.LastSweep.Sessions)
	}
}
