package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dragonfly/internal/chaos"
)

// TestRunWaitsForFinalSnapshot holds the daemon to RunSnapshots' promise of
// one last rollup.json when ctx ends. The watcher's final scan, the only
// one at a 1 h interval, is held up for 100 ms and the snapshot write for
// 200 ms: run must not return before the write lands, and the document must
// hold what that scan folded.
func TestRunWaitsForFinalSnapshot(t *testing.T) {
	watch, snaps := t.TempDir(), t.TempDir()
	trace := `{"v":1,"t_ms":0,"ev":"session","cohort":"low:net"}` + "\n" +
		`{"v":1,"t_ms":10,"ev":"quality","n":4200}` + "\n"
	if err := os.WriteFile(filepath.Join(watch, "s1.jsonl"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := chaos.Arm(
		chaos.Rule{Site: "ingest.watch.read", Kind: chaos.FaultDelay, Delay: 100 * time.Millisecond, Count: 1},
		chaos.Rule{Site: "ingest.snapshot.write", Kind: chaos.FaultDelay, Delay: 200 * time.Millisecond, Count: 1},
	); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chaos.Disarm)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{
		"-addr", "127.0.0.1:0",
		"-watch", watch, "-watch-interval", "1h",
		"-snapshot-dir", snaps, "-snapshot-interval", "1h",
	})
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(filepath.Join(snaps, "rollup.json"))
	if err != nil {
		t.Fatalf("run returned before its final snapshot: %v", err)
	}
	var doc struct {
		Cohorts map[string]struct {
			Sessions int `json:"sessions"`
		} `json:"cohorts"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Cohorts["low:net"].Sessions; got != 1 {
		t.Errorf("final snapshot holds %d low:net sessions, want 1 (cohorts %v)", got, doc.Cohorts)
	}
}
