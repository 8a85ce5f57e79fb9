package popsim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/stats"
)

// synthMetrics fabricates a deterministic session for fold tests.
func synthMetrics(i int) *player.Metrics {
	base := 30 + float64(i%17)
	return &player.Metrics{
		FrameScore:       []float64{base, base + 2, base + 4},
		FrameBlank:       []float64{0.01 * float64(i%5), 0},
		TotalFrames:      2,
		RebufferDuration: time.Duration(i%9) * 100 * time.Millisecond,
		StartupDelay:     time.Duration(200+i%50) * time.Millisecond,
	}
}

func summaryJSON(t *testing.T, r *Rollup) []byte {
	t.Helper()
	b, err := json.Marshal(r.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFoldAndSummary(t *testing.T) {
	r := NewRollup(Geometry{})
	for i := 0; i < 100; i++ {
		r.Fold("dragonfly", "low:belgian", synthMetrics(i))
	}
	sum := r.Summary()
	if sum.Sessions != 100 {
		t.Fatalf("summary counts %d sessions, want 100", sum.Sessions)
	}
	cs := sum.Schemes["dragonfly"]["low:belgian"]
	if cs.Sessions != 100 {
		t.Fatalf("cell counts %d sessions, want 100", cs.Sessions)
	}
	if cs.QualityDB.Count != 300 { // 3 frames per session
		t.Fatalf("quality count %d, want 300", cs.QualityDB.Count)
	}
	if cs.QualityDB.P50 < 30 || cs.QualityDB.P50 > 55 {
		t.Errorf("median quality %.2f outside the synthetic range", cs.QualityDB.P50)
	}
	if cs.StartupMS.Mean < 200 || cs.StartupMS.Mean > 250 {
		t.Errorf("startup mean %.1f ms outside the synthetic range", cs.StartupMS.Mean)
	}
	if sum.QualityEnvDB != 0.25 {
		t.Errorf("quality envelope %.3f dB, want the documented 0.25", sum.QualityEnvDB)
	}
}

// TestStateBinsIndependentOfSessions is the memory-model proof: the
// sketch state after 10k sessions is exactly the state after 1k — the
// aggregation footprint depends on (schemes × cohorts × bins) only.
func TestStateBinsIndependentOfSessions(t *testing.T) {
	fold := func(sessions int) *Rollup {
		r := NewRollup(Geometry{})
		cohorts := []string{"low:belgian", "high:irish", "medium:belgian"}
		for i := 0; i < sessions; i++ {
			r.Fold("dragonfly", cohorts[i%len(cohorts)], synthMetrics(i))
			r.Fold("pano", cohorts[i%len(cohorts)], synthMetrics(i+1))
		}
		return r
	}
	small, large := fold(1_000), fold(10_000)
	if small.StateBins() != large.StateBins() {
		t.Fatalf("sketch state grew with sessions: %d bins at 1k vs %d at 10k",
			small.StateBins(), large.StateBins())
	}
	if small.StateBins() == 0 {
		t.Fatal("no sketch state allocated")
	}
	if got, want := large.Sessions(), int64(20_000); got != want {
		t.Fatalf("folded %d sessions, want %d", got, want)
	}
}

// TestMergeCommutes: merging disjoint partial rollups reproduces the
// sequential fold, in either merge order.
func TestMergeCommutes(t *testing.T) {
	whole := NewRollup(Geometry{})
	a, b := NewRollup(Geometry{}), NewRollup(Geometry{})
	for i := 0; i < 500; i++ {
		m := synthMetrics(i)
		cohort := []string{"low:belgian", "high:irish"}[i%2]
		whole.Fold("dragonfly", cohort, m)
		if i%3 == 0 {
			a.Fold("dragonfly", cohort, m)
		} else {
			b.Fold("dragonfly", cohort, m)
		}
	}
	ab, ba := NewRollup(Geometry{}), NewRollup(Geometry{})
	for _, step := range []struct {
		dst      *Rollup
		src1, s2 *Rollup
	}{{ab, a, b}, {ba, b, a}} {
		if err := step.dst.Merge(step.src1); err != nil {
			t.Fatal(err)
		}
		if err := step.dst.Merge(step.s2); err != nil {
			t.Fatal(err)
		}
	}
	want := summaryJSON(t, whole)
	if got := summaryJSON(t, ab); !bytes.Equal(got, want) {
		t.Error("merge a+b differs from sequential fold")
	}
	if got := summaryJSON(t, ba); !bytes.Equal(got, want) {
		t.Error("merge b+a differs from sequential fold")
	}
}

func TestMergeGeometryMismatch(t *testing.T) {
	a, b := NewRollup(Geometry{}), NewRollup(Geometry{})
	a.Fold("dragonfly", "low:belgian", synthMetrics(1))
	b.Fold("dragonfly", "low:belgian", synthMetrics(2))
	b.cell("dragonfly", "low:belgian").dist[mQuality] = stats.NewSketch(0, 60, 100)
	if err := a.Merge(b); err == nil {
		t.Fatal("mismatched sketch geometries merged silently")
	}
}
