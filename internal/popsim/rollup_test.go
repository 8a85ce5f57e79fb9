package popsim

import (
	"bytes"
	"encoding/json"
	"strings"
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

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRollup(Geometry{})
	for i := 0; i < 300; i++ {
		r.Fold("dragonfly", []string{"low:belgian", "high:irish"}[i%2], synthMetrics(i))
		r.Fold("pano", "medium:belgian", synthMetrics(i+7))
	}
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf, 2, 4); err != nil {
		t.Fatal(err)
	}
	head := firstLine(buf.String())
	if !strings.Contains(head, `"kind":"popsim"`) || !strings.Contains(head, `"shard":2`) {
		t.Errorf("snapshot header malformed: %s", head)
	}

	merged := NewRollup(Geometry{})
	if err := merged.MergeSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, merged), summaryJSON(t, r)) {
		t.Fatal("snapshot round trip changed the rollup")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func TestSnapshotRejectsForeignVersion(t *testing.T) {
	r := NewRollup(Geometry{})
	r.Fold("dragonfly", "low:belgian", synthMetrics(1))
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	tampered := strings.ReplaceAll(buf.String(), `"v":1`, `"v":2`)
	if err := NewRollup(Geometry{}).MergeSnapshot(strings.NewReader(tampered)); err == nil {
		t.Fatal("foreign snapshot schema version accepted")
	}
}

func TestSnapshotRejectsGeometryMismatch(t *testing.T) {
	r := NewRollup(Geometry{})
	r.cell("dragonfly", "low:belgian").dist[mQuality] = stats.NewSketch(0, 60, 100)
	r.Fold("dragonfly", "low:belgian", synthMetrics(1))
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := NewRollup(Geometry{}).MergeSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched snapshot geometry merged silently")
	}
}

func TestSnapshotRejectsHeaderless(t *testing.T) {
	if err := NewRollup(Geometry{}).MergeSnapshot(strings.NewReader("")); err == nil {
		t.Fatal("empty snapshot stream accepted")
	}
}

// snapshotOf is a two-cell shard report to tamper with.
func snapshotOf(t testing.TB) string {
	t.Helper()
	r := NewRollup(Geometry{})
	for i := 0; i < 20; i++ {
		r.Fold("dragonfly", []string{"low:belgian", "high:irish"}[i%2], synthMetrics(i))
	}
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// mergeMustLeaveUnchanged merges a bad stream into a non-empty rollup and
// fails unless it is refused with the rollup exactly as it was.
func mergeMustLeaveUnchanged(t *testing.T, stream, why string) {
	t.Helper()
	r := NewRollup(Geometry{})
	r.Fold("pano", "low:belgian", synthMetrics(3))
	before := summaryJSON(t, r)
	if err := r.MergeSnapshot(strings.NewReader(stream)); err == nil {
		t.Fatalf("%s: merged silently", why)
	}
	if !bytes.Equal(summaryJSON(t, r), before) {
		t.Fatalf("%s: refused, but the rollup changed", why)
	}
}

// TestSnapshotRejectsCountMismatch: a dist line whose n is not the sum of
// its bins (a truncated or hand-edited shard report) would skew every
// quantile of the merged sketch.
func TestSnapshotRejectsCountMismatch(t *testing.T) {
	snap := snapshotOf(t)
	if !strings.Contains(snap, `"n":30,`) {
		t.Fatalf("fixture has no 30-frame quality line:\n%s", snap)
	}
	// The tampered line is the last cell's, so everything ahead of it was
	// already staged when the merge is refused.
	last := strings.LastIndex(snap, `"n":30,`)
	mergeMustLeaveUnchanged(t, snap[:last]+`"n":31,`+snap[last+len(`"n":30,`):], "n = sum of bins + 1")
}

// TestSnapshotRejectsRepeatedDist: a (scheme, cohort, metric) may appear
// once per stream; a repeated line would count its sessions' frames twice.
func TestSnapshotRejectsRepeatedDist(t *testing.T) {
	snap := snapshotOf(t)
	lines := strings.SplitAfter(snap, "\n")
	var dist string
	for _, l := range lines {
		if strings.Contains(l, `"kind":"dist"`) {
			dist = l
		}
	}
	mergeMustLeaveUnchanged(t, snap+dist, "repeated dist line")
}

// FuzzMergeSnapshot: a shard report is outside input. No stream may panic
// the coordinator, a refused stream leaves the rollup unchanged, and an
// accepted one leaves every sketch's count equal to the sum of its bins.
func FuzzMergeSnapshot(f *testing.F) {
	snap := snapshotOf(f)
	f.Add(snap)
	f.Add(strings.Replace(snap, `"n":30,`, `"n":29,`, 1))
	f.Add(strings.Replace(snap, `"hi":80,`, `"hi":-1,`, 1))
	f.Add(`{"v":1,"kind":"popsim"}` + "\n" + `{"v":1,"kind":"dist","metric":"blank_ratio","lo":0,"hi":1,"n":18446744073709551615,"bins":[18446744073709551615,18446744073709551615]}`)
	f.Add(`{"v":1,"kind":"cell","scheme":"s","cohort":"c","sessions":-4}`)
	f.Fuzz(func(t *testing.T, stream string) {
		r := NewRollup(Geometry{})
		r.Fold("pano", "low:belgian", synthMetrics(3))
		before := summaryJSON(t, r)
		if err := r.MergeSnapshot(strings.NewReader(stream)); err != nil {
			if !bytes.Equal(summaryJSON(t, r), before) {
				t.Fatalf("refused (%v), but the rollup changed", err)
			}
			return
		}
		for scheme, cohorts := range r.schemes {
			for cohort, cd := range cohorts {
				for i, d := range cd.dist {
					var n uint64
					for _, c := range d.Bins {
						n += c
					}
					if n != d.N || len(d.Bins) != metrics[i].bins {
						t.Fatalf("%s/%s/%s: n %d, bins hold %d in %d bins", scheme, cohort, metrics[i].name, d.N, n, len(d.Bins))
					}
				}
			}
		}
	})
}
