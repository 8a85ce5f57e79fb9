package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/stats"
)

// sessionJSONL renders one synthetic session trace: header, startup, a
// stream of quality samples, one stall and one outage. Returns the JSONL
// bytes and the quality samples (dB) it folded in.
func sessionJSONL(t testing.TB, cohort string, rng *rand.Rand, frames int) ([]byte, []float64) {
	t.Helper()
	tr := obs.NewTrace(frames + 16)
	tr.Add(obs.SessionEvent("video-1", cohort))
	tr.Record(120*time.Millisecond, obs.EvStartup, 120)
	quality := make([]float64, 0, frames)
	at := 200 * time.Millisecond
	for i := 0; i < frames; i++ {
		q := 30 + rng.Float64()*25
		// The wire carries centi-dB; fold sees the rounded value.
		n := int64(q * 100)
		tr.Add(obs.Event{At: at, Kind: obs.EvQuality, Chunk: i / 30, N: n})
		quality = append(quality, float64(n)/100)
		at += 33 * time.Millisecond
	}
	tr.Record(at, obs.EvStall, 0)
	tr.Record(at+450*time.Millisecond, obs.EvResume, 450)
	tr.Add(obs.Event{At: at + time.Second, Kind: obs.EvOutage})
	tr.Add(obs.Event{At: at + 2300*time.Millisecond, Kind: obs.EvReconnect, N: 12})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes(), quality
}

func TestIngestFoldRollupMatchesExact(t *testing.T) {
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})

	rng := rand.New(rand.NewSource(7))
	var exact []float64
	const sessions = 20
	for i := 0; i < sessions; i++ {
		body, qs := sessionJSONL(t, "low:belgian", rng, 200)
		if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
			t.Fatalf("FoldReader: %v", err)
		}
		exact = append(exact, qs...)
	}

	ru := agg.Rollup()
	cr, ok := ru.Cohorts["low:belgian"]
	if !ok {
		t.Fatalf("cohort missing from rollup: %v", ru.Cohorts)
	}
	if cr.Sessions != sessions {
		t.Fatalf("sessions = %d, want %d", cr.Sessions, sessions)
	}
	if cr.QualityDB.Count != uint64(len(exact)) {
		t.Fatalf("quality count = %d, want %d", cr.QualityDB.Count, len(exact))
	}
	// The documented envelope: each rollup quantile within one sketch bin
	// width of the exact pooled per-session percentile.
	env := ru.QualityEnvDB
	for _, q := range []struct {
		p    float64
		got  float64
		name string
	}{
		{10, cr.QualityDB.P10, "p10"},
		{25, cr.QualityDB.P25, "p25"},
		{50, cr.QualityDB.P50, "p50"},
		{90, cr.QualityDB.P90, "p90"},
		{99, cr.QualityDB.P99, "p99"},
	} {
		want := stats.Percentile(exact, q.p)
		if d := q.got - want; d > env || d < -env {
			t.Errorf("%s = %.3f, exact %.3f, |diff| > envelope %.3f", q.name, q.got, want, env)
		}
	}
	if cr.StallMS.Count != sessions || cr.StallMS.P50 != 450 {
		t.Errorf("stall dist = %+v, want count %d p50 450", cr.StallMS, sessions)
	}
	if cr.StartupMS.Count != sessions {
		t.Errorf("startup count = %d, want %d", cr.StartupMS.Count, sessions)
	}
	// Outage length 1300 ms derived by pairing EvOutage with EvReconnect;
	// envelope = outage bin width (200 ms at default geometry).
	if cr.OutageMS.Count != sessions {
		t.Errorf("outage count = %d, want %d", cr.OutageMS.Count, sessions)
	}
	if d := cr.OutageMS.P50 - 1300; d > 200 || d < -200 {
		t.Errorf("outage p50 = %.1f, want 1300 +/- 200", cr.OutageMS.P50)
	}
	if got := reg.Snapshot().Counters["ing_sessions"]; got != sessions {
		t.Errorf("ing_sessions = %d, want %d", got, sessions)
	}
}

func TestIngestRejectsOtherSchemaVersions(t *testing.T) {
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	body := strings.Join([]string{
		`{"v":2,"t_ms":0,"ev":"session","cohort":"low:net"}`,
		`{"v":2,"t_ms":10,"ev":"quality","n":4200}`,
		`{"t_ms":20,"ev":"quality","n":4200}`, // v absent = 0: rejected too
		`not json at all`,
	}, "\n")
	if _, err := agg.FoldReader(strings.NewReader(body)); err != nil {
		t.Fatalf("FoldReader: %v", err)
	}
	if n := len(agg.Rollup().Cohorts); n != 0 {
		t.Fatalf("rejected events created %d cohorts, want 0", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["ing_rejected_events"] != 3 {
		t.Errorf("ing_rejected_events = %d, want 3", snap.Counters["ing_rejected_events"])
	}
	if snap.Counters["ing_bad_lines"] != 1 {
		t.Errorf("ing_bad_lines = %d, want 1", snap.Counters["ing_bad_lines"])
	}
}

func TestIngestHeaderlessStreamFoldsAsUnknown(t *testing.T) {
	agg := New(Config{})
	var b strings.Builder
	for i := 0; i < maxPending+10; i++ {
		fmt.Fprintf(&b, `{"v":1,"t_ms":%d,"ev":"quality","n":4000}`+"\n", i)
	}
	if _, err := agg.FoldReader(strings.NewReader(b.String())); err != nil {
		t.Fatalf("FoldReader: %v", err)
	}
	cr, ok := agg.Rollup().Cohorts[unknownCohort]
	if !ok {
		t.Fatalf("no %q cohort", unknownCohort)
	}
	if cr.QualityDB.Count != maxPending+10 {
		t.Errorf("quality count = %d, want %d (buffered events must fold too)", cr.QualityDB.Count, maxPending+10)
	}
}

func TestIngestHTTPPushAndRollup(t *testing.T) {
	agg := New(Config{})
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(3))
	body, _ := sessionJSONL(t, "high:irish", rng, 50)
	resp, err := http.Post(ts.URL+"/ingest", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest status = %v", resp.Status)
	}

	f := NewFeedback(FeedbackConfig{URL: ts.URL + "/rollup", TargetDB: 40})
	if err := f.Poll(t.Context()); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if s := f.CohortScale("high:irish"); s == 1 {
		// 50 samples uniform on [30,55): median ~42.5 dB, over the 40 dB
		// budget beyond the 0.5 dB deadband, so the cohort must shed harder.
		t.Errorf("CohortScale = 1, want < 1 for an over-budget cohort")
	} else if s >= 1 {
		t.Errorf("CohortScale = %v, want < 1", s)
	}
	if s := f.CohortScale("no:such"); s != 1 {
		t.Errorf("unknown cohort scale = %v, want 1", s)
	}
}

func TestFeedbackStaleDataIsNeutral(t *testing.T) {
	f := NewFeedback(FeedbackConfig{URL: "http://invalid.invalid/rollup", TargetDB: 40, MaxAge: time.Millisecond})
	ru := Rollup{Cohorts: map[string]CohortRollup{
		"low:net": {Sessions: 5, QualityDB: stats.SketchSummary{Count: 100, P50: 50}},
	}}
	f.apply(ru)
	if s := f.CohortScale("low:net"); s >= 1 {
		t.Fatalf("fresh scale = %v, want < 1", s)
	}
	time.Sleep(5 * time.Millisecond)
	if s := f.CohortScale("low:net"); s != 1 {
		t.Errorf("stale scale = %v, want neutral 1", s)
	}
}

func TestFeedbackScaleDirectionAndClamp(t *testing.T) {
	f := NewFeedback(FeedbackConfig{TargetDB: 40})
	f.apply(Rollup{Cohorts: map[string]CohortRollup{
		"over":     {Sessions: 2, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
		"under":    {Sessions: 2, QualityDB: stats.SketchSummary{Count: 10, P50: 36}},
		"in-band":  {Sessions: 2, QualityDB: stats.SketchSummary{Count: 10, P50: 40.2}},
		"way-over": {Sessions: 2, QualityDB: stats.SketchSummary{Count: 10, P50: 79}},
	}})
	if s := f.CohortScale("over"); s >= 1 {
		t.Errorf("over scale = %v, want < 1", s)
	}
	if s := f.CohortScale("under"); s <= 1 {
		t.Errorf("under scale = %v, want > 1", s)
	}
	if s := f.CohortScale("in-band"); s != 1 {
		t.Errorf("in-band scale = %v, want 1", s)
	}
	if s := f.CohortScale("way-over"); s != 0.25 {
		t.Errorf("way-over scale = %v, want MinScale 0.25", s)
	}
}

// TestFeedbackScaleGaugesStayBounded: the srv_qoe_scale_* family holds at
// most maxFeedbackCohorts gauges over a Feedback's lifetime, not per poll.
// Each of five polls names 1 024 cohorts no earlier poll named; the first
// poll's cohorts take the family's slots and the later ones mint none.
func TestFeedbackScaleGaugesStayBounded(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFeedback(FeedbackConfig{TargetDB: 40, Obs: reg})
	for poll := 0; poll < 5; poll++ {
		ru := Rollup{Cohorts: map[string]CohortRollup{}}
		for i := 0; i < maxFeedbackCohorts; i++ {
			ru.Cohorts[fmt.Sprintf("p%d-c%d", poll, i)] = CohortRollup{Sessions: 1, QualityDB: stats.SketchSummary{Count: 1, P50: 44}}
		}
		if err := f.apply(ru); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for name := range reg.Snapshot().Gauges {
		if strings.HasPrefix(name, "srv_qoe_scale_") {
			n++
		}
	}
	if n != maxFeedbackCohorts {
		t.Fatalf("%d srv_qoe_scale_* gauges after five polls of %d new cohorts each, want %d", n, maxFeedbackCohorts, maxFeedbackCohorts)
	}
}

// TestFeedbackScaleGaugeOfDroppedCohortIsNeutral: a cohort the latest
// rollup lacks reads the neutral 1 on its gauge, as CohortScale reads it,
// not the scale of the last rollup that named it.
func TestFeedbackScaleGaugeOfDroppedCohortIsNeutral(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFeedback(FeedbackConfig{TargetDB: 40, Obs: reg})
	over := CohortRollup{Sessions: 2, QualityDB: stats.SketchSummary{Count: 10, P50: 44}}
	if err := f.apply(Rollup{Cohorts: map[string]CohortRollup{"low:net": over, "high:net": over}}); err != nil {
		t.Fatal(err)
	}
	gauge := func(label string) float64 { return reg.Snapshot().Gauges["srv_qoe_scale_"+label] }
	if s := f.CohortScale("low:net"); s >= 1 || gauge("low_net") != s {
		t.Fatalf("poll 1: scale %v, gauge %v; want one scale below 1 on both", s, gauge("low_net"))
	}
	if err := f.apply(Rollup{Cohorts: map[string]CohortRollup{"high:net": over}}); err != nil {
		t.Fatal(err)
	}
	if s, g := f.CohortScale("low:net"), gauge("low_net"); s != 1 || g != s {
		t.Errorf("poll 2, cohort dropped: scale %v, gauge %v; want both 1", s, g)
	}
	if s, g := f.CohortScale("high:net"), gauge("high_net"); s >= 1 || g != s {
		t.Errorf("poll 2, cohort kept: scale %v, gauge %v; want one scale below 1 on both", s, g)
	}
}

func TestIngestWatcherTailsAndRotates(t *testing.T) {
	dir := t.TempDir()
	agg := New(Config{})
	w := NewWatcher(agg, dir, time.Hour) // driven manually via Scan

	path := filepath.Join(dir, "s0.jsonl")
	full := `{"v":1,"t_ms":0,"ev":"session","cohort":"low:belgian","video":"v"}` + "\n" +
		`{"v":1,"t_ms":10,"ev":"quality","n":4200}` + "\n"
	// Write the file in two pieces, splitting mid-line: the tailer must
	// buffer the partial line across scans.
	cut := len(full) - 9
	if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n := agg.Rollup().Cohorts["low:belgian"].QualityDB.Count; n != 0 {
		t.Fatalf("partial line folded early: count = %d", n)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	cr := agg.Rollup().Cohorts["low:belgian"]
	if cr.Sessions != 1 || cr.QualityDB.Count != 1 {
		t.Fatalf("after append: sessions=%d quality=%d, want 1/1", cr.Sessions, cr.QualityDB.Count)
	}

	// Rotate in place: shorter content = restart from offset 0.
	rotated := `{"v":1,"t_ms":0,"ev":"session","cohort":"high:irish"}` + "\n"
	if err := os.WriteFile(path, []byte(rotated), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n := agg.Rollup().Cohorts["high:irish"].Sessions; n != 1 {
		t.Fatalf("rotated file not re-read: sessions = %d", n)
	}
}

// TestIngestMultiWriterRace drives one Aggregator from many goroutines —
// HTTP pushes and raw FoldReaders concurrently with rollups — and is the
// race-detector coverage for the shared fold path (scripts/ci.sh runs the
// package under -race).
func TestIngestMultiWriterRace(t *testing.T) {
	agg := New(Config{Obs: obs.NewRegistry()})
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()

	const writers = 8
	const perWriter = 5
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			cohort := fmt.Sprintf("c%d:net", i%3)
			for j := 0; j < perWriter; j++ {
				body, _ := sessionJSONL(t, cohort, rng, 40)
				if i%2 == 0 {
					resp, err := http.Post(ts.URL+"/ingest", "application/jsonl", bytes.NewReader(body))
					if err != nil {
						t.Errorf("POST: %v", err)
						return
					}
					resp.Body.Close()
				} else if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
					t.Errorf("FoldReader: %v", err)
					return
				}
			}
		}(i)
	}
	// Concurrent readers: rollups and snapshots while writers fold.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		dir := t.TempDir()
		for {
			select {
			case <-stop:
				return
			default:
				_ = agg.Rollup()
				_, _ = agg.WriteSnapshot(dir)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	var total int64
	for _, cr := range agg.Rollup().Cohorts {
		total += cr.Sessions
	}
	if total != writers*perWriter {
		t.Fatalf("sessions = %d, want %d", total, writers*perWriter)
	}
}

func TestIngestSnapshotRoundTrips(t *testing.T) {
	dir := t.TempDir()
	agg := New(Config{})
	rng := rand.New(rand.NewSource(1))
	body, _ := sessionJSONL(t, "low:net", rng, 10)
	if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	path, err := agg.WriteSnapshot(dir)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"low:net"`)) {
		t.Fatalf("snapshot missing cohort: %s", data)
	}
}

func BenchmarkIngestFold(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	body, _ := sessionJSONL(b, "low:belgian", rng, 300)
	agg := New(Config{})
	// One fold before the timer puts a foldScratch (its 64 KB buffer and
	// 256-event batch) in the pool; otherwise whether the timed loop
	// allocates one depends on the pool's state, and B/op reads two values.
	if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
