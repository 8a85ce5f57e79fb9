package ingest

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/leaktest"
	"dragonfly/internal/obs"
	"dragonfly/internal/stats"
)

// Chaos tests arm the process-global failpoint registry and therefore must
// not run in t.Parallel with each other; each one disarms on cleanup.

func armOrFatal(t *testing.T, rules ...chaos.Rule) {
	t.Helper()
	if err := chaos.Arm(rules...); err != nil {
		t.Fatalf("chaos.Arm: %v", err)
	}
	t.Cleanup(chaos.Disarm)
}

// TestWatcherSurvivesReadFaults is the satellite-1 contract: a trace file
// that turns unreadable mid-tail (deleted between listing and read, EIO,
// permission flip — here an injected ingest.watch.read fault) is logged and
// counted, the scan loop stays alive, and the file's content folds on the
// next healthy pass.
func TestWatcherSurvivesReadFaults(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var logged atomic.Int64
	agg := New(Config{Obs: reg, Logf: func(string, ...any) { logged.Add(1) }})
	w := NewWatcher(agg, dir, time.Hour)

	path := filepath.Join(dir, "s0.jsonl")
	body := `{"v":1,"t_ms":0,"ev":"session","cohort":"low:net"}` + "\n" +
		`{"v":1,"t_ms":10,"ev":"quality","n":4200}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	armOrFatal(t, chaos.Rule{Site: "ingest.watch.read", Kind: chaos.FaultError, Count: 2})
	for i := 0; i < 2; i++ {
		if err := w.Scan(); err != nil {
			t.Fatalf("Scan %d: per-file fault must not abandon the scan: %v", i, err)
		}
	}
	if n := agg.Rollup().Cohorts["low:net"].QualityDB.Count; n != 0 {
		t.Fatalf("faulted scans folded %d quality samples, want 0", n)
	}
	if got := reg.Snapshot().Counters["ing_watch_errs"]; got != 2 {
		t.Fatalf("ing_watch_errs = %d, want 2", got)
	}
	if logged.Load() == 0 {
		t.Fatalf("faulted scans produced no log lines")
	}

	// Rules exhausted: the same offset state must pick the file back up.
	if err := w.Scan(); err != nil {
		t.Fatalf("recovery Scan: %v", err)
	}
	cr := agg.Rollup().Cohorts["low:net"]
	if cr.Sessions != 1 || cr.QualityDB.Count != 1 {
		t.Fatalf("after recovery: sessions=%d quality=%d, want 1/1", cr.Sessions, cr.QualityDB.Count)
	}
}

// TestWatcherSurvivesFileDeletedMidTail covers the real (uninjected) shape
// of the same fault: the file disappears between scans and the watcher
// drops its state without error once the listing agrees.
func TestWatcherSurvivesFileDeletedMidTail(t *testing.T) {
	dir := t.TempDir()
	agg := New(Config{Obs: obs.NewRegistry()})
	w := NewWatcher(agg, dir, time.Hour)
	path := filepath.Join(dir, "s0.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":1,"t_ms":0,"ev":"session","cohort":"a:b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan after delete: %v", err)
	}
	if n := len(w.files); n != 0 {
		t.Fatalf("deleted file still tailed: %d entries", n)
	}
}

// TestWatcherBoundsPartialLine pins the pre-fix bug: a newline-free flood
// (a corrupt file matching the glob) must not grow the per-file carry
// buffer without bound. The runaway line is dropped and counted, and the
// tailer re-synchronizes on the next newline.
func TestWatcherBoundsPartialLine(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	w := NewWatcher(agg, dir, time.Hour)

	path := filepath.Join(dir, "flood.jsonl")
	flood := bytes.Repeat([]byte{'x'}, maxLine+4096) // no newline anywhere
	if err := os.WriteFile(path, flood, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	tf := w.files[path]
	if tf == nil {
		t.Fatal("file not tailed")
	}
	if len(tf.partial) != 0 || !tf.overflow {
		t.Fatalf("carry not bounded: partial=%d overflow=%v", len(tf.partial), tf.overflow)
	}
	if got := reg.Snapshot().Counters["ing_bad_lines"]; got != 1 {
		t.Fatalf("ing_bad_lines = %d, want 1", got)
	}

	// The flood's newline finally lands, followed by a healthy line: the
	// tailer must resync and fold the healthy line only.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := "tail-of-flood\n" +
		`{"v":1,"t_ms":0,"ev":"session","cohort":"low:net"}` + "\n" +
		`{"v":1,"t_ms":10,"ev":"quality","n":4200}` + "\n"
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := w.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	cr := agg.Rollup().Cohorts["low:net"]
	if cr.Sessions != 1 || cr.QualityDB.Count != 1 {
		t.Fatalf("after resync: sessions=%d quality=%d, want 1/1", cr.Sessions, cr.QualityDB.Count)
	}
}

// TestFeedbackRejectsPoisonedCohorts is the satellite-2 contract: NaN, ±Inf
// or negative quality quantiles, negative session counts, and unusable
// cohort names must fall back to the neutral scale instead of clamping shed
// budgets to an extreme. Pre-fix, a -Inf P50 pinned the cohort at MaxScale.
func TestFeedbackRejectsPoisonedCohorts(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFeedback(FeedbackConfig{TargetDB: 40, Obs: reg})
	if err := f.apply(Rollup{Cohorts: map[string]CohortRollup{
		"neg-inf":  {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: math.Inf(-1)}},
		"pos-inf":  {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: math.Inf(1)}},
		"nan":      {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: math.NaN()}},
		"negative": {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: -30}},
		"nan-p90":  {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 44, P90: math.NaN()}},
		"bad-sess": {Sessions: -1, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
		"":         {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
		"good":     {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
	}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	for _, name := range []string{"neg-inf", "pos-inf", "nan", "negative", "nan-p90", "bad-sess"} {
		if s := f.CohortScale(name); s != 1 {
			t.Errorf("poisoned cohort %q scale = %v, want neutral 1", name, s)
		}
	}
	if s := f.CohortScale("good"); s >= 1 {
		t.Errorf("good cohort scale = %v, want < 1 (over budget)", s)
	}
	if got := reg.Snapshot().Counters["srv_qoe_rejected_cohorts"]; got != 7 {
		t.Errorf("srv_qoe_rejected_cohorts = %d, want 7", got)
	}
}

// TestFeedbackRejectsCrossVersionRollup: a rollup from a different trace
// schema version is refused whole and the previous scales stand.
func TestFeedbackRejectsCrossVersionRollup(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFeedback(FeedbackConfig{TargetDB: 40, Obs: reg})
	if err := f.apply(Rollup{Cohorts: map[string]CohortRollup{
		"c": {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
	}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	before := f.CohortScale("c")
	if before >= 1 {
		// sanity: applied
	} else if before == 1 {
		t.Fatalf("setup apply did not take")
	}
	err := f.apply(Rollup{SchemaVersion: obs.TraceSchemaVersion + 7, Cohorts: map[string]CohortRollup{
		"c": {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 20}},
	}})
	if err == nil {
		t.Fatalf("cross-version rollup accepted")
	}
	if got := reg.Snapshot().Counters["srv_qoe_rejected_rollups"]; got != 1 {
		t.Errorf("srv_qoe_rejected_rollups = %d, want 1", got)
	}
	if s := f.CohortScale("c"); s != before {
		t.Errorf("rejected rollup changed scale: %v -> %v", before, s)
	}
}

// TestFeedbackPollRetriesTransientFaults: injected poll failures inside one
// cycle are retried (bounded, jittered) and the cycle still lands.
func TestFeedbackPollRetriesTransientFaults(t *testing.T) {
	agg := New(Config{})
	body, _ := sessionJSONL(t, "low:net", rand.New(rand.NewSource(2)), 20)
	if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()

	reg := obs.NewRegistry()
	// TargetDB 20 sits far below the [30,55) sample range, so any median is
	// over budget and the landed scale is observably < 1. A retry waits
	// Interval/8 (50 ms) ±50 %, so both fit well inside the 400 ms cycle.
	f := NewFeedback(FeedbackConfig{
		URL: ts.URL + "/rollup", TargetDB: 20, Obs: reg,
		Interval: 400 * time.Millisecond,
	})
	armOrFatal(t, chaos.Rule{Site: "ingest.feedback.poll", Kind: chaos.FaultError, Count: 2})
	if err := f.Poll(context.Background()); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["srv_qoe_poll_retries"]; got != 2 {
		t.Errorf("srv_qoe_poll_retries = %d, want 2", got)
	}
	if got := snap.Counters["srv_qoe_poll_errs"]; got != 2 {
		t.Errorf("srv_qoe_poll_errs = %d, want 2", got)
	}
	if s := f.CohortScale("low:net"); s == 1 {
		t.Errorf("poll retried but no scale landed")
	}

	// Exhaustion: more faults than attempts fails the cycle with the
	// injected error, and scales go stale (fail-static, never fail-weird).
	armOrFatal(t, chaos.Rule{Site: "ingest.feedback.poll", Kind: chaos.FaultError, Count: 99})
	err := f.Poll(context.Background())
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("exhausted Poll error = %v, want ErrInjected", err)
	}
}

// TestPusherRetriesAndDelivers: transient 5xx responses are retried with
// backoff and the batch lands; the server sees every attempt.
func TestPusherRetriesAndDelivers(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	p := NewPusher(PushConfig{URL: ts.URL, Obs: reg, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if err := p.Push(context.Background(), []byte(`{"v":1}`)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3", calls.Load())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ing_push_retries"]; got != 2 {
		t.Errorf("ing_push_retries = %d, want 2", got)
	}
	if got := snap.Counters["ing_push_drops"]; got != 0 {
		t.Errorf("ing_push_drops = %d, want 0", got)
	}
}

// TestPusherPermanentRejectionFailsFast: a 4xx other than 429 means the
// body itself is bad — retrying cannot fix it and must not happen.
func TestPusherPermanentRejectionFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad batch", http.StatusBadRequest)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	p := NewPusher(PushConfig{URL: ts.URL, Obs: reg, BaseDelay: time.Millisecond})
	if err := p.Push(context.Background(), []byte(`{"v":1}`)); err == nil {
		t.Fatalf("Push accepted a rejected batch")
	}
	if calls.Load() != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on permanent rejection)", calls.Load())
	}
	if got := reg.Snapshot().Counters["ing_push_drops"]; got != 1 {
		t.Errorf("ing_push_drops = %d, want 1", got)
	}
}

// TestPusherDropsAfterBudget: a dead tier (injected ingest.push faults)
// exhausts the attempt budget; the batch is dropped with a count and an
// error, and the producer is released — telemetry is lossy by contract.
func TestPusherDropsAfterBudget(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPusher(PushConfig{
		URL: "http://127.0.0.1:9/ingest", Obs: reg,
		BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	armOrFatal(t, chaos.Rule{Site: "ingest.push", Kind: chaos.FaultError})
	err := p.Push(context.Background(), []byte(`{"v":1}`))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Push error = %v, want ErrInjected", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ing_push_retries"]; got != 3 {
		t.Errorf("ing_push_retries = %d, want 3", got)
	}
	if got := snap.Counters["ing_push_drops"]; got != 1 {
		t.Errorf("ing_push_drops = %d, want 1", got)
	}
}

// TestSnapshotQuarantine walks the full disk-fault recovery: a torn
// rollup.json (injected partial write), a silently corrupted one, and a
// stale .tmp are all detected at startup, moved aside (or removed), and a
// healthy snapshot then writes and reads cleanly.
func TestSnapshotQuarantine(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	body, _ := sessionJSONL(t, "low:net", rand.New(rand.NewSource(4)), 20)
	if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}

	// Torn write: the partial kind plants a half document in final position.
	armOrFatal(t, chaos.Rule{Site: "ingest.snapshot.write", Kind: chaos.FaultPartial, Count: 1})
	if _, err := agg.WriteSnapshot(dir); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("torn WriteSnapshot error = %v, want ErrInjected", err)
	}
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatalf("torn snapshot parsed")
	}
	quarantined, err := agg.quarantineSnapshot(dir)
	if err != nil || !quarantined {
		t.Fatalf("quarantineSnapshot = %v, %v; want true, nil", quarantined, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile+corruptSuffix)); err != nil {
		t.Fatalf("quarantined evidence missing: %v", err)
	}

	// Silent corruption: the writer believes it succeeded.
	chaos.Disarm()
	armOrFatal(t, chaos.Rule{Site: "ingest.snapshot.write", Kind: chaos.FaultCorrupt, Count: 1})
	if _, err := agg.WriteSnapshot(dir); err != nil {
		t.Fatalf("corrupt WriteSnapshot must report success, got %v", err)
	}
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatalf("corrupted snapshot parsed")
	}
	if q, err := agg.quarantineSnapshot(dir); err != nil || !q {
		t.Fatalf("quarantineSnapshot(corrupt) = %v, %v; want true, nil", q, err)
	}

	// Stale temp file from a crash mid-write.
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	chaos.Disarm()
	if _, err := agg.WriteSnapshot(dir); err != nil {
		t.Fatalf("healthy WriteSnapshot: %v", err)
	}
	if q, err := agg.quarantineSnapshot(dir); err != nil || q {
		t.Fatalf("healthy quarantineSnapshot = %v, %v; want false, nil", q, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale .tmp survived quarantine: %v", err)
	}
	ru, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatalf("healthy ReadSnapshot: %v", err)
	}
	if _, ok := ru.Cohorts["low:net"]; !ok {
		t.Fatalf("healthy snapshot lost its cohort")
	}
	if got := reg.Snapshot().Counters["ing_quarantined"]; got != 2 {
		t.Errorf("ing_quarantined = %d, want 2", got)
	}
}

// TestRunSnapshotsQuarantinesOnEntry: the RunSnapshots loop itself performs
// the startup recovery, so a restarted ingest process self-heals without an
// operator in the loop.
func TestRunSnapshotsQuarantinesOnEntry(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("{\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // entry work + final write only
	agg.RunSnapshots(ctx, dir, time.Hour)
	if got := reg.Snapshot().Counters["ing_quarantined"]; got != 1 {
		t.Errorf("ing_quarantined = %d, want 1", got)
	}
	if _, err := ReadSnapshot(dir); err != nil {
		t.Errorf("final snapshot unreadable after quarantine: %v", err)
	}
}

// TestIngestTeardownNoLeak is the satellite-4 assertion for this tier: the
// full ingest stack (HTTP server, watcher, snapshot loop, feedback poller)
// torn down while faults are armed leaves no goroutines behind.
func TestIngestTeardownNoLeak(t *testing.T) {
	defer leaktest.Check(t)()

	dir := t.TempDir()
	snapDir := t.TempDir()
	agg := New(Config{Obs: obs.NewRegistry()})
	if err := os.WriteFile(filepath.Join(dir, "s.jsonl"),
		[]byte(`{"v":1,"t_ms":0,"ev":"session","cohort":"a:b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	armOrFatal(t,
		chaos.Rule{Site: "ingest.watch.read", Kind: chaos.FaultError, Every: 2},
		chaos.Rule{Site: "ingest.snapshot.write", Kind: chaos.FaultError, Every: 2},
		chaos.Rule{Site: "ingest.feedback.poll", Kind: chaos.FaultError, Every: 2},
	)

	ctx, cancel := context.WithCancel(context.Background())
	addr, done, err := agg.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	w := NewWatcher(agg, dir, 5*time.Millisecond)
	f := NewFeedback(FeedbackConfig{
		URL: "http://" + addr.String() + "/rollup", TargetDB: 40,
		Interval: 10 * time.Millisecond,
		Obs:      agg.cfg.Obs,
	})
	finished := make(chan struct{})
	go func() { w.Run(ctx); finished <- struct{}{} }()
	go func() { agg.RunSnapshots(ctx, snapDir, 5*time.Millisecond); finished <- struct{}{} }()
	go func() { f.Run(ctx); finished <- struct{}{} }()

	time.Sleep(60 * time.Millisecond) // let faults fire across all loops
	cancel()
	for i := 0; i < 3; i++ {
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			t.Fatalf("ingest loop %d did not stop", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve exit: %v", err)
	}
	chaos.Disarm()
	if chaos.Injections("ingest.watch.read") == 0 {
		t.Errorf("soak never hit ingest.watch.read")
	}
}

// TestRetryDelaysPinned pins the pusher's backoff for attempts 0–8 and
// nine consecutive feedback retry delays to the values the hand-written
// loop and the two inline ±50 % spreads produced before they moved onto
// retry.Exp / retry.Jitter (recorded at PR 19's commit, same seeds).
func TestRetryDelaysPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  PushConfig
		want [9]int64
	}{
		{"defaults (100 ms → 2 s, seed 1)", PushConfig{URL: "x"},
			[9]int64{110466028, 144050908, 232912010, 375085674, 739709997, 1898916916, 1131274038, 1313038509, 1193939037}},
		{"20 ms → 200 ms, seed 11", PushConfig{URL: "x", BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: 11},
			[9]int64{11829549, 26098590, 52638836, 85477451, 187980201, 122813799, 256959428, 283761414, 195617527}},
	} {
		p := NewPusher(c.cfg)
		for attempt, want := range c.want {
			if got := p.backoff(attempt); int64(got) != want {
				t.Errorf("Pusher %s: backoff(%d) = %d ns, want %d", c.name, attempt, got, want)
			}
		}
	}
	for _, c := range []struct {
		name string
		cfg  FeedbackConfig
		want [9]int64
	}{
		{"defaults (250 ms, seed 1)", FeedbackConfig{URL: "x", TargetDB: 40},
			[9]int64{370462090, 236035498, 170599774, 220995416, 322102496, 267570151, 197441206, 323816317, 240426451}},
		{"150 ms interval (18.75 ms), seed 11", FeedbackConfig{URL: "x", TargetDB: 40, Interval: 150 * time.Millisecond, Seed: 11},
			[9]int64{20442676, 16715210, 15613745, 20529014, 16945586, 25587758, 22494060, 22062861, 10509219}},
	} {
		f := NewFeedback(c.cfg)
		for draw, want := range c.want {
			if got := f.retryDelay(); int64(got) != want {
				t.Errorf("Feedback %s: retryDelay draw %d = %d ns, want %d", c.name, draw, got, want)
			}
		}
	}
}

// FuzzApplyRollup feeds the feedback poll's path — the /rollup body through
// decodeRollup, then apply — bytes no aggregator of ours produced. It must
// not panic; a refused document leaves the scales in force as they were; an
// accepted one yields only scales inside [minScale, maxScale], for at most
// maxFeedbackCohorts cohorts, none of them from a cohort entry apply says it
// rejects. The seeds are the golden rollup vector and edits of it.
func FuzzApplyRollup(f *testing.F) {
	good, err := os.ReadFile(goldenRollupPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"schema_version": 1`), []byte(`"schema_version": 2`), 1))
	f.Add(bytes.Replace(good, []byte(`"p50": `), []byte(`"p50": -`), 1))
	f.Add(append(bytes.Clone(good), `{}`...))
	f.Add([]byte(`{"cohorts":{"":{"sessions":3,"quality_db":{"count":1,"p50":44}},"a":{"sessions":-1},"b":{"sessions":9,"quality_db":{"count":7,"p50":1e308,"p99":-0.0}}}}`))
	f.Add([]byte(`{"cohorts":null,"schema_version":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ru, err := decodeRollup(data)
		if err != nil {
			return // pollOnce stops here, before apply
		}
		fb := NewFeedback(FeedbackConfig{TargetDB: 40, Obs: obs.NewRegistry()})
		prior := Rollup{Cohorts: map[string]CohortRollup{
			"prior": {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
		}}
		if err := fb.apply(prior); err != nil {
			t.Fatal(err)
		}
		want := fb.CohortScale("prior")
		if err := fb.apply(ru); err != nil {
			if got := fb.CohortScale("prior"); got != want || len(fb.scales) != 1 {
				t.Fatalf("refused (%v), but the scales changed: prior %v -> %v, %d cohorts", err, want, got, len(fb.scales))
			}
			return
		}
		if len(fb.scales) > maxFeedbackCohorts {
			t.Fatalf("%d live scales, cap %d", len(fb.scales), maxFeedbackCohorts)
		}
		for name, s := range fb.scales {
			cr, ok := ru.Cohorts[name]
			if !ok || name == "" || cr.Sessions < 1 || cr.QualityDB.Count == 0 || !finiteQuality(cr.QualityDB) {
				t.Fatalf("cohort %q steers (scale %v) on an entry that must not: %+v", name, s, cr)
			}
			if !(s >= minScale && s <= maxScale) {
				t.Fatalf("cohort %q: scale %v outside [%v, %v]", name, s, minScale, maxScale)
			}
		}
	})
}
