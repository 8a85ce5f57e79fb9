package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/ingest"
	"dragonfly/internal/netem"
	"dragonfly/internal/server"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// The qoe-feedback scenario: 3 sessions per cohort in each phase.
const qoeSessionsPerCohort = 3

// qoeFeedbackOutcome is the accounting of one run: Phase A proves the
// ingest rollup's quantiles against exact per-session statistics, Phase B
// proves the closed loop steers shedding apart for over- vs under-budget
// cohorts.
type qoeFeedbackOutcome struct {
	OverCohort, UnderCohort string

	// Phase A: rollup accuracy.
	OverP50DB, UnderP50DB float64 // rollup medians per cohort
	EnvelopeDB            float64 // documented quantile error bound (sketch bin width)
	MaxQuantileErrDB      float64 // worst |rollup - exact| over p10/p50/p90, both cohorts
	QualitySamples        uint64  // EvQuality events folded

	// Phase B: the closed loop.
	TargetDB              float64 // quality budget handed to the feedback poller
	OverScale, UnderScale float64 // cohort shed-budget scales the servers applied
	OverShed, UnderShed   int64   // shed payload bytes per server (identical workloads)
	OverScaledInstalls    int64
	UnderScaledInstalls   int64
	ServerTraceSessions   int64  // server-view traces folded back through a watcher
	ServerTraceShedFolded uint64 // EvShed events those traces carried for the over cohort
	ServerTraceShedP50    float64
}

// qoeBackend is a single server endpoint on its own link with its own
// queue byte budget, server-view trace directory and QoE source (zero, ""
// and nil leave each off). Nothing here restarts — the chaos experiments
// cover that; the subject is the feedback loop.
func qoeBackend(ctx context.Context, m *video.Manifest, link netem.Link,
	maxQueueBytes int64, traceDir string, qoe server.QoESource) *fleettest.Backend {
	return fleettest.NewBackend(ctx, "qoe", m, link,
		func(s *server.Server) {
			wireServer(s)
			s.MaxQueueBytes = maxQueueBytes
			s.TraceDir = traceDir
			s.QoE = qoe
		})
}

// qoeReconnect is a qoe-feedback client's reconnect policy.
func qoeReconnect(seed int64) client.ReconnectPolicy {
	rp := wireReconnect(4, seed)
	rp.ReadTimeout = 500 * time.Millisecond
	rp.WriteTimeout = 250 * time.Millisecond
	return rp
}

// qoeCohort is one cohort of a phase: the backend its clients stream
// from, the label they announce, and their head-motion class.
type qoeCohort struct {
	rig    *fleettest.Backend
	cohort string
	class  trace.MotionClass
}

// playCohorts runs qoeSessionsPerCohort concurrent sessions per cohort and
// returns the first failure.
func playCohorts(cohorts []qoeCohort, session func(c qoeCohort, i int) error) error {
	return fanOut(len(cohorts)*qoeSessionsPerCohort, func(j int) error {
		return session(cohorts[j/qoeSessionsPerCohort], j%qoeSessionsPerCohort)
	})
}

// extQoEFeedback runs the fleet QoE feedback-loop proof end to end:
// traced client sessions on a fast and a slow link push JSONL traces to a
// live ingest service, whose /rollup quantiles are checked against the
// exact pooled per-session statistics within the documented envelope
// (Phase A); then two identical servers — one per cohort, same tight
// queue budget, same workload, different cohort label — poll that rollup
// through ingest.Feedback and the over-budget cohort's server measurably
// sheds more than the under-budget one's (Phase B). Server-view traces
// written to a TraceDir are folded back through a directory watcher to
// close the server half of the pipeline.
func extQoEFeedback(w io.Writer, seed int64) (qoeFeedbackOutcome, error) {
	out := qoeFeedbackOutcome{OverCohort: "high:fast", UnderCohort: "low:slow"}
	m := wireManifest("qoe") // both phases' servers serve from the one warm store

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ing, err := startIngest(ctx, seed)
	if err != nil {
		return out, err
	}
	if err := qoeRollupPhase(ctx, ing, m, seed, &out); err != nil {
		return out, err
	}
	if err := qoeLoopPhase(ctx, ing.url, m, seed, &out); err != nil {
		return out, err
	}
	printQoEFeedback(w, out, ing.url)
	return out, nil
}

// qoeRollupPhase is Phase A: trace firehose in, rollup quantiles out. One
// cohort streams over a fast link, the other over a starved one, so their
// viewport-quality distributions separate; every session's trace is
// pushed over HTTP, and the rollup must reproduce the exact pooled
// percentiles within the documented envelope.
func qoeRollupPhase(ctx context.Context, ing *ingestTier, m *video.Manifest, seed int64, out *qoeFeedbackOutcome) error {
	fast := qoeBackend(ctx, m, constLink(20), 0, "", nil)
	defer fast.Kill()
	slow := qoeBackend(ctx, m, constLink(1.5), 0, "", nil)
	defer slow.Kill()
	cohorts := []qoeCohort{
		{fast, out.OverCohort, trace.MotionHigh},
		{slow, out.UnderCohort, trace.MotionLow},
	}

	exact := map[string][]float64{}
	var mu sync.Mutex
	err := playCohorts(cohorts, func(c qoeCohort, i int) error {
		head := wireHead(fmt.Sprintf("qoe-%s-%d", c.cohort, i), c.class, seed+int64(i))
		met, err := ing.play(ctx, c.rig.Dial, "qoe", head, qoeReconnect(seed+int64(i)), c.cohort)
		if err != nil {
			return fmt.Errorf("%s session %d: %w", c.cohort, i, err)
		}
		// The exact per-session statistic the rollup approximates: the
		// wire carries centi-dB (score truncated to 0.01 dB), so pool the
		// same rounding the trace saw.
		mu.Lock()
		defer mu.Unlock()
		for _, s := range met.FrameScore {
			exact[c.cohort] = append(exact[c.cohort], float64(int64(s*100))/100)
		}
		return nil
	})
	if err != nil {
		return err
	}

	ru, err := fetchRollup(ing.url)
	if err != nil {
		return err
	}
	out.EnvelopeDB = ru.QualityEnvDB
	for cohort, samples := range exact {
		cr, ok := ru.Cohorts[cohort]
		if !ok {
			return fmt.Errorf("cohort %q missing from rollup", cohort)
		}
		if cr.QualityDB.Count != uint64(len(samples)) {
			return fmt.Errorf("cohort %q: rollup folded %d quality samples, clients rendered %d",
				cohort, cr.QualityDB.Count, len(samples))
		}
		out.QualitySamples += cr.QualityDB.Count
		for _, q := range []struct {
			p   float64
			got float64
		}{{10, cr.QualityDB.P10}, {50, cr.QualityDB.P50}, {90, cr.QualityDB.P90}} {
			diff := math.Abs(q.got - stats.NearestRank(samples, q.p))
			if diff > out.MaxQuantileErrDB {
				out.MaxQuantileErrDB = diff
			}
		}
	}
	if out.MaxQuantileErrDB > out.EnvelopeDB {
		return fmt.Errorf("rollup quantile error %.3f dB exceeds envelope %.3f dB",
			out.MaxQuantileErrDB, out.EnvelopeDB)
	}
	out.OverP50DB = ru.Cohorts[out.OverCohort].QualityDB.P50
	out.UnderP50DB = ru.Cohorts[out.UnderCohort].QualityDB.P50
	if out.OverP50DB <= out.UnderP50DB {
		return fmt.Errorf("cohorts failed to separate: fast p50 %.2f <= slow p50 %.2f",
			out.OverP50DB, out.UnderP50DB)
	}
	return nil
}

// qoeLoopPhase is Phase B: close the loop. The quality budget sits midway
// between the cohort medians: the fast cohort is over it (shed harder),
// the slow one under (relax). Two identical servers with the same tight
// byte budget serve identical workloads — the only difference is the
// cohort label their clients announce.
func qoeLoopPhase(ctx context.Context, ingURL string, m *video.Manifest, seed int64, out *qoeFeedbackOutcome) error {
	out.TargetDB = (out.OverP50DB + out.UnderP50DB) / 2
	fb := ingest.NewFeedback(ingest.FeedbackConfig{
		URL:      ingURL + "/rollup",
		TargetDB: out.TargetDB,
		MaxAge:   time.Minute, // one poll feeds the whole phase
	})
	if err := fb.Poll(ctx); err != nil {
		return fmt.Errorf("feedback poll: %w", err)
	}
	out.OverScale = fb.CohortScale(out.OverCohort)
	out.UnderScale = fb.CohortScale(out.UnderCohort)

	traceRoot, err := os.MkdirTemp("", "dragonfly-qoe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(traceRoot)

	// A byte budget well under one chunk's fetch list, so the shedder is
	// active at neutral scale and the cohort scales visibly modulate it.
	const budget = 192 << 10
	overDir, underDir := filepath.Join(traceRoot, "over"), filepath.Join(traceRoot, "under")
	overRig := qoeBackend(ctx, m, constLink(6), budget, overDir, fb)
	defer overRig.Kill()
	underRig := qoeBackend(ctx, m, constLink(6), budget, underDir, fb)
	defer underRig.Kill()

	err = playCohorts([]qoeCohort{
		{overRig, out.OverCohort, trace.MotionMedium},
		{underRig, out.UnderCohort, trace.MotionMedium},
	}, func(c qoeCohort, i int) error {
		// Identical workloads: same head trace and seed per index, only
		// the cohort label differs.
		s := seed + 100 + int64(i)
		head := wireHead(fmt.Sprintf("qoe-b-%d", i), c.class, s)
		if _, err := client.PlayResilient(c.rig.Dial, "qoe", head, core.NewDefault(), client.PlayOptions{
			Reconnect: qoeReconnect(s), Cohort: c.cohort,
		}); err != nil {
			return fmt.Errorf("phase B %s session %d: %w", c.cohort, i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Kill waits for every session handler, so the server-view traces
	// are on disk before the scan below.
	overRig.Kill()
	underRig.Kill()
	overC, _ := overRig.Totals()
	underC, _ := underRig.Totals()
	out.OverShed = overC.ShedBytes
	out.UnderShed = underC.ShedBytes
	out.OverScaledInstalls = overC.QoEScaledInstalls
	out.UnderScaledInstalls = underC.QoEScaledInstalls

	// Fold the server-view traces back through the watch path: the same
	// files a production ingest tier would tail with -watch.
	srvAgg := ingest.New(ingest.Config{})
	for _, dir := range []string{overDir, underDir} {
		if err := ingest.NewWatcher(srvAgg, dir, time.Hour).Scan(); err != nil {
			return fmt.Errorf("watch %s: %w", dir, err)
		}
	}
	sru := srvAgg.Rollup()
	for _, cr := range sru.Cohorts {
		out.ServerTraceSessions += cr.Sessions
	}
	if cr, ok := sru.Cohorts[out.OverCohort]; ok {
		out.ServerTraceShedFolded = cr.ShedBytes.Count
		out.ServerTraceShedP50 = cr.ShedBytes.P50
	}
	return nil
}

func printQoEFeedback(w io.Writer, out qoeFeedbackOutcome, ingURL string) {
	fprintf(w, "== Extension: qoe-feedback (trace ingest -> cohort rollup -> shed-budget loop) ==\n")
	fprintf(w, "%d sessions/cohort/phase, %d-chunk video; ingest at %s.\n\n", qoeSessionsPerCohort, wireChunks, ingURL)
	fprintf(w, "%-30s %14s\n", "metric", "value")
	fprintf(w, "%-30s %14d\n", "quality samples folded", out.QualitySamples)
	fprintf(w, "%-30s %11.3f dB\n", "rollup quantile envelope", out.EnvelopeDB)
	fprintf(w, "%-30s %11.3f dB\n", "worst quantile error", out.MaxQuantileErrDB)
	fprintf(w, "%-30s %11.2f dB\n", out.OverCohort+" p50", out.OverP50DB)
	fprintf(w, "%-30s %11.2f dB\n", out.UnderCohort+" p50", out.UnderP50DB)
	fprintf(w, "%-30s %11.2f dB\n", "quality budget (target)", out.TargetDB)
	fprintf(w, "%-30s %14.3f\n", out.OverCohort+" scale", out.OverScale)
	fprintf(w, "%-30s %14.3f\n", out.UnderCohort+" scale", out.UnderScale)
	fprintf(w, "%-30s %14d\n", "over-budget shed bytes", out.OverShed)
	fprintf(w, "%-30s %14d\n", "under-budget shed bytes", out.UnderShed)
	fprintf(w, "%-30s %14d\n", "scaled installs (over)", out.OverScaledInstalls)
	fprintf(w, "%-30s %14d\n", "scaled installs (under)", out.UnderScaledInstalls)
	fprintf(w, "%-30s %14d\n", "server traces refolded", out.ServerTraceSessions)
	fprintf(w, "%-30s %14d\n", "server shed events folded", out.ServerTraceShedFolded)
}

func fetchRollup(baseURL string) (ingest.Rollup, error) {
	var ru ingest.Rollup
	resp, err := http.Get(baseURL + "/rollup")
	if err != nil {
		return ru, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ru, fmt.Errorf("rollup: %s", resp.Status)
	}
	return ru, json.NewDecoder(resp.Body).Decode(&ru)
}
