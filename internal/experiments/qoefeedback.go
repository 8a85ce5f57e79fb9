package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/ingest"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// The qoe-feedback scenario: 3 sessions per cohort in each phase.
const qoeSessionsPerCohort = 3

// QoEFeedbackOutcome is the accounting of one run: Phase A proves the
// ingest rollup's quantiles against exact per-session statistics, Phase B
// proves the closed loop steers shedding apart for over- vs under-budget
// cohorts.
type QoEFeedbackOutcome struct {
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
	return fleettest.NewBackend(ctx, "qoe", m,
		func() (net.Conn, net.Conn) { return netem.Pipe(link) },
		func(s *server.Server) {
			wireServer(s)
			s.MaxQueueBytes = maxQueueBytes
			s.TraceDir = traceDir
			s.QoE = qoe
		})
}

// qoeSession streams one traced session and returns its metrics and trace.
func qoeSession(b *fleettest.Backend, cohort string, head *trace.HeadTrace, seed int64) (*player.Metrics, *obs.Trace, error) {
	tr := obs.NewTrace(0)
	rp := wireReconnect(4, seed)
	rp.ReadTimeout = 500 * time.Millisecond
	rp.WriteTimeout = 250 * time.Millisecond
	met, err := client.PlayResilient(b.Dial, "qoe", head, core.NewDefault(), client.PlayOptions{
		Reconnect: rp, Trace: tr, Cohort: cohort,
	})
	return met, tr, err
}

// ExtQoEFeedback runs the fleet QoE feedback-loop proof end to end:
// traced client sessions on a fast and a slow link push JSONL traces to a
// live ingest service, whose /rollup quantiles are checked against the
// exact pooled per-session statistics within the documented envelope
// (Phase A); then two identical servers — one per cohort, same tight
// queue budget, same workload, different cohort label — poll that rollup
// through ingest.Feedback and the over-budget cohort's server measurably
// sheds more than the under-budget one's (Phase B). Server-view traces
// written to a TraceDir are folded back through a directory watcher to
// close the server half of the pipeline.
func ExtQoEFeedback(env *Env, w io.Writer) (QoEFeedbackOutcome, error) {
	return extQoEFeedback(env, w, 1)
}

func extQoEFeedback(_ *Env, w io.Writer, seed int64) (QoEFeedbackOutcome, error) {
	out := QoEFeedbackOutcome{OverCohort: "high:fast", UnderCohort: "low:slow"}
	m := wireManifest("qoe") // both phases' servers serve from the one warm store

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The ingest tier: one aggregator serving /ingest + /rollup.
	ingReg := obs.NewRegistry()
	agg := ingest.New(ingest.Config{Obs: ingReg})
	ingAddr, _, err := agg.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	ingURL := "http://" + ingAddr.String()
	// Traces travel through the hardened pusher, not a bare POST: the
	// same bounded-retry path production producers use.
	pusher := ingest.NewPusher(ingest.PushConfig{URL: ingURL + "/ingest", Seed: seed, Obs: ingReg})

	// ---- Phase A: trace firehose in, rollup quantiles out. -------------
	// One cohort streams over a fast link, the other over a starved one,
	// so their viewport-quality distributions separate; every session's
	// trace is pushed over HTTP, and the rollup must reproduce the exact
	// pooled percentiles within the documented envelope.
	fast := qoeBackend(ctx, m, constLink(20), 0, "", nil)
	defer fast.Kill()
	slow := qoeBackend(ctx, m, constLink(1.5), 0, "", nil)
	defer slow.Kill()

	type cohortRun struct {
		rig    *fleettest.Backend
		cohort string
		class  trace.MotionClass
	}
	runs := []cohortRun{
		{fast, out.OverCohort, trace.MotionHigh},
		{slow, out.UnderCohort, trace.MotionLow},
	}
	// playCohorts streams qoeSessionsPerCohort concurrent sessions per run
	// and returns the first failure.
	playCohorts := func(runs []cohortRun, session func(r cohortRun, i int) error) error {
		errs := make([]error, len(runs)*qoeSessionsPerCohort)
		var wg sync.WaitGroup
		for j := range errs {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				errs[j] = session(runs[j/qoeSessionsPerCohort], j%qoeSessionsPerCohort)
			}(j)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	exact := map[string][]float64{}
	var mu sync.Mutex
	err = playCohorts(runs, func(r cohortRun, i int) error {
		head := wireHead(fmt.Sprintf("qoe-%s-%d", r.cohort, i), r.class, seed+int64(i))
		met, tr, err := qoeSession(r.rig, r.cohort, head, seed+int64(i))
		if err != nil {
			return fmt.Errorf("%s session %d: %w", r.cohort, i, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			return err
		}
		if err := pusher.Push(ctx, buf.Bytes()); err != nil {
			return fmt.Errorf("push trace: %w", err)
		}
		// The exact per-session statistic the rollup approximates: the
		// wire carries centi-dB (score truncated to 0.01 dB), so pool the
		// same rounding the trace saw.
		mu.Lock()
		defer mu.Unlock()
		for _, s := range met.FrameScore {
			exact[r.cohort] = append(exact[r.cohort], float64(int64(s*100))/100)
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	ru, err := fetchRollup(ingURL)
	if err != nil {
		return out, err
	}
	out.EnvelopeDB = ru.QualityEnvDB
	for cohort, samples := range exact {
		cr, ok := ru.Cohorts[cohort]
		if !ok {
			return out, fmt.Errorf("cohort %q missing from rollup", cohort)
		}
		if cr.QualityDB.Count != uint64(len(samples)) {
			return out, fmt.Errorf("cohort %q: rollup folded %d quality samples, clients rendered %d",
				cohort, cr.QualityDB.Count, len(samples))
		}
		out.QualitySamples += cr.QualityDB.Count
		for _, q := range []struct {
			p   float64
			got float64
		}{{10, cr.QualityDB.P10}, {50, cr.QualityDB.P50}, {90, cr.QualityDB.P90}} {
			diff := math.Abs(q.got - nearestRank(samples, q.p))
			if diff > out.MaxQuantileErrDB {
				out.MaxQuantileErrDB = diff
			}
		}
	}
	if out.MaxQuantileErrDB > out.EnvelopeDB {
		return out, fmt.Errorf("rollup quantile error %.3f dB exceeds envelope %.3f dB",
			out.MaxQuantileErrDB, out.EnvelopeDB)
	}
	out.OverP50DB = ru.Cohorts[out.OverCohort].QualityDB.P50
	out.UnderP50DB = ru.Cohorts[out.UnderCohort].QualityDB.P50
	if out.OverP50DB <= out.UnderP50DB {
		return out, fmt.Errorf("cohorts failed to separate: fast p50 %.2f <= slow p50 %.2f",
			out.OverP50DB, out.UnderP50DB)
	}

	// ---- Phase B: close the loop. --------------------------------------
	// Budget midway between the cohort medians: the fast cohort is over
	// it (shed harder), the slow one under (relax). Two identical servers
	// with the same tight byte budget serve identical workloads — the
	// only difference is the cohort label their clients announce.
	out.TargetDB = (out.OverP50DB + out.UnderP50DB) / 2
	fbReg := obs.NewRegistry()
	fb := ingest.NewFeedback(ingest.FeedbackConfig{
		URL:      ingURL + "/rollup",
		TargetDB: out.TargetDB,
		MaxAge:   time.Minute, // one poll feeds the whole phase
		Obs:      fbReg,
	})
	if err := fb.Poll(ctx); err != nil {
		return out, fmt.Errorf("feedback poll: %w", err)
	}
	out.OverScale = fb.CohortScale(out.OverCohort)
	out.UnderScale = fb.CohortScale(out.UnderCohort)

	traceRoot, err := os.MkdirTemp("", "dragonfly-qoe-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(traceRoot)

	// A byte budget well under one chunk's fetch list, so the shedder is
	// active at neutral scale and the cohort scales visibly modulate it.
	const phaseBBudget = 192 << 10
	overDir, underDir := filepath.Join(traceRoot, "over"), filepath.Join(traceRoot, "under")
	overRig := qoeBackend(ctx, m, constLink(6), phaseBBudget, overDir, fb)
	defer overRig.Kill()
	underRig := qoeBackend(ctx, m, constLink(6), phaseBBudget, underDir, fb)
	defer underRig.Kill()

	phaseB := []cohortRun{
		{overRig, out.OverCohort, trace.MotionMedium},
		{underRig, out.UnderCohort, trace.MotionMedium},
	}
	err = playCohorts(phaseB, func(r cohortRun, i int) error {
		// Identical workloads: same head trace and seed per index, only
		// the cohort label differs.
		head := wireHead(fmt.Sprintf("qoe-b-%d", i), r.class, seed+100+int64(i))
		if _, _, err := qoeSession(r.rig, r.cohort, head, seed+100+int64(i)); err != nil {
			return fmt.Errorf("phase B %s session %d: %w", r.cohort, i, err)
		}
		return nil
	})
	if err != nil {
		return out, err
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
			return out, fmt.Errorf("watch %s: %w", dir, err)
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
	return out, nil
}

// nearestRank is the exact nearest-rank percentile — the rank convention
// the rollup sketches use, and the one the documented envelope (one bin
// width) is stated against. An interpolating estimator (stats.Percentile)
// can sit anywhere between two tied plateaus of a discrete distribution,
// which no binned sketch can reproduce; nearest-rank is exactly
// recoverable to within a bin.
func nearestRank(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
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
