package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
)

// server.trace.write fails the session-trace flush (disk full, unlinked
// TraceDir). The contract under test: tracing must never fail a session —
// the error is logged and the session's outcome is unchanged.
var siteTraceWrite = chaos.NewSite("server.trace.write")

// QoESource supplies per-cohort shed-budget scales — the server half of
// the fleet QoE feedback loop. The canonical implementation is
// ingest.Feedback, a poller of the ingest tier's /rollup endpoint; the
// interface lives here so the server depends on the contract, not the
// poller.
//
// CohortScale returns a multiplier applied to the session's queue budgets
// (DefaultMaxQueue, MaxQueueBytes) at every request install: < 1 sheds
// harder (the cohort is over its quality budget and can afford to lose
// lowest-utility tiles), > 1 relaxes, and 1 is neutral. Implementations
// must return 1 — never 0 — when they have no current data (stale rollup,
// unknown cohort), so a broken feedback path degrades to the static
// budgets rather than to starvation.
type QoESource interface {
	CohortScale(cohort string) float64
}

// qoeScale resolves the effective budget scale for a session's cohort:
// neutral when no source is wired, the session carried no cohort, or the
// source misbehaves (a scale not positive and finite).
func (s *Server) qoeScale(cohort string) float64 {
	if s.QoE == nil || cohort == "" {
		return 1
	}
	sc := s.QoE.CohortScale(cohort)
	if !(sc > 0) || math.IsInf(sc, 1) { // catches 0, negatives, NaN, +Inf
		return 1
	}
	return sc
}

// scaleBudgets applies a QoE scale to the static queue budgets. A scaled
// budget is at least 1 (a session must always be able to hold one item) and
// saturates rather than overflows; a disabled byte budget (0) stays
// disabled — scaling cannot conjure a bound the operator did not set.
func scaleBudgets(maxQueue int, maxBytes int64, scale float64) (int, int64) {
	if maxBytes > 0 {
		maxBytes = scaleBudget(maxBytes, scale)
	}
	return int(scaleBudget(int64(maxQueue), scale)), maxBytes
}

// scaleBudget is n*scale, at least 1 and at most math.MaxInt64.
func scaleBudget(n int64, scale float64) int64 {
	if f := float64(n) * scale; f < math.MaxInt64 {
		return max(int64(f), 1)
	}
	return math.MaxInt64
}

// sessionTrace is the server-view JSONL trace of one session: the
// EvSession header (video + cohort from the handshake) plus one EvShed
// event per shedding install, written to TraceDir at session end. The
// ingest tier folds these alongside client traces so rollups carry the
// server-side shed volume per cohort. All methods are nil-safe; a server
// without TraceDir pays nothing.
type sessionTrace struct {
	tr    *obs.Trace
	start time.Time
	path  string
}

// traceSeq numbers session trace files within the process.
var traceSeq atomic.Int64

// startSessionTrace opens a server-view trace for one session, or nil
// when TraceDir is unset.
func (s *Server) startSessionTrace(videoID, cohort string) *sessionTrace {
	if s.TraceDir == "" {
		return nil
	}
	tr := obs.NewTrace(0)
	tr.Add(obs.SessionEvent(videoID, cohort))
	name := fmt.Sprintf("srv_%d_%d.jsonl", os.Getpid(), traceSeq.Add(1))
	return &sessionTrace{tr: tr, start: time.Now(), path: filepath.Join(s.TraceDir, name)}
}

// shed records one shedding install (n = payload bytes shed).
func (t *sessionTrace) shed(n int64) {
	if t == nil {
		return
	}
	t.tr.Add(obs.Event{At: time.Since(t.start), Kind: obs.EvShed, N: n})
}

// flush writes the trace file (atomically, via obs.Trace.WriteFile) so a
// tailing ingest watcher never reads a torn line. Errors are reported
// through logf and otherwise dropped — tracing must never fail a session.
func (t *sessionTrace) flush(logf func(string, ...any)) {
	if t == nil {
		return
	}
	if err := t.write(); err != nil && logf != nil {
		logf("server: session trace %s: %v", t.path, err)
	}
}

func (t *sessionTrace) write() error {
	if err := siteTraceWrite.Err(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(t.path), 0o755); err != nil {
		return err
	}
	return t.tr.WriteFile(t.path)
}
