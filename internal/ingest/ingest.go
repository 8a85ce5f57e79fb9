// Package ingest is the fleet QoE aggregation tier: a streaming consumer
// of the JSONL session traces every server, client and sim sweep emits
// (internal/obs, schema v1), folded online into per-cohort quantile
// sketches of the quantities the paper's evaluation reasons about —
// viewport quality, stall time, startup delay, outage duration — plus the
// server-side shed volume the QoE feedback loop acts on.
//
// Traces arrive two ways: a directory watcher tails *.jsonl files as
// servers append them (Watcher), and an HTTP handler accepts pushed trace
// bodies (POST /ingest). Both fold into one Aggregator, whose fixed-bin
// mergeable sketches (internal/stats.Sketch) keep memory constant per
// cohort no matter how many sessions stream through. GET /rollup exports
// the current per-cohort quantiles as JSON; Serve also snapshots the same
// document to disk on a period, so an operator (or a cold-started
// feedback poller) can read the last rollup without the service.
//
// The loop closes through Feedback: a stale-data-safe poller of /rollup
// that turns each cohort's median viewport quality into a shed-budget
// scale the tile server applies per session (server.QoESource) — cohorts
// over their quality budget shed harder, cohorts under it are relaxed.
// The full contract — trace schema, metric catalog, rollup format,
// versioning policy — is docs/OBSERVABILITY.md.
package ingest

import (
	"bytes"
	"io"
	"sync"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/stats"
)

// Config wires an Aggregator to its surroundings; the zero value is usable.
type Config struct {
	// Obs, when non-nil, receives the ing_* metrics (events, sessions,
	// rejects, cohort count) for the admin endpoint.
	Obs *obs.Registry

	// Logf receives tailer and snapshot diagnostics (a trace file deleted
	// mid-read, a failed or quarantined snapshot); nil silences logging.
	// Every condition Logf reports is also counted in an ing_* metric —
	// the log line carries the path and error the counter cannot.
	Logf func(format string, args ...any)
}

// Indices into metrics and cohortAgg.dist.
const (
	mQuality = iota // dB per rendered frame
	mStall          // ms per stall
	mStartup        // ms
	mOutage         // ms per outage
	mShed           // bytes per shedding install
	numMetrics
)

// metrics is the per-cohort metric table: each sketch's range in the unit
// of its quantity and its bin count. Values beyond a range clamp into the
// edge bin (stats.Sketch). The quality bin width, (hi-lo)/bins = 0.25 dB, is
// the documented rollup quantile error envelope. Every walk over a cohort's
// sketches reads this table; CohortRollup.dists maps its rows to the
// exported fields.
var metrics = [numMetrics]struct {
	lo, hi float64
	bins   int
}{
	mQuality: {0, 80, 320},
	mStall:   {0, 30_000, 300},
	mStartup: {0, 30_000, 300},
	mOutage:  {0, 60_000, 300},
	mShed:    {0, 64 << 20, 256},
}

// cohortAgg is the per-cohort fold state: one sketch per row of metrics.
type cohortAgg struct {
	sessions int64
	events   int64
	dist     [numMetrics]*stats.Sketch
}

// Aggregator folds trace events into per-cohort sketches. All methods are
// safe for concurrent use; many SessionFolds (one per tailed file or
// pushed body) may feed one Aggregator from different goroutines.
type Aggregator struct {
	cfg Config

	mu      sync.Mutex
	cohorts map[string]*cohortAgg

	// Registry handles, resolved once (nil-safe when cfg.Obs is nil).
	evEvents   *obs.Counter
	evSessions *obs.Counter
	evRejected *obs.Counter
	evBadLines *obs.Counter
	evRejCoh   *obs.Counter
	gCohorts   *obs.Gauge
}

// New creates an aggregator.
func New(cfg Config) *Aggregator {
	r := cfg.Obs
	return &Aggregator{
		cfg:        cfg,
		cohorts:    map[string]*cohortAgg{},
		evEvents:   r.Counter("ing_events"),
		evSessions: r.Counter("ing_sessions"),
		evRejected: r.Counter("ing_rejected_events"),
		evBadLines: r.Counter("ing_bad_lines"),
		evRejCoh:   r.Counter("ing_rejected_cohorts"),
		gCohorts:   r.Gauge("ing_cohorts"),
	}
}

func (a *Aggregator) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// cohort returns the named cohort's fold state, creating it on first use.
// A label is the client's to choose, and each new one costs five sketches,
// so a name over maxCohortNameLen, or a new name once the rollup holds
// maxFeedbackCohorts cohorts (a slot is kept for unknownCohort), folds
// under unknownCohort instead, counted in ing_rejected_cohorts: a Feedback
// reading the rollup then never truncates it. Caller holds a.mu.
func (a *Aggregator) cohort(name string) *cohortAgg {
	if ca := a.cohorts[name]; ca != nil {
		return ca
	}
	if name != unknownCohort {
		named := len(a.cohorts)
		if _, ok := a.cohorts[unknownCohort]; ok {
			named--
		}
		if len(name) > maxCohortNameLen || named >= maxFeedbackCohorts-1 {
			a.evRejCoh.Inc()
			return a.cohort(unknownCohort)
		}
	}
	ca := &cohortAgg{}
	for i, m := range metrics {
		ca.dist[i] = stats.NewSketch(m.lo, m.hi, m.bins)
	}
	a.cohorts[name] = ca
	a.gCohorts.Set(float64(len(a.cohorts)))
	return ca
}

// maxPending bounds the events a sessionFold buffers while waiting for the
// EvSession header (writers emit it first, but a tailer may join a
// truncated or foreign stream); overflow classifies the session "unknown".
const maxPending = 256

// unknownCohort is the rollup key for sessions whose trace carried no
// usable EvSession header.
const unknownCohort = "unknown"

// sessionFold is the per-session (per-file, per-push-body) streaming fold
// state: it remembers the session's cohort and the open outage, and hands
// each event to the shared Aggregator. Not safe for concurrent use itself;
// distinct SessionFolds may run concurrently.
type sessionFold struct {
	a       *Aggregator
	ca      *cohortAgg // the session's cohort; nil until a header or maxPending settles it
	pending []obs.Event

	inOutage   bool
	outageAtMS float64
}

// newSession starts folding one session trace stream.
func (a *Aggregator) newSession() *sessionFold {
	return &sessionFold{a: a}
}

// appendLine decodes one JSONL line into the next free slot of evs (the
// caller keeps len(evs) < cap(evs)) and returns evs extended by it, or evs
// unchanged for a blank line or a malformed one (counted ing_bad_lines).
// It takes no lock: a batch is decoded before it is folded.
func (sf *sessionFold) appendLine(evs []obs.Event, line []byte) []obs.Event {
	if len(line) == 0 || line[0] != '{' && len(bytes.TrimSpace(line)) == 0 {
		return evs
	}
	n := len(evs)
	evs = evs[:n+1]
	if err := obs.UnmarshalEvent(line, &evs[n]); err != nil || evs[n].Kind == "" {
		sf.a.evBadLines.Inc()
		return evs[:n]
	}
	return evs
}

// foldBatch folds decoded events in order under one acquisition of the
// aggregator's lock, and adds to the shared ing_* counters once. Every
// entry point — FoldReader, the Watcher and the tests' Line and Event —
// folds through it.
func (sf *sessionFold) foldBatch(evs []obs.Event) {
	if len(evs) == 0 {
		return
	}
	a := sf.a
	var events, sessions, rejected int64
	a.mu.Lock()
	for i := range evs {
		ev := &evs[i]
		if ev.V != obs.TraceSchemaVersion {
			rejected++
			continue
		}
		events++
		switch {
		case ev.Kind == obs.EvSession:
			cohort := ev.Cohort
			if cohort == "" {
				cohort = unknownCohort
			}
			// A new header mid-stream starts a new session (push bodies may
			// concatenate several sessions back to back). Events buffered
			// ahead of it belong to a stream whose header never came: they
			// stay counted in ing_events and are dropped, not folded.
			sf.closeSession()
			sf.ca = a.cohort(cohort)
			sf.ca.sessions++
			sf.ca.events++
			sessions++
		case sf.ca != nil:
			sf.fold(ev)
		case len(sf.pending) < maxPending:
			// Header not seen yet: hold on to the event.
			sf.pending = append(sf.pending, *ev)
		default:
			// The buffer says this stream has no header: give up on
			// classification.
			sf.ca = a.cohort(unknownCohort)
			sf.ca.sessions++
			sessions++
			for j := range sf.pending {
				sf.fold(&sf.pending[j])
			}
			sf.pending = nil
			sf.fold(ev)
		}
	}
	a.mu.Unlock()
	a.evEvents.Add(events)
	a.evSessions.Add(sessions)
	a.evRejected.Add(rejected)
}

// fold applies one event to the session's cohort sketches. sf.ca is set and
// the caller holds a.mu.
func (sf *sessionFold) fold(ev *obs.Event) {
	ca := sf.ca
	ca.events++
	switch ev.Kind {
	case obs.EvQuality:
		ca.dist[mQuality].Add(float64(ev.N) / 100) // centi-dB on the wire
	case obs.EvResume:
		ca.dist[mStall].Add(float64(ev.N))
		sf.closeOutage(ev.AtMS)
	case obs.EvStartup:
		ca.dist[mStartup].Add(float64(ev.N))
	case obs.EvOutage:
		sf.inOutage = true
		sf.outageAtMS = ev.AtMS
	case obs.EvReconnect, obs.EvLinkDead:
		sf.closeOutage(ev.AtMS)
	case obs.EvShed:
		ca.dist[mShed].Add(float64(ev.N))
	}
}

// closeOutage pairs the open outage, if any, with the event that ends it.
// Same preconditions as fold.
func (sf *sessionFold) closeOutage(atMS float64) {
	if !sf.inOutage {
		return
	}
	sf.inOutage = false
	if d := atMS - sf.outageAtMS; d >= 0 {
		sf.ca.dist[mOutage].Add(d)
	}
}

// closeSession ends the stream, flushing end-of-stream state (an outage
// the trace never saw close stays unfolded: its length is unknown, not
// zero). Call it when the trace source is done (file deleted, push body
// fully read); it is safe to skip for tailed files that may grow.
func (sf *sessionFold) closeSession() {
	sf.inOutage = false
	sf.pending = nil
}

// foldBatchSize is how many decoded events FoldReader and the Watcher
// gather before taking the aggregator's lock once for all of them, and so
// the granularity at which a stream in flight becomes visible to Rollup.
const foldBatchSize = 256

// maxLine bounds one trace line. A writer that stops mid-line holds at most
// this much in the reader's carry; a newline-free flood (a corrupt or
// non-JSONL stream) is dropped and counted (ing_bad_lines) instead of growing
// the carry without bound.
const maxLine = 1 << 20

// lineCarry is what one read of a stream leaves for the next: the bytes
// after the last newline, or — once they outgrew maxLine and were dropped —
// the instruction to discard up to the next newline, where the stream is
// back on a line boundary.
type lineCarry struct {
	partial  []byte
	overflow bool
}

// foldScratch is the reusable working memory of one fold pass: the read
// buffer the lines are split in and the decoded batch.
type foldScratch struct {
	buf []byte
	evs []obs.Event
}

var scratchPool = sync.Pool{New: func() any {
	return &foldScratch{buf: make([]byte, 64*1024), evs: make([]obs.Event, 0, foldBatchSize)}
}}

// line decodes one line into the batch and folds the batch once it is full.
func (s *foldScratch) line(sf *sessionFold, line []byte) {
	s.evs = sf.appendLine(s.evs, line)
	if len(s.evs) == cap(s.evs) {
		s.flush(sf)
	}
}

// take decodes the line at the start of chunk in place, into the batch,
// and returns how many bytes it took with its newline. It takes a line only
// when the line is one canonical event of some kind (obs.DecodeEvent) and
// its newline follows the object at once, or after one '\r', which JSON
// reads as white space; for any other line it returns 0 and leaves the
// batch as it was, and the line goes the long way.
func (s *foldScratch) take(sf *sessionFold, chunk []byte) int {
	n := len(s.evs)
	ev := &s.evs[:n+1][n]
	k := obs.DecodeEvent(chunk, ev)
	if k > 0 && k < len(chunk) && chunk[k] == '\r' {
		k++
	}
	if k == 0 || k == len(chunk) || chunk[k] != '\n' || ev.Kind == "" {
		return 0
	}
	s.evs = s.evs[:n+1]
	if n+1 == cap(s.evs) {
		s.flush(sf)
	}
	return k + 1
}

// flush folds the batch gathered so far and empties it.
func (s *foldScratch) flush(sf *sessionFold) {
	sf.foldBatch(s.evs)
	s.evs = s.evs[:0]
}

// foldLines reads r (named src in the log) to its end through s.buf and
// hands every newline-ended line to the batch, joined with c where a read
// cut it; what follows the last newline stays in c. A line with nothing
// carried before it is first offered to take, which decodes it where it
// lies; the lines take refuses are split on their newline and decoded
// through s.line. It is the one line splitter:
// FoldReader and the Watcher differ only in what they do with c afterwards,
// and flush when they are done. It returns the newlines and the bytes
// consumed, and r's error unless that is io.EOF.
func (s *foldScratch) foldLines(sf *sessionFold, src string, r io.Reader, c *lineCarry) (lines int, read int64, err error) {
	for err == nil {
		var n int
		n, err = r.Read(s.buf)
		read += int64(n)
		for chunk := s.buf[:n]; len(chunk) > 0; {
			if len(c.partial) == 0 && !c.overflow {
				if k := s.take(sf, chunk); k > 0 {
					lines++
					chunk = chunk[k:]
					continue
				}
			}
			nl := bytes.IndexByte(chunk, '\n')
			line, rest := chunk, []byte(nil)
			if nl >= 0 {
				line, rest = chunk[:nl], chunk[nl+1:]
			}
			switch {
			case c.overflow: // more of a line already dropped
			case len(c.partial)+len(line) > maxLine:
				c.partial, c.overflow = c.partial[:0], true
				sf.a.evBadLines.Inc()
				sf.a.logf("ingest: %s: dropping line longer than %d bytes", src, maxLine)
			case nl < 0 || len(c.partial) > 0:
				c.partial = append(c.partial, line...)
			default:
				s.line(sf, line)
			}
			if nl >= 0 {
				if len(c.partial) > 0 {
					s.line(sf, c.partial)
					c.partial = c.partial[:0]
				}
				c.overflow = false
				lines++
			}
			chunk = rest
		}
	}
	if err == io.EOF {
		err = nil
	}
	return lines, read, err
}

// FoldReader folds a complete JSONL stream (one or more sessions, each led
// by its EvSession header) and returns the number of lines consumed. Lines
// are decoded outside the aggregator's lock and folded foldBatchSize at a
// time, the last batch at the end of the stream. A line longer than 1 MiB is
// dropped and counted (ing_bad_lines); the fold resumes after its newline.
// The error is the reader's.
func (a *Aggregator) FoldReader(r io.Reader) (int, error) {
	sf := a.newSession()
	defer sf.closeSession()
	s := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(s)
	var c lineCarry
	lines, _, err := s.foldLines(sf, "stream", r, &c)
	if len(c.partial) > 0 || c.overflow {
		// The stream's last line has no newline.
		lines++
		s.line(sf, c.partial)
	}
	s.flush(sf)
	return lines, err
}

// CohortRollup is one cohort's exported aggregate.
type CohortRollup struct {
	Sessions  int64               `json:"sessions"`
	Events    int64               `json:"events"`
	QualityDB stats.SketchSummary `json:"quality_db"`
	StallMS   stats.SketchSummary `json:"stall_ms"`
	StartupMS stats.SketchSummary `json:"startup_ms"`
	OutageMS  stats.SketchSummary `json:"outage_ms"`
	ShedBytes stats.SketchSummary `json:"shed_bytes"`
}

// dists lists the rollup's distributions in metrics order.
func (c *CohortRollup) dists() [numMetrics]*stats.SketchSummary {
	return [numMetrics]*stats.SketchSummary{
		mQuality: &c.QualityDB, mStall: &c.StallMS, mStartup: &c.StartupMS,
		mOutage: &c.OutageMS, mShed: &c.ShedBytes,
	}
}

// Rollup is the /rollup document: every cohort's quantile summaries plus
// the accuracy envelope consumers should hold the quantiles to.
type Rollup struct {
	SchemaVersion   int     `json:"schema_version"` // trace schema folded (obs.TraceSchemaVersion)
	GeneratedUnixMS int64   `json:"generated_unix_ms"`
	QualityEnvDB    float64 `json:"quality_envelope_db"` // quantile error bound, dB (sketch bin width)

	Cohorts map[string]CohortRollup `json:"cohorts"`
}

// Rollup exports the current per-cohort aggregates.
func (a *Aggregator) Rollup() Rollup {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := metrics[mQuality]
	out := Rollup{
		SchemaVersion:   obs.TraceSchemaVersion,
		GeneratedUnixMS: time.Now().UnixMilli(),
		QualityEnvDB:    (q.hi - q.lo) / float64(q.bins),
		Cohorts:         make(map[string]CohortRollup, len(a.cohorts)),
	}
	for name, ca := range a.cohorts {
		cr := CohortRollup{Sessions: ca.sessions, Events: ca.events}
		for i, d := range cr.dists() {
			*d = ca.dist[i].Summary()
		}
		out.Cohorts[name] = cr
	}
	return out
}
