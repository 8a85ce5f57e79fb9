package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/retry"
	"dragonfly/internal/stats"
)

// ingest.feedback.poll fails one rollup fetch attempt on the server's
// side of the QoE loop. The loop is fail-static by design: a failed poll
// keeps the previous scales, and sustained failure ages them past MaxAge
// into the neutral fallback — never into stale steering.
var siteFeedbackPoll = chaos.NewSite("ingest.feedback.poll")

// FeedbackConfig tunes the rollup-driven shed-scale controller.
type FeedbackConfig struct {
	// URL is the ingest service's /rollup endpoint.
	URL string

	// Interval between polls (default 2 s). MaxAge is how old the last
	// successful rollup may be before CohortScale falls back to the
	// neutral 1.0 (default 3×Interval) — the stale-data safety: a dead or
	// partitioned ingest tier must never keep steering shedding.
	Interval time.Duration
	MaxAge   time.Duration

	// TargetDB is the per-cohort viewport-quality budget: cohorts whose
	// rollup median sits above it are over budget and shed harder
	// (scale < 1), cohorts below it are relaxed (scale > 1).
	TargetDB float64

	// Seed feeds the jitter RNG of the poll's retries for deterministic
	// replays (see pollAttempts).
	Seed int64

	// Obs, when non-nil, receives the srv_qoe_* metrics — this registry
	// is conventionally the server's own, so scale decisions land next to
	// the srv_shed_* counters they modulate.
	Obs *obs.Registry
}

// pollAttempts bounds the tries inside one Poll cycle: transient fetch
// failures retry after Interval/8 with ±50% jitter from Seed, under a
// whole-cycle deadline of one Interval, so a slow tier can never make
// polls overlap.
const pollAttempts = 3

// The controller's shape. A median within deadbandDB of the target maps to
// the neutral scale: the rollup quantile envelope is 0.25 dB, so the
// deadband absorbs sketch error before acting. Beyond it the scale moves
// gainPerDB per dB, clamped to [minScale, maxScale].
const (
	deadbandDB = 0.5
	gainPerDB  = 0.15
	minScale   = 0.25
	maxScale   = 2.0
)

// httpClient is the poller's and the pusher's client: its timeout keeps one
// hung attempt from eating a whole poll cycle or push deadline.
var httpClient = &http.Client{Timeout: 2 * time.Second}

func (c *FeedbackConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 3 * c.Interval
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Feedback polls an ingest /rollup endpoint and turns each cohort's median
// viewport quality into a shed-budget scale. It implements the server's
// QoESource: the tile server multiplies a session's queue budgets by
// CohortScale(cohort) when deciding how hard to shed.
//
// Scales are recomputed on every successful poll and frozen in between;
// when the last success is older than MaxAge every cohort reads neutral.
type Feedback struct {
	cfg FeedbackConfig

	mu      sync.RWMutex
	scales  map[string]float64
	fetched time.Time
	family  map[string]*obs.Gauge // srv_qoe_scale_<label>, by sanitized label

	rngMu sync.Mutex
	rng   *rand.Rand

	cPolls      *obs.Counter // srv_qoe_polls
	cPollErrs   *obs.Counter // srv_qoe_poll_errs
	cRetries    *obs.Counter // srv_qoe_poll_retries: extra attempts within a cycle
	cRejRollups *obs.Counter // srv_qoe_rejected_rollups: whole documents refused
	cRejCohorts *obs.Counter // srv_qoe_rejected_cohorts: cohort entries refused
	gStale      *obs.Gauge   // srv_qoe_stale: 1 when CohortScale is in fallback
	gCohorts    *obs.Gauge   // srv_qoe_cohorts: cohorts with a live scale
}

// NewFeedback creates a poller; call Run (or Poll from a test) to feed it.
func NewFeedback(cfg FeedbackConfig) *Feedback {
	cfg.fillDefaults()
	r := cfg.Obs
	return &Feedback{
		cfg:         cfg,
		scales:      map[string]float64{},
		family:      map[string]*obs.Gauge{},
		rng:         rand.New(rand.NewSource(cfg.Seed ^ 0x7f4a7c15)),
		cPolls:      r.Counter("srv_qoe_polls"),
		cPollErrs:   r.Counter("srv_qoe_poll_errs"),
		cRetries:    r.Counter("srv_qoe_poll_retries"),
		cRejRollups: r.Counter("srv_qoe_rejected_rollups"),
		cRejCohorts: r.Counter("srv_qoe_rejected_cohorts"),
		gStale:      r.Gauge("srv_qoe_stale"),
		gCohorts:    r.Gauge("srv_qoe_cohorts"),
	}
}

// Run polls until ctx is done. The first poll happens immediately.
func (f *Feedback) Run(ctx context.Context) {
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	_ = f.Poll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = f.Poll(ctx)
		}
	}
}

// Poll fetches the rollup and recomputes every cohort's scale, retrying
// transient fetch failures up to pollAttempts inside a whole-cycle deadline
// of one Interval. A cycle that exhausts its budget is fail-static: the
// previous scales stand, and sustained failure ages them past MaxAge into
// the neutral fallback.
func (f *Feedback) Poll(ctx context.Context) error {
	f.cPolls.Inc()
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Interval)
	defer cancel()
	return retry.Do(ctx, pollAttempts, func(int) time.Duration {
		f.cRetries.Inc()
		return f.retryDelay()
	}, func(int) error { return f.pollOnce(ctx) })
}

// retryDelay is Interval/8 with ±50% deterministic jitter.
func (f *Feedback) retryDelay() time.Duration {
	f.rngMu.Lock()
	j := f.rng.Float64()
	f.rngMu.Unlock()
	return retry.Jitter(f.cfg.Interval/8, j)
}

// pollOnce performs one fetch + apply.
func (f *Feedback) pollOnce(ctx context.Context) error {
	if err := siteFeedbackPoll.Err(); err != nil {
		f.cPollErrs.Inc()
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.URL, nil)
	if err != nil {
		f.cPollErrs.Inc()
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		f.cPollErrs.Inc()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.cPollErrs.Inc()
		return fmt.Errorf("ingest: rollup %s: %s", f.cfg.URL, resp.Status)
	}
	doc := getDoc()
	defer docPool.Put(doc)
	if _, err := doc.ReadFrom(io.LimitReader(resp.Body, maxRollupBytes+1)); err != nil {
		f.cPollErrs.Inc()
		return err
	}
	ru, err := decodeRollup(doc.Bytes())
	if err != nil {
		f.cPollErrs.Inc()
		return fmt.Errorf("ingest: rollup %s: %w", f.cfg.URL, err)
	}
	if err := f.apply(ru); err != nil {
		f.cPollErrs.Inc()
		return err
	}
	return nil
}

// maxFeedbackCohorts and maxCohortNameLen bound the cohorts a rollup holds
// and their names, on both sides: the fold keeps within them (an
// aggregator never builds sketches for an unbounded set of labels), and
// Feedback refuses what exceeds them in a rollup from elsewhere, so the
// server multiplies budgets by at most this many live scales. The
// srv_qoe_scale_* gauge family holds at most this many names over a
// Feedback's lifetime (publish).
const (
	maxFeedbackCohorts = 1024
	maxCohortNameLen   = 128
)

// maxRollupBytes bounds a /rollup body the poll reads. The largest document
// a tier of ours writes, maxFeedbackCohorts cohorts under maxCohortNameLen
// names with every number at its longest spelling, is 2.4 MiB
// (TestMaxRollupFitsLargestRollup); a body past the bound is refused before
// it is decoded, so a broken or hostile endpoint can neither make the server
// hold an unbounded document nor leave a pooled buffer that large.
const maxRollupBytes = 4 << 20

// decodeRollup is the poll's decoder of a /rollup body: one JSON document of
// at most maxRollupBytes, with nothing but white space after it.
func decodeRollup(data []byte) (Rollup, error) {
	var ru Rollup
	if len(data) > maxRollupBytes {
		return ru, fmt.Errorf("body over %d bytes", maxRollupBytes)
	}
	err := json.Unmarshal(data, &ru)
	return ru, err
}

// apply validates an already-fetched rollup and recomputes scales from it
// (the poll path and in-process tests share it). Validation is the wall
// between telemetry and steering: a rollup from a different schema version
// is refused whole (srv_qoe_rejected_rollups), and any cohort carrying a
// non-finite or negative quality quantile, a negative session count, or an
// unusable name is skipped (srv_qoe_rejected_cohorts) so a poisoned
// document degrades to neutral instead of pinning shed budgets at a clamp.
// SchemaVersion 0 is accepted for in-process rollups that never crossed a
// serialization boundary.
func (f *Feedback) apply(ru Rollup) error {
	if ru.SchemaVersion != 0 && ru.SchemaVersion != obs.TraceSchemaVersion {
		f.cRejRollups.Inc()
		return fmt.Errorf("ingest: rollup schema version %d (want %d): refusing to steer",
			ru.SchemaVersion, obs.TraceSchemaVersion)
	}
	names := make([]string, 0, len(ru.Cohorts))
	for name := range ru.Cohorts {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > maxFeedbackCohorts {
		// Deterministic truncation (sorted order), counted as rejects.
		f.cRejCohorts.Add(int64(len(names) - maxFeedbackCohorts))
		names = names[:maxFeedbackCohorts]
	}
	scales := make(map[string]float64, len(names))
	for _, name := range names {
		cr := ru.Cohorts[name]
		if name == "" || len(name) > maxCohortNameLen || cr.Sessions < 0 || !finiteQuality(cr.QualityDB) {
			f.cRejCohorts.Inc()
			continue
		}
		if cr.Sessions < 1 || cr.QualityDB.Count == 0 {
			continue
		}
		scales[name] = f.scaleFor(cr.QualityDB.P50)
	}
	f.mu.Lock()
	f.scales = scales
	f.fetched = time.Now()
	f.publish(names, scales)
	f.mu.Unlock()
	f.gCohorts.Set(float64(len(scales)))
	return nil
}

// publish sets the srv_qoe_scale_<cohort> family to scales, taking the
// cohorts in names' order, and every other gauge of the family to the
// neutral 1, which is what CohortScale reads for a cohort the latest rollup
// lacks. A cohort gets a gauge only while the family holds fewer than
// maxFeedbackCohorts: the registry never drops a gauge, so the family is
// bounded over the Feedback's lifetime, not per rollup. The caller holds
// f.mu.
func (f *Feedback) publish(names []string, scales map[string]float64) {
	next := make(map[string]float64, len(f.family))
	for label := range f.family {
		next[label] = 1
	}
	for _, name := range names {
		s, ok := scales[name]
		if !ok {
			continue
		}
		label := sanitizeMetricLabel(name)
		if f.family[label] == nil {
			if len(f.family) >= maxFeedbackCohorts {
				continue
			}
			f.family[label] = f.cfg.Obs.Gauge("srv_qoe_scale_" + label)
		}
		next[label] = s
	}
	for label, v := range next {
		f.family[label].Set(v)
	}
}

// finiteQuality reports whether a quality distribution is usable for
// steering: every field finite and non-negative. The quantiles are
// dB-vs-reference values that are non-negative by construction on the fold
// side; NaN, ±Inf, or a negative here means the document was corrupted or
// forged, and acting on it would clamp the cohort's scale to an extreme.
func finiteQuality(d stats.SketchSummary) bool {
	for _, v := range [...]float64{d.Mean, d.P10, d.P25, d.P50, d.P90, d.P99} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return true
}

// scaleFor maps a cohort median quality to a shed-budget scale: 1 inside
// the deadband, shrinking linearly as the cohort runs over its quality
// budget, growing as it runs under, clamped to [minScale, maxScale].
func (f *Feedback) scaleFor(p50 float64) float64 {
	delta := p50 - f.cfg.TargetDB
	switch {
	case delta > deadbandDB:
		delta -= deadbandDB
	case delta < -deadbandDB:
		delta += deadbandDB
	default:
		return 1
	}
	return min(max(1-gainPerDB*delta, minScale), maxScale)
}

// CohortScale returns the shed-budget scale for a cohort: <1 sheds harder,
// >1 relaxes, exactly 1 when the cohort is unknown, inside its budget
// deadband, or the rollup data is older than MaxAge (stale-safe).
func (f *Feedback) CohortScale(cohort string) float64 {
	f.mu.RLock()
	s, ok := f.scales[cohort]
	age := time.Since(f.fetched)
	f.mu.RUnlock()
	if age > f.cfg.MaxAge {
		f.gStale.Set(1)
		return 1
	}
	f.gStale.Set(0)
	if !ok {
		return 1
	}
	return s
}

// sanitizeMetricLabel maps an arbitrary cohort string onto the metric-name
// alphabet [a-z0-9_] so it can suffix the srv_qoe_scale_ gauge family
// ("low:belgian" → "low_belgian").
func sanitizeMetricLabel(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out[i] = c
		case c >= 'A' && c <= 'Z':
			out[i] = c + ('a' - 'A')
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
