package popsim

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/stats"
)

// Indices into metrics and cell.dist: the per-(scheme, cohort)
// distributions a rollup tracks.
const (
	mQuality = iota // per-frame viewport quality, dB
	mStall          // per-session rebuffering total, ms
	mStartup        // per-session startup delay, ms
	mBlank          // per-session mean blank-area fraction
	numMetrics
)

// metrics is the per-cell metric table: each distribution's sketch range
// and bin count. The quality envelope matches the ingest
// tier's (0.25 dB); values outside a range clamp into the edge bins
// (stats.Sketch). Every walk over a cell's distributions reads this table;
// CohortSummary.dists maps its rows to the exported fields.
var metrics = [numMetrics]struct {
	lo, hi float64
	bins   int
}{
	mQuality: {0, 80, 320},
	mStall:   {0, 60_000, 300},
	mStartup: {0, 30_000, 300},
	mBlank:   {0, 1, 200},
}

// Geometry and DefaultGeometry are what the frozen bench/popsweep.go still
// names: the quality row of the metric table, and an argument NewRollup
// ignores. They go when a benchmark PR updates that file (ROADMAP 4(g)).
type Geometry struct {
	QualityLoDB, QualityHiDB float64
	QualityBins              int
}

// DefaultGeometry returns the quality sketch's range and bin count.
func DefaultGeometry() Geometry {
	q := metrics[mQuality]
	return Geometry{QualityLoDB: q.lo, QualityHiDB: q.hi, QualityBins: q.bins}
}

// cell is the fold state of one (scheme, cohort): a session count and one
// sketch per row of metrics. Sketch state is integral (stats.Sketch), so
// folds and merges commute exactly — the foundation of the engine's
// determinism contract (identical rollups for any worker count or shard
// layout).
type cell struct {
	sessions int64
	dist     [numMetrics]*stats.Sketch
}

// Rollup is the streamed aggregate of a population sweep: per-(scheme,
// cohort) distributions of the paper's QoE quantities. Memory is
// O(schemes × cohorts × bins) and never grows with the session count.
// All methods are safe for concurrent use.
type Rollup struct {
	mu      sync.Mutex
	schemes map[string]map[string]*cell // scheme -> cohort -> cell
}

// NewRollup creates an empty rollup.
func NewRollup(Geometry) *Rollup {
	return &Rollup{schemes: map[string]map[string]*cell{}}
}

// cell returns the (scheme, cohort) fold state, creating it on first use.
// Caller holds r.mu.
func (r *Rollup) cell(scheme, cohort string) *cell {
	cohorts := r.schemes[scheme]
	if cohorts == nil {
		cohorts = map[string]*cell{}
		r.schemes[scheme] = cohorts
	}
	cd := cohorts[cohort]
	if cd == nil {
		cd = &cell{}
		for i, m := range metrics {
			cd.dist[i] = stats.NewSketch(m.lo, m.hi, m.bins)
		}
		cohorts[cohort] = cd
	}
	return cd
}

// Fold streams one finished session into the rollup: every rendered
// frame's viewport quality plus the session's stall total, startup delay
// and mean blank ratio. The metrics are not retained.
func (r *Rollup) Fold(scheme, cohort string, m *player.Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cd := r.cell(scheme, cohort)
	cd.sessions++
	for _, v := range m.FrameScore {
		cd.dist[mQuality].Add(v)
	}
	cd.dist[mStall].Add(float64(m.RebufferDuration) / float64(time.Millisecond))
	cd.dist[mStartup].Add(float64(m.StartupDelay) / float64(time.Millisecond))
	cd.dist[mBlank].Add(m.MeanBlankArea())
}

// Sessions returns the total folded session count.
func (r *Rollup) Sessions() (n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cohorts := range r.schemes {
		for _, cd := range cohorts {
			n += cd.sessions
		}
	}
	return n
}

// Merge folds other into r. Geometries must match cell by cell; cells
// missing from r are created. Merging commutes with folding, so shard
// order does not matter.
func (r *Rollup) Merge(other *Rollup) error {
	if other == nil {
		return nil
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for scheme, cohorts := range other.schemes {
		for cohort, ocd := range cohorts {
			cd := r.cell(scheme, cohort)
			cd.sessions += ocd.sessions
			for i, d := range cd.dist {
				if err := d.Merge(ocd.dist[i]); err != nil {
					return fmt.Errorf("popsim: merge %s/%s: %w", scheme, cohort, err)
				}
			}
		}
	}
	return nil
}

// CohortSummary is one (scheme, cohort) cell's exported aggregate.
type CohortSummary struct {
	Sessions   int64               `json:"sessions"`
	QualityDB  stats.SketchSummary `json:"quality_db"`
	StallMS    stats.SketchSummary `json:"stall_ms"`
	StartupMS  stats.SketchSummary `json:"startup_ms"`
	BlankRatio stats.SketchSummary `json:"blank_ratio"`
}

// dists lists the summary's distributions in metrics order.
func (c *CohortSummary) dists() [numMetrics]*stats.SketchSummary {
	return [numMetrics]*stats.SketchSummary{
		mQuality: &c.QualityDB, mStall: &c.StallMS, mStartup: &c.StartupMS, mBlank: &c.BlankRatio,
	}
}

// Summary is the exported rollup document. Every number is computed from
// the rollup's integer state, so two deterministically equal rollups
// marshal to byte-identical JSON (map keys sort on encoding).
type Summary struct {
	Sessions     int64                               `json:"sessions"`
	QualityEnvDB float64                             `json:"quality_envelope_db"`
	Schemes      map[string]map[string]CohortSummary `json:"schemes"`
}

// Summary exports the rollup's per-(scheme, cohort) quantile summaries.
func (r *Rollup) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := metrics[mQuality]
	out := Summary{
		QualityEnvDB: (q.hi - q.lo) / float64(q.bins),
		Schemes:      make(map[string]map[string]CohortSummary, len(r.schemes)),
	}
	for scheme, cohorts := range r.schemes {
		cs := make(map[string]CohortSummary, len(cohorts))
		for cohort, cd := range cohorts {
			out.Sessions += cd.sessions
			sum := CohortSummary{Sessions: cd.sessions}
			for i, d := range sum.dists() {
				*d = cd.dist[i].Summary()
			}
			cs[cohort] = sum
		}
		out.Schemes[scheme] = cs
	}
	return out
}

// SummaryJSON renders the summary as indented JSON. Equal rollups render
// byte-identically (integer state, sorted map keys).
func (r *Rollup) SummaryJSON() ([]byte, error) {
	return json.MarshalIndent(r.Summary(), "", "  ")
}
