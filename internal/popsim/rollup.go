package popsim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/stats"
)

// Metric names of the per-(scheme, cohort) distributions a rollup tracks.
const (
	metricQualityDB  = "quality_db"  // per-frame viewport quality, dB
	metricStallMS    = "stall_ms"    // per-session rebuffering total, ms
	metricStartupMS  = "startup_ms"  // per-session startup delay, ms
	metricBlankRatio = "blank_ratio" // per-session mean blank-area fraction
)

// Indices into metrics and cell.dist.
const (
	mQuality = iota
	mStall
	mStartup
	mBlank
	numMetrics
)

// metrics is the per-cell metric table: each distribution's snapshot name,
// sketch range and bin count. The quality envelope matches the ingest
// tier's (0.25 dB); values outside a range clamp into the edge bins
// (stats.Sketch). Every walk over a cell's distributions reads this table;
// CohortSummary.dists maps its rows to the exported fields.
var metrics = [numMetrics]struct {
	name   string
	lo, hi float64
	bins   int
}{
	mQuality: {metricQualityDB, 0, 80, 320},
	mStall:   {metricStallMS, 0, 60_000, 300},
	mStartup: {metricStartupMS, 0, 30_000, 300},
	mBlank:   {metricBlankRatio, 0, 1, 200},
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
func (r *Rollup) Sessions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions()
}

// sessions is Sessions for a caller that holds r.mu.
func (r *Rollup) sessions() (n int64) {
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

// snapshotVersion is the shard-snapshot schema version ("v" on every
// line). It follows the same versioning policy as the obs session-trace
// schema (docs/OBSERVABILITY.md): readers reject any other version.
const snapshotVersion = 1

// snapshotHeader is the first line of a shard snapshot.
type snapshotHeader struct {
	V        int    `json:"v"`
	Kind     string `json:"kind"` // "popsim"
	Shard    int    `json:"shard"`
	Shards   int    `json:"shards"`
	Sessions int64  `json:"sessions"`
}

// snapshotLine is one (scheme, cohort, metric) sketch of the snapshot
// body, plus the per-cell session count on "cell" lines.
type snapshotLine struct {
	V        int      `json:"v"`
	Kind     string   `json:"kind"` // "cell" or "dist"
	Scheme   string   `json:"scheme"`
	Cohort   string   `json:"cohort"`
	Sessions int64    `json:"sessions,omitempty"` // kind "cell"
	Metric   string   `json:"metric,omitempty"`   // kind "dist"
	Lo       float64  `json:"lo"`
	Hi       float64  `json:"hi"`
	N        uint64   `json:"n"`
	SumMicro int64    `json:"sum_micro"`
	Bins     []uint64 `json:"bins"`
}

// WriteSnapshot serializes the rollup as the shard-report JSONL stream:
// one header line, then one "cell" line and one "dist" line per metric for
// each (scheme, cohort), in sorted order. Only integer state crosses the
// boundary, so a merged coordinator rollup equals the single-process one.
func (r *Rollup) WriteSnapshot(w io.Writer, shard, shards int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotHeader{
		V: snapshotVersion, Kind: "popsim", Shard: shard, Shards: shards, Sessions: r.sessions(),
	}); err != nil {
		return err
	}
	for _, scheme := range sortedKeys(r.schemes) {
		cohorts := r.schemes[scheme]
		for _, cohort := range sortedKeys(cohorts) {
			cd := cohorts[cohort]
			if err := enc.Encode(snapshotLine{
				V: snapshotVersion, Kind: "cell", Scheme: scheme, Cohort: cohort, Sessions: cd.sessions,
			}); err != nil {
				return err
			}
			for i, d := range cd.dist {
				if err := enc.Encode(snapshotLine{
					V: snapshotVersion, Kind: "dist", Scheme: scheme, Cohort: cohort,
					Metric: metrics[i].name, Lo: d.Lo, Hi: d.Hi, N: d.N, SumMicro: d.Sum, Bins: d.Bins,
				}); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MergeSnapshot folds one shard-report JSONL stream into the rollup. A
// shard report is outside input: every line's schema version, each
// sketch's geometry against the metric table and its n against the sum of
// its bins are checked, and a (scheme, cohort, metric) may appear once.
// The stream is staged and merged whole, so on error r is unchanged.
func (r *Rollup) MergeSnapshot(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	staged := NewRollup(Geometry{})
	seen := map[[3]string]bool{}
	sawHeader := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sl snapshotLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return fmt.Errorf("popsim: snapshot line: %w", err)
		}
		if sl.V != snapshotVersion {
			return fmt.Errorf("popsim: snapshot schema v%d, want v%d", sl.V, snapshotVersion)
		}
		if sl.Kind == "popsim" {
			sawHeader = true
			continue
		}
		key := [3]string{sl.Scheme, sl.Cohort, sl.Metric}
		if seen[key] {
			return fmt.Errorf("popsim: snapshot repeats %s/%s/%s", sl.Scheme, sl.Cohort, sl.Metric)
		}
		seen[key] = true
		cd := staged.cell(sl.Scheme, sl.Cohort)
		switch sl.Kind {
		case "cell":
			cd.sessions = sl.Sessions
		case "dist":
			if err := mergeLine(cd, &sl); err != nil {
				return fmt.Errorf("popsim: snapshot %s/%s/%s: %w", sl.Scheme, sl.Cohort, sl.Metric, err)
			}
		default:
			return fmt.Errorf("popsim: snapshot line kind %q unknown", sl.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawHeader {
		return fmt.Errorf("popsim: snapshot stream has no header line")
	}
	return r.Merge(staged)
}

// mergeLine folds one "dist" line into the staged cell's sketch of that
// metric, refusing a count that its bins do not add up to.
func mergeLine(cd *cell, sl *snapshotLine) error {
	for i, m := range metrics {
		if m.name != sl.Metric {
			continue
		}
		var n uint64
		for _, c := range sl.Bins {
			n += c
			if n < c {
				return fmt.Errorf("bin counts overflow")
			}
		}
		if n != sl.N {
			return fmt.Errorf("n = %d but the bins hold %d", sl.N, n)
		}
		return cd.dist[i].Merge(&stats.Sketch{Lo: sl.Lo, Hi: sl.Hi, Bins: sl.Bins, N: sl.N, Sum: sl.SumMicro})
	}
	return fmt.Errorf("unknown metric")
}
