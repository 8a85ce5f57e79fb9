// Package bench is the repository's end-to-end benchmark: four closed-loop
// workloads that drive the system from outside through its public functions,
// six end-to-end metrics per workload, and a traced run that attributes time
// to layers. README.md defines every metric and workload and records why.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Workers is the closed-loop concurrency of every workload: the box has two
// cores, so two workers (two client connections) saturate it without
// queueing load-generator work behind itself.
const Workers = 2

// minMeasured is the shortest measured phase a gated run may report; sizing
// runs showed phases under ~15 s spread several times wider run to run.
const minMeasured = 15 * time.Second

// setupReps is how many times the fixtures are built; the first build is
// discarded (cold caches, first page faults) and setup_s is the median of the
// rest.
const setupReps = 6

// Spec selects one run.
type Spec struct {
	Workload string
	Seed     int64
	// Seconds bounds the measured phase by time. Units, when positive, bounds
	// it by a fixed unit count instead (a unit is a session, a population
	// shard or an ingest cycle), so counts repeat exactly.
	Seconds float64
	Units   int64
	// Traced selects the per-layer run: an untraced and a traced phase of a
	// third of the length each, plus pure-CPU replays.
	Traced   bool
	TraceOut string
	// Short allows a measured phase under minMeasured and shrinks the
	// fixtures (tests and smoke runs); a short report is marked as such.
	Short bool
	// TmpDir is where workloads put files (inside the checkout).
	TmpDir string
}

// workload is one of the four load shapes. The harness owns phases, timing
// and accounting; a workload owns its inputs, fixtures, one unit of load and
// its correctness checks.
type workload interface {
	// gen prepares the load generator's inputs from the seed, before any
	// timing. It is not set-up: it is reported as bench.gen_s.
	gen(seed int64, tmp string) error
	// build constructs the program-side fixtures through the un-memoised
	// public constructors. It is timed as setup_s and called setupReps
	// times; the last build is the one put into service. sub receives
	// sub-timings for the per-layer set-up metrics.
	build(sub map[string]time.Duration) error
	// start puts the last-built fixtures into service (listeners,
	// goroutines); stop tears that down and waits for it.
	start() error
	stop() error
	// unit runs unit u of the load on the calling worker and records its
	// ops. A returned error is a failed unit (session error).
	unit(u int64, rec *recorder) error
	// checks are the end-of-run correctness checks.
	checks(tot totals, info map[string]any) []Check
	// layers fills the workload's per-layer metrics in a traced run.
	layers(lc *layerCtx) error
}

// recorder collects one worker's results for one phase; it is never shared.
type recorder struct {
	worker int
	start  time.Time
	ops    []opSample
	units  []unitSample
	failed int64
	tiles  int64
	bytes  int64
	fails  []string
	tr     *tracer
	// handshakes are session-start latencies (dial to manifest decoded) of
	// the wire workloads.
	handshakes []time.Duration
}

// op records one op that started at t0 and ends now.
func (r *recorder) op(t0 time.Time, ok bool) {
	end := time.Now()
	if !ok {
		r.failed++
		return
	}
	r.ops = append(r.ops, opSample{end: end.Sub(r.start), dur: end.Sub(t0)})
}

// note keeps the first few failure reasons for the report.
func (r *recorder) note(format string, args ...any) {
	if len(r.fails) < 5 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// fail counts a failed op and notes why.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// limit ends a phase after a duration or, when units is positive, after a
// fixed number of units.
type limit struct {
	dur   time.Duration
	units int64
}

// phase is the outcome of one warm-up, measured or traced phase.
type phase struct {
	wall    time.Duration
	ops     []opSample // merged, sorted by end
	failed  int64
	units   int64
	tiles   int64
	bytes   int64
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	fails   []string
	tracers []*tracer

	workerUnits [][]unitSample // per worker, in time order
	handshakes  []time.Duration
}

func (p *phase) segments() []float64 { return segmentRates(p.workerUnits) }

// rate is the phase's ops_per_s: the median segment rate.
func (p *phase) rate() float64 { return median(p.segments()) }

func (p *phase) handshakesMS() []float64 {
	out := make([]float64, len(p.handshakes))
	for i, d := range p.handshakes {
		out[i] = toMS(d)
	}
	return out
}

// totals are whole-process counts handed to a workload's checks.
type totals struct {
	units, ops, failed, tiles, bytes int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// maxUnitFailures aborts a phase whose units keep failing, so a broken
// program does not spin for the whole run.
const maxUnitFailures = 20

// runPhase runs the closed loop: Workers goroutines each take the next unit
// index and run it until the limit is reached. nextUnit carries on across
// phases so no phase repeats another's inputs.
func runPhase(wl workload, lim limit, traced bool, nextUnit *atomic.Int64) phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	recs := make([]*recorder, Workers)
	var claimed, ran, unitFails atomic.Int64
	claim := func() bool {
		if lim.units > 0 {
			return claimed.Add(1) <= lim.units
		}
		return time.Since(start) < lim.dur
	}
	var wg sync.WaitGroup
	for w := 0; w < Workers; w++ {
		rec := &recorder{worker: w, start: start, ops: make([]opSample, 0, 1<<14)}
		if traced {
			rec.tr = newTracer(start, w)
		}
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unitFails.Load() < maxUnitFailures && claim() {
				ran.Add(1)
				us := unitSample{start: time.Since(start), ops: -len(rec.ops)}
				if err := wl.unit(nextUnit.Add(1)-1, rec); err != nil {
					rec.fail("unit: %v", err)
					unitFails.Add(1)
				}
				us.end, us.ops = time.Since(start), us.ops+len(rec.ops)
				rec.units = append(rec.units, us)
			}
		}()
	}
	wg.Wait()

	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.units = ran.Load()
	total := 0
	for _, r := range recs {
		total += len(r.ops)
	}
	p.ops = make([]opSample, 0, total) // exact size: it is live when live_heap_mb is read
	for _, r := range recs {
		p.ops = append(p.ops, r.ops...)
		p.failed += r.failed
		p.tiles += r.tiles
		p.bytes += r.bytes
		p.fails = append(p.fails, r.fails...)
		p.tracers = append(p.tracers, r.tr)
		p.workerUnits = append(p.workerUnits, r.units)
		p.handshakes = append(p.handshakes, r.handshakes...)
	}
	sort.Slice(p.ops, func(a, b int) bool { return p.ops[a].end < p.ops[b].end })
	return p
}

// Check is one named correctness check.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Report is the one JSON document a run prints: every metric by name and
// unit, the sample counts behind them, op accounting, and provenance.
type Report struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	Short        bool              `json:"short,omitempty"`
	Commit       string            `json:"commit"`
	GoVersion    string            `json:"go_version"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	NProc        int               `json:"nproc"`
	Workers      int               `json:"workers"`
	MeasuredS    float64           `json:"measured_s"`
	Units        int64             `json:"units"`
	OpsAttempted int64             `json:"ops_attempted"`
	OpsOK        int64             `json:"ops_ok"`
	OpsFailed    int64             `json:"ops_failed"`
	Correct      bool              `json:"correct"`
	Checks       []Check           `json:"checks"`
	Failures     []string          `json:"failures,omitempty"`
	Samples      map[string]int    `json:"samples"`
	Metrics      map[string]Metric `json:"metrics"`
	Info         map[string]any    `json:"info,omitempty"`
}

// layerCtx is what a workload's layers method works from.
type layerCtx struct {
	untraced *phase
	traced   *phase
	lt       layerTimes
	setupSub map[string]time.Duration // median sub-timings of build
	set      func(name string, v float64)
	info     map[string]any
	nextUnit *atomic.Int64
	// phases are all phases run so far; a workload that runs a comparison
	// phase of its own appends it with extra so the totals its checks see
	// still match what the program counted.
	phases []*phase
}

func (lc *layerCtx) extra(p *phase) { lc.phases = append(lc.phases, p) }

func (lc *layerCtx) tilesSoFar() (n int64) {
	for _, p := range lc.phases {
		n += p.tiles
	}
	return n
}

func (lc *layerCtx) opsSoFar() (n int64) {
	for _, p := range lc.phases {
		n += int64(len(p.ops))
	}
	return n
}

func newWorkload(name string, short bool) (workload, error) {
	switch name {
	case "pop_sweep":
		return newPopSweep(short), nil
	case "fleet_bulk":
		return newFleetBulk(short), nil
	case "wire_refine":
		return newWireRefine(short), nil
	case "ingest_mixed":
		return newIngestMixed(short), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Run executes one workload run and returns its report. The report is
// returned even when incorrect, so the caller can show why; callers must
// refuse to publish metrics from a report whose Correct is false.
func Run(spec Spec) (*Report, error) {
	runtime.GOMAXPROCS(Workers)
	wl, err := newWorkload(spec.Workload, spec.Short)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(spec.TmpDir, "dfbench-")
	if err != nil {
		return nil, fmt.Errorf("tmp dir: %w", err)
	}
	defer os.RemoveAll(tmp)

	rep := &Report{
		Workload: spec.Workload, Seed: spec.Seed, Traced: spec.Traced, Short: spec.Short,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Workers: Workers,
		Samples: map[string]int{}, Metrics: map[string]Metric{}, Info: map[string]any{},
	}

	t0 := time.Now()
	if err := wl.gen(spec.Seed, tmp); err != nil {
		return nil, fmt.Errorf("%s: gen: %w", spec.Workload, err)
	}
	genS := time.Since(t0).Seconds()

	// Set-up: build the fixtures setupReps times, discard the first.
	reps := setupReps
	if spec.Short {
		reps = 2
	}
	var setups []float64
	subs := map[string][]float64{}
	for r := 0; r < reps; r++ {
		sub := map[string]time.Duration{}
		t0 := time.Now()
		if err := wl.build(sub); err != nil {
			return nil, fmt.Errorf("%s: build: %w", spec.Workload, err)
		}
		d := time.Since(t0)
		if r == 0 {
			continue
		}
		setups = append(setups, d.Seconds())
		for k, v := range sub {
			subs[k] = append(subs[k], v.Seconds())
		}
	}
	setupSub := map[string]time.Duration{}
	for k, v := range subs {
		setupSub[k] = time.Duration(median(v) * float64(time.Second))
	}
	rep.Samples["setup_s"] = len(setups)

	if err := wl.start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", spec.Workload, err)
	}
	defer wl.stop() // for the error paths; stop is idempotent and the success path checks it below

	// Phase lengths. The traced run splits its time between an untraced and
	// a traced phase so the overhead of tracing is measured in one process.
	lim := limit{dur: time.Duration(spec.Seconds * float64(time.Second)), units: spec.Units}
	if spec.Traced {
		lim = limit{dur: lim.dur / 3, units: (lim.units + 2) / 3}
	}
	warm := limit{dur: lim.dur / 10, units: (lim.units + 9) / 10}

	var nextUnit atomic.Int64
	wp := runPhase(wl, warm, false, &nextUnit)
	runtime.GC()
	mp := runPhase(wl, lim, false, &nextUnit)

	// Live heap: two forced collections with the fixtures still referenced.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(wl)

	phases := []*phase{&wp, &mp}
	var tp *phase
	if spec.Traced {
		p := runPhase(wl, lim, true, &nextUnit)
		tp = &p
		phases = append(phases, tp)
	}

	ops := int64(len(mp.ops))
	rep.MeasuredS = mp.wall.Seconds()
	rep.Units = mp.units
	rep.Samples["op_ms_p50"] = int(ops)
	rep.Samples["ops_per_s"] = len(mp.segments())

	set := func(name string, v float64) {
		rep.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
	}
	durs := durationsMS(mp.ops)
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	rep.Info["gc_cycles"] = mp.gcs
	rep.Info["segment_ops_per_s"] = mp.segments()
	rep.Info["op_ms_percentiles"] = map[string]float64{
		"p10": percentile(durs, 10), "p25": percentile(durs, 25), "p50": percentile(durs, 50),
		"p75": percentile(durs, 75), "p90": percentile(durs, 90),
	}
	set("setup_s", median(setups))
	set("ops_per_s", mp.rate())
	set("op_ms_p50", percentile(durs, 50))
	set("cpu_ms_per_op", perOp(toMS(mp.cpu)))
	set("alloc_kb_per_op", perOp(float64(mp.alloc)/1024))
	set("live_heap_mb", liveHeapMB)

	if spec.Traced {
		for _, d := range PerLayer {
			set(d.Name, 0)
		}
		tailP := tailPercentile(len(durs))
		rep.Info["op_tail_percentile"] = tailP
		set("bench.gen_s", genS)
		set("bench.segment_cv", coeffVar(mp.segments()))
		set("bench.op_ms_p99", percentile(durs, tailP))
		set("bench.op_samples", float64(ops))
		set("bench.gc_cycles", float64(mp.gcs))
		set("bench.gc_pause_ms", toMS(mp.gcPause))
		if u := mp.rate(); u > 0 {
			set("bench.trace_overhead_share", 1-tp.rate()/u)
		}
		lc := &layerCtx{
			untraced: &mp, traced: tp, lt: attribute(tp.tracers), setupSub: setupSub,
			set: set, info: rep.Info, nextUnit: &nextUnit, phases: phases,
		}
		if err := wl.layers(lc); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", spec.Workload, err)
		}
		phases = lc.phases
		set("bench.peak_rss_mb", peakRSSMB())
		rep.Checks = append(rep.Checks, traceSumCheck(lc.lt, tp, rep.Info))
		if spec.TraceOut != "" {
			if err := writeSpans(spec.TraceOut, tp.tracers); err != nil {
				return nil, err
			}
		}
	}

	if err := wl.stop(); err != nil {
		return nil, fmt.Errorf("%s: stop: %w", spec.Workload, err)
	}

	tot := totals{}
	for _, p := range phases {
		tot.units += p.units
		tot.ops += int64(len(p.ops))
		tot.failed += p.failed
		tot.tiles += p.tiles
		tot.bytes += p.bytes
		rep.Failures = append(rep.Failures, p.fails...)
	}
	rep.OpsOK = tot.ops
	rep.OpsFailed = tot.failed
	rep.OpsAttempted = tot.ops + tot.failed
	rep.Checks = append(rep.Checks, wl.checks(tot, rep.Info)...)
	rep.Checks = append(rep.Checks,
		Check{Name: "ops_failed_zero", OK: tot.failed == 0, Detail: fmt.Sprintf("%d failed of %d", tot.failed, rep.OpsAttempted)},
		Check{Name: "ops_measured", OK: ops > 0, Detail: fmt.Sprintf("%d ops in the measured phase", ops)})
	if !spec.Short && !spec.Traced {
		rep.Checks = append(rep.Checks, Check{
			Name: "measured_phase_long_enough", OK: mp.wall >= minMeasured,
			Detail: fmt.Sprintf("%.1f s measured, %v required", mp.wall.Seconds(), minMeasured),
		})
	}
	rep.Correct = true
	for _, c := range rep.Checks {
		if !c.OK {
			rep.Correct = false
		}
	}
	return rep, nil
}

// traceSumCheck verifies the attribution: layer self times plus the
// unattributed remainder (worker time outside any root span) equal the traced
// total, workers × wall, within 5 %, and none of them is negative by more than
// 1 % of the total — a span that outlives its parent, or root spans that
// overlap on one worker, would show as exactly that.
func traceSumCheck(lt layerTimes, tp *phase, info map[string]any) Check {
	total := time.Duration(Workers) * tp.wall
	slack := -total / 100
	var self time.Duration
	layers := map[string]float64{}
	negative := ""
	for name, d := range lt.self {
		self += d
		layers[name] = toMS(d)
		if d < slack {
			negative = name
		}
	}
	unattributed := total - lt.roots
	if unattributed < slack {
		negative = "unattributed"
	}
	layers["unattributed"] = toMS(unattributed)
	info["layer_self_ms"] = layers
	info["traced_total_ms"] = toMS(total)
	off := float64(self+unattributed-total) / float64(total)
	if off < 0 {
		off = -off
	}
	c := Check{
		Name: "trace_self_times_sum_to_total", OK: total > 0 && off <= 0.05 && negative == "",
		Detail: fmt.Sprintf("layers %.1f ms + unattributed %.1f ms vs total %.1f ms", toMS(self), toMS(unattributed), toMS(total)),
	}
	if negative != "" {
		c.Detail += "; negative self time in " + negative
	}
	return c
}

func unitOf(name string) string {
	for _, d := range EndToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range PerLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
