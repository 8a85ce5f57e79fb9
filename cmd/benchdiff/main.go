// Command benchdiff manages the repository's benchmark baseline: it parses
// `go test -bench` text output into a committed JSON baseline and compares
// fresh runs against it, failing when a benchmark's ns/op or B/op grows by
// more than a configurable threshold, when a baseline benchmark is missing,
// or when its allocs/op leaves the baseline's band: above it (an
// allocation-free benchmark that allocates at all), or so far below it that
// the baseline is stale. -warn reports the timing, B/op and missing-benchmark
// failures without failing; allocation counts repeat where timings do not,
// so it never excuses one. -trajectory prints the committed snapshots side
// by side.
//
// Usage:
//
//	benchdiff -emit raw.txt -o BENCH_baseline.json        # (re)generate the baseline
//	benchdiff -baseline BENCH_baseline.json -new raw.txt  # gate: exit 1 on regression
//	benchdiff -baseline ... -new ... -threshold 2 -warn   # report only, always exit 0
//	benchdiff -trajectory .                               # allocs/op and ns/op per BENCH_pr<N>.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark's parsed metrics. Mem records that the run
// reported B/op and allocs/op (-benchmem or b.ReportAllocs): without it a
// zero cannot be told from "not measured".
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	Mem         bool    `json:"mem,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed benchmark snapshot.
type Baseline struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// parseBench extracts benchmark results from `go test -bench` text output.
// Lines look like:
//
//	BenchmarkFig9MainComparison-8   1   123456789 ns/op   4567 B/op   12 allocs/op
//
// The -N suffix is the GOMAXPROCS of the run, not part of the benchmark's
// identity, so it is stripped.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		seenNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seenNs = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
				res.Mem = true
			}
		}
		if seenNs {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// The allocs/op band. A fresh run fails above baseline × allocGrowth +
// allocSlack, and a baseline is stale above fresh × allocStale + allocSlack,
// so a change that saves allocations re-takes the baseline with it. From the
// committed snapshots BENCH_pr14 … BENCH_pr40, between adjacent ones where
// no change meant to move the count: micro-benchmarks repeat it exactly;
// the simulated macros that allocate ≥ 100 times per op moved it at most
// 3.8 % (ManyConnStream, BENCH_pr23 to BENCH_pr27); and the tiny macros run
// once swing by 3 allocations (Fig18QualitySensitivity 16–19,
// Table1SchemeMatrix and Table2VariantMatrix 2–5, Table3VideoBitrates
// 48–50). An allocation-free baseline admits no allocation at all.
const (
	allocGrowth = 1.05
	allocStale  = 1.25
	allocSlack  = 3
)

// findings is compare's verdict, by benchmark name.
type findings struct {
	regressions []string // ns/op or B/op beyond the threshold
	missing     []string // in the baseline, absent from the fresh run
	allocating  []string // allocs/op above the baseline's band
	stale       []string // allocs/op so far below the baseline that it is stale
}

// compare reports every baseline benchmark against the fresh run: those
// whose ns/op or B/op grew by more than threshold (a ratio: 1.5 = 50% more),
// those present in the baseline but absent from the fresh run, and those
// whose allocs/op left the baseline's band (allocGrowth, allocStale). A
// missing benchmark is a gate failure in its own right — a silently dropped
// benchmark would otherwise let its regression hide. Memory is compared
// only where both runs reported it, and B/op only where the baseline
// allocates at least once per op: below that, B/op is a few one-off
// allocations (a buffer growing to size) spread over however many
// iterations ran, which is not a per-op cost.
func compare(base, fresh map[string]Result, threshold float64, w io.Writer) findings {
	var fs findings
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-40s (in baseline, not in this run)\n", name)
			fs.missing = append(fs.missing, name)
			continue
		}
		regressed := false
		if b.NsPerOp <= 0 {
			fmt.Fprintf(w, "SKIP     %-40s baseline has no timing\n", name)
		} else {
			ratio := f.NsPerOp / b.NsPerOp
			verdict := "ok"
			if ratio > threshold {
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-8s %-40s %12.0f -> %12.0f ns/op (x%.2f)\n",
				verdict, name, b.NsPerOp, f.NsPerOp, ratio)
		}
		if b.Mem && f.Mem {
			if b.AllocsPerOp > 0 && b.BytesPerOp > 0 && f.BytesPerOp/b.BytesPerOp > threshold {
				fmt.Fprintf(w, "%-8s %-40s %12.0f -> %12.0f B/op (x%.2f)\n",
					"REGRESSION", name, b.BytesPerOp, f.BytesPerOp, f.BytesPerOp/b.BytesPerOp)
				regressed = true
			}
			switch {
			case b.AllocsPerOp == 0 && f.AllocsPerOp > 0:
				fmt.Fprintf(w, "%-8s %-40s %12.0f -> %12.0f allocs/op, %.0f B/op (baseline is allocation-free)\n",
					"ALLOCS", name, b.AllocsPerOp, f.AllocsPerOp, f.BytesPerOp)
				fs.allocating = append(fs.allocating, name)
			case f.AllocsPerOp > b.AllocsPerOp*allocGrowth+allocSlack:
				fmt.Fprintf(w, "%-8s %-40s %12.0f -> %12.0f allocs/op (above baseline x%.2f + %d)\n",
					"ALLOCS", name, b.AllocsPerOp, f.AllocsPerOp, allocGrowth, allocSlack)
				fs.allocating = append(fs.allocating, name)
			case b.AllocsPerOp > f.AllocsPerOp*allocStale+allocSlack:
				fmt.Fprintf(w, "%-8s %-40s %12.0f -> %12.0f allocs/op (baseline above this run x%.2f + %d; rerun scripts/bench.sh)\n",
					"STALE", name, b.AllocsPerOp, f.AllocsPerOp, allocStale, allocSlack)
				fs.stale = append(fs.stale, name)
			}
		}
		if regressed {
			fs.regressions = append(fs.regressions, name)
		}
	}
	extra := make([]string, 0)
	for name := range fresh {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "NEW      %-40s %12.0f ns/op (not in baseline; rerun scripts/bench.sh)\n",
			name, fresh[name].NsPerOp)
	}
	return fs
}

func parseFile(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return res, nil
}

// readBaseline reads a JSON baseline such as emitBaseline writes.
func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	return b, nil
}

// emitBaseline writes the parsed results of rawPath as a JSON baseline.
func emitBaseline(rawPath, outPath, note string) error {
	res, err := parseFile(rawPath)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if note == "" {
		note = "generated by scripts/bench.sh; compare with cmd/benchdiff"
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(Baseline{
		Note:       note,
		Benchmarks: res,
	})
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	return nil
}

// diff compares the fresh run at newPath against the baseline file; the
// returned error is non-nil when a regression exceeds threshold or a
// baseline benchmark is missing from the fresh run (and warn is off), or
// when a benchmark's allocs/op leaves the baseline's band (warn or not), so
// main can exit nonzero.
func diff(baselinePath, newPath string, threshold float64, warn bool, w io.Writer) error {
	base, err := readBaseline(baselinePath)
	if err != nil {
		return err
	}
	fresh, err := parseFile(newPath)
	if err != nil {
		return err
	}
	fs := compare(base.Benchmarks, fresh, threshold, w)
	var problems []string
	if len(fs.regressions) > 0 {
		problems = append(problems, fmt.Sprintf("%d benchmark(s) regressed beyond x%.2f: %s",
			len(fs.regressions), threshold, strings.Join(fs.regressions, ", ")))
	}
	if len(fs.missing) > 0 {
		problems = append(problems, fmt.Sprintf("%d baseline benchmark(s) missing from this run: %s",
			len(fs.missing), strings.Join(fs.missing, ", ")))
	}
	if len(problems) > 0 && warn {
		fmt.Fprintf(w, "WARNING (not failing): %s\n", strings.Join(problems, "; "))
		problems = nil
	}
	if len(fs.allocating) > 0 {
		problems = append(problems, fmt.Sprintf("%d benchmark(s) allocate above the baseline's band: %s",
			len(fs.allocating), strings.Join(fs.allocating, ", ")))
	}
	if len(fs.stale) > 0 {
		problems = append(problems, fmt.Sprintf("%d benchmark(s) allocate far below a stale baseline (rerun scripts/bench.sh): %s",
			len(fs.stale), strings.Join(fs.stale, ", ")))
	}
	if len(problems) == 0 {
		if len(fs.regressions)+len(fs.missing) == 0 {
			fmt.Fprintf(w, "no regressions above x%.2f (%d benchmarks)\n", threshold, len(base.Benchmarks))
		}
		return nil
	}
	return fmt.Errorf("%s", strings.Join(problems, "; "))
}

// trajectory prints, for every benchmark of the newest BENCH_pr<N>.json in
// dir, its allocs/op and ns/op in each of those snapshots, oldest PR first,
// with the cell blank where a snapshot lacks the benchmark or did not
// measure its allocations.
func trajectory(dir string, w io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return err
	}
	type snapshot struct {
		pr    int
		bench map[string]Result
	}
	var snaps []snapshot
	for _, p := range paths {
		pr, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_pr"), ".json"))
		if err != nil {
			continue // not a PR snapshot
		}
		b, err := readBaseline(p)
		if err != nil {
			return err
		}
		snaps = append(snaps, snapshot{pr, b.Benchmarks})
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no BENCH_pr<N>.json in %s", dir)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].pr < snaps[j].pr })
	newest := snaps[len(snaps)-1].bench
	names := make([]string, 0, len(newest))
	for name := range newest {
		names = append(names, name)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark\tmetric\t")
	for _, s := range snaps {
		fmt.Fprintf(tw, "pr%d\t", s.pr)
	}
	fmt.Fprintln(tw)
	for _, name := range names {
		for _, metric := range []string{"allocs/op", "ns/op"} {
			fmt.Fprintf(tw, "%s\t%s\t", name, metric)
			for _, s := range snaps {
				r, ok := s.bench[name]
				switch {
				case !ok, metric == "allocs/op" && !r.Mem:
					fmt.Fprint(tw, "\t")
				case metric == "allocs/op":
					fmt.Fprintf(tw, "%.0f\t", r.AllocsPerOp)
				default:
					fmt.Fprintf(tw, "%.0f\t", r.NsPerOp)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

func main() {
	emit := flag.String("emit", "", "raw `go test -bench` output to turn into a baseline (use with -o)")
	out := flag.String("o", "BENCH_baseline.json", "baseline file to write in -emit mode")
	baseline := flag.String("baseline", "", "committed baseline JSON to compare against")
	fresh := flag.String("new", "", "raw `go test -bench` output of the fresh run")
	threshold := flag.Float64("threshold", 1.5, "failure ratio: fail when ns/op or B/op exceeds baseline x this")
	warn := flag.Bool("warn", false, "report ns/op and B/op regressions and missing benchmarks but exit 0 (for noisy CI timing); allocs/op outside the baseline's band still fails")
	note := flag.String("note", "", "free-form provenance note stored in the emitted baseline (label, date, commit)")
	traj := flag.String("trajectory", "", "directory whose committed BENCH_pr<N>.json snapshots to print side by side, PR order")
	flag.Parse()

	switch {
	case *traj != "":
		if err := trajectory(*traj, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	case *emit != "":
		if err := emitBaseline(*emit, *out, *note); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	case *baseline != "" && *fresh != "":
		if err := diff(*baseline, *fresh, *threshold, *warn, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
