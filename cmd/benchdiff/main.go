// Command benchdiff manages the repository's benchmark baseline: it parses
// `go test -bench` text output into a committed JSON baseline and compares
// fresh runs against it, failing when a benchmark's ns/op or B/op grows by
// more than a configurable threshold, when a baseline benchmark is missing,
// or when a benchmark the baseline records as allocation-free allocates.
// The last is a count, not a timing, so -warn does not excuse it.
//
// Usage:
//
//	benchdiff -emit raw.txt -o BENCH_baseline.json        # (re)generate the baseline
//	benchdiff -baseline BENCH_baseline.json -new raw.txt  # gate: exit 1 on regression
//	benchdiff -baseline ... -new ... -threshold 2 -warn   # report only, always exit 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
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

// compare reports every baseline benchmark against the fresh run, returning
// the names of those whose ns/op or B/op grew by more than threshold (a
// ratio: 1.5 = 50% more), the names present in the baseline but absent from
// the fresh run, and the names the baseline records at 0 allocs/op that now
// allocate. A missing benchmark is a gate failure in its own right — a
// silently dropped benchmark would otherwise let its regression hide.
// Memory is compared only where both runs reported it, and B/op only where
// the baseline allocates at least once per op: below that, B/op is a few
// one-off allocations (a buffer growing to size) spread over however many
// iterations ran, which is not a per-op cost.
func compare(base, fresh map[string]Result, threshold float64, w io.Writer) (regressions, missing, allocating []string) {
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
			missing = append(missing, name)
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
			if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
				fmt.Fprintf(w, "%-8s %-40s %12.0f -> %12.0f allocs/op, %.0f B/op (baseline is allocation-free)\n",
					"ALLOCS", name, b.AllocsPerOp, f.AllocsPerOp, f.BytesPerOp)
				allocating = append(allocating, name)
			}
		}
		if regressed {
			regressions = append(regressions, name)
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
	return regressions, missing, allocating
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
// when an allocation-free benchmark now allocates (warn or not), so main
// can exit nonzero.
func diff(baselinePath, newPath string, threshold float64, warn bool, w io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	fresh, err := parseFile(newPath)
	if err != nil {
		return err
	}
	regressions, missing, allocating := compare(base.Benchmarks, fresh, threshold, w)
	var problems []string
	if len(regressions) > 0 {
		problems = append(problems, fmt.Sprintf("%d benchmark(s) regressed beyond x%.2f: %s",
			len(regressions), threshold, strings.Join(regressions, ", ")))
	}
	if len(missing) > 0 {
		problems = append(problems, fmt.Sprintf("%d baseline benchmark(s) missing from this run: %s",
			len(missing), strings.Join(missing, ", ")))
	}
	if len(problems) > 0 && warn {
		fmt.Fprintf(w, "WARNING (not failing): %s\n", strings.Join(problems, "; "))
		problems = nil
	}
	if len(allocating) > 0 {
		problems = append(problems, fmt.Sprintf("%d allocation-free benchmark(s) now allocate: %s",
			len(allocating), strings.Join(allocating, ", ")))
	}
	if len(problems) == 0 {
		if len(regressions)+len(missing) == 0 {
			fmt.Fprintf(w, "no regressions above x%.2f (%d benchmarks)\n", threshold, len(base.Benchmarks))
		}
		return nil
	}
	return fmt.Errorf("%s", strings.Join(problems, "; "))
}

func main() {
	emit := flag.String("emit", "", "raw `go test -bench` output to turn into a baseline (use with -o)")
	out := flag.String("o", "BENCH_baseline.json", "baseline file to write in -emit mode")
	baseline := flag.String("baseline", "", "committed baseline JSON to compare against")
	fresh := flag.String("new", "", "raw `go test -bench` output of the fresh run")
	threshold := flag.Float64("threshold", 1.5, "failure ratio: fail when ns/op or B/op exceeds baseline x this")
	warn := flag.Bool("warn", false, "report regressions and missing benchmarks but exit 0 (for noisy CI timing); a 0 -> N allocs/op change still fails")
	note := flag.String("note", "", "free-form provenance note stored in the emitted baseline (label, date, commit)")
	flag.Parse()

	switch {
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
