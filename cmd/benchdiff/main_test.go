package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: dragonfly
cpu: Fake CPU @ 3.00GHz
BenchmarkFig9MainComparison-8   	       1	123456789 ns/op	 5000000 B/op	   40000 allocs/op
BenchmarkFig2PredictionAccuracy-8       2	 50000000 ns/op
BenchmarkTilingSweep   	       1	  9999999 ns/op	  100 B/op	    5 allocs/op
PASS
ok  	dragonfly	3.210s
`

func TestParseBench(t *testing.T) {
	res, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(res), res)
	}
	fig9, ok := res["BenchmarkFig9MainComparison"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if fig9.NsPerOp != 123456789 || fig9.BytesPerOp != 5000000 || fig9.AllocsPerOp != 40000 || !fig9.Mem {
		t.Fatalf("fig9 = %+v", fig9)
	}
	if res["BenchmarkFig2PredictionAccuracy"].Mem {
		t.Fatal("a line without B/op and allocs/op parsed as a memory measurement")
	}
	if res["BenchmarkFig2PredictionAccuracy"].NsPerOp != 50000000 {
		t.Fatalf("fig2 = %+v", res["BenchmarkFig2PredictionAccuracy"])
	}
	if _, ok := res["BenchmarkTilingSweep"]; !ok {
		t.Fatal("benchmark without -N suffix dropped")
	}
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	base := map[string]Result{
		"BenchmarkA": {NsPerOp: 1000},
		"BenchmarkB": {NsPerOp: 1000},
		"BenchmarkC": {NsPerOp: 1000},
	}
	fresh := map[string]Result{
		"BenchmarkA": {NsPerOp: 1400}, // within x1.5
		"BenchmarkB": {NsPerOp: 2000}, // regression
		"BenchmarkD": {NsPerOp: 5},    // new, informational only
	}
	var buf bytes.Buffer
	fs := compare(base, fresh, 1.5, &buf)
	if got := fs.regressions; len(got) != 1 || got[0] != "BenchmarkB" {
		t.Fatalf("regressions = %v, want [BenchmarkB]", got)
	}
	if missing := fs.missing; len(missing) != 1 || missing[0] != "BenchmarkC" {
		t.Fatalf("missing = %v, want [BenchmarkC]", missing)
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "MISSING", "NEW"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestDiffFailsOnInjectedRegression is the acceptance check: emit a
// baseline, then feed a run where one benchmark slowed beyond the
// threshold — diff must return an error (nonzero exit in main).
func TestDiffFailsOnInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.txt")
	if err := os.WriteFile(raw, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := emitBaseline(raw, baseline, "test baseline"); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(baseline); err != nil || !strings.Contains(string(data), "test baseline") {
		t.Fatalf("note not stored in baseline (err %v)", err)
	}
	var bl Baseline
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatal(err)
	}
	if len(bl.Benchmarks) != 3 {
		t.Fatalf("baseline has %d benchmarks, want 3", len(bl.Benchmarks))
	}

	// Same run, but Fig9 2.5x slower than baseline.
	slowed := strings.Replace(sampleBenchOutput, "123456789 ns/op", "308641972 ns/op", 1)
	slowRaw := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowRaw, []byte(slowed), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := diff(baseline, slowRaw, 1.5, false, &buf); err == nil {
		t.Fatalf("diff passed an injected 2.5x regression:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "BenchmarkFig9MainComparison") {
		t.Fatalf("error %q does not name the regressed benchmark", err)
	}

	// Warn mode reports but does not fail.
	buf.Reset()
	if err := diff(baseline, slowRaw, 1.5, true, &buf); err != nil {
		t.Fatalf("warn mode failed: %v", err)
	}
	if !strings.Contains(buf.String(), "WARNING") {
		t.Fatalf("warn mode did not report:\n%s", buf.String())
	}

	// The unmodified run passes.
	buf.Reset()
	if err := diff(baseline, raw, 1.5, false, &buf); err != nil {
		t.Fatalf("identical run flagged: %v", err)
	}
}

// TestDiffFailsOnMissingBenchmark: a benchmark present in the baseline but
// absent from the fresh run fails the gate (unless -warn) — deleting or
// renaming a benchmark must not silently pass the comparison.
func TestDiffFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.txt")
	if err := os.WriteFile(raw, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := emitBaseline(raw, baseline, ""); err != nil {
		t.Fatal(err)
	}

	// The fresh run lost BenchmarkTilingSweep.
	var kept []string
	for _, line := range strings.Split(sampleBenchOutput, "\n") {
		if !strings.HasPrefix(line, "BenchmarkTilingSweep") {
			kept = append(kept, line)
		}
	}
	lossyRaw := filepath.Join(dir, "lossy.txt")
	if err := os.WriteFile(lossyRaw, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err := diff(baseline, lossyRaw, 1.5, false, &buf)
	if err == nil {
		t.Fatalf("diff passed with a baseline benchmark missing:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkTilingSweep") || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("error %q does not name the missing benchmark", err)
	}

	// -warn downgrades the missing benchmark to a report.
	buf.Reset()
	if err := diff(baseline, lossyRaw, 1.5, true, &buf); err != nil {
		t.Fatalf("warn mode failed on missing benchmark: %v", err)
	}
	if !strings.Contains(buf.String(), "WARNING") || !strings.Contains(buf.String(), "MISSING") {
		t.Fatalf("warn mode did not report the missing benchmark:\n%s", buf.String())
	}
}

// memBenchOutput is a -benchmem run: one allocation-free micro-benchmark,
// one that allocates, one line without memory columns.
const memBenchOutput = `BenchmarkDecideFull360-2   	      50	     36000 ns/op	       0 B/op	       0 allocs/op
BenchmarkManyConnStream-2  	       1	 900000000 ns/op	 4000000 B/op	   59000 allocs/op
BenchmarkNoMem-2           	       1	      1000 ns/op
`

// TestDiffGatesAllocations: a benchmark the baseline records at 0
// allocs/op that allocates in the fresh run fails the gate even under
// -warn (it is a count, not a noisy timing), and B/op growth beyond the
// threshold is a regression like ns/op. Memory is not compared where
// either side did not report it.
func TestDiffGatesAllocations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	raw := write("raw.txt", memBenchOutput)
	baseline := filepath.Join(dir, "baseline.json")
	if err := emitBaseline(raw, baseline, ""); err != nil {
		t.Fatal(err)
	}
	var bl Baseline
	if data, err := os.ReadFile(baseline); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatal(err)
	}
	if r := bl.Benchmarks["BenchmarkDecideFull360"]; !r.Mem || r.AllocsPerOp != 0 {
		t.Fatalf("baseline lost the measured zero: %+v", r)
	}
	if bl.Benchmarks["BenchmarkNoMem"].Mem {
		t.Fatal("baseline records memory for a benchmark that reported none")
	}

	var buf bytes.Buffer
	if err := diff(baseline, raw, 1.5, false, &buf); err != nil {
		t.Fatalf("identical run flagged: %v\n%s", err, buf.String())
	}

	// 0 -> 3 allocs/op on Decide, timing unchanged.
	leaky := write("leaky.txt", strings.Replace(memBenchOutput,
		"36000 ns/op	       0 B/op	       0 allocs/op", "36100 ns/op	     144 B/op	       3 allocs/op", 1))
	for _, warn := range []bool{false, true} {
		buf.Reset()
		err := diff(baseline, leaky, 1.5, warn, &buf)
		if err == nil {
			t.Fatalf("warn=%v: diff passed a 0 -> 3 allocs/op regression:\n%s", warn, buf.String())
		}
		if !strings.Contains(err.Error(), "BenchmarkDecideFull360") || !strings.Contains(err.Error(), "allocat") {
			t.Fatalf("warn=%v: error %q does not name the allocating benchmark", warn, err)
		}
		if !strings.Contains(buf.String(), "ALLOCS") {
			t.Fatalf("warn=%v: report has no ALLOCS line:\n%s", warn, buf.String())
		}
	}

	// B/op x3 on the macro, allocs and timing unchanged: a regression that
	// -warn downgrades, like ns/op.
	fat := write("fat.txt", strings.Replace(memBenchOutput, "4000000 B/op", "12000000 B/op", 1))
	buf.Reset()
	if err := diff(baseline, fat, 1.5, false, &buf); err == nil || !strings.Contains(err.Error(), "BenchmarkManyConnStream") {
		t.Fatalf("diff passed a x3 B/op regression (err %v):\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "B/op (x3.00)") {
		t.Fatalf("report does not show the B/op ratio:\n%s", buf.String())
	}
	buf.Reset()
	if err := diff(baseline, fat, 1.5, true, &buf); err != nil {
		t.Fatalf("warn mode failed on B/op growth: %v", err)
	}
	if !strings.Contains(buf.String(), "WARNING") {
		t.Fatalf("warn mode did not report B/op growth:\n%s", buf.String())
	}

	// A fresh run without -benchmem cannot be compared on memory and must
	// not be read as "0 allocs".
	var noMem strings.Builder
	for _, line := range strings.Split(memBenchOutput, "\n") {
		if i := strings.Index(line, " ns/op"); i >= 0 {
			line = line[:i+len(" ns/op")]
		}
		noMem.WriteString(line + "\n")
	}
	buf.Reset()
	if err := diff(baseline, write("nomem.txt", noMem.String()), 1.5, false, &buf); err != nil {
		t.Fatalf("run without memory columns flagged: %v", err)
	}

	// An old baseline that omitted zeros (no "mem") gates nothing on memory.
	old := write("old.json", `{"benchmarks":{"BenchmarkDecideFull360":{"ns_per_op":36000}}}`)
	buf.Reset()
	if err := diff(old, leaky, 1.5, false, &buf); err != nil {
		t.Fatalf("baseline without memory data gated allocations: %v", err)
	}
}

// bandBenchOutput is a -benchmem run of one macro and the two tiny macros
// whose single iteration swings by a few allocations.
const bandBenchOutput = `BenchmarkManyConnStream-2           	       1	 900000000 ns/op	 4000000 B/op	   59000 allocs/op
BenchmarkFig18QualitySensitivity-2  	       1	     31814 ns/op	    3208 B/op	      16 allocs/op
BenchmarkTable2VariantMatrix-2      	       1	      9000 ns/op	     600 B/op	       5 allocs/op
`

// TestDiffGatesAllocationBand: allocs/op fails above baseline x1.05 + 3
// and, the baseline then being stale, below it by more than x1.25 + 3 —
// both with or without -warn — while the tiny macros' swing of three
// allocations and a macro's drift inside the band pass.
func TestDiffGatesAllocationBand(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	raw := filepath.Join(dir, "raw.txt")
	if err := os.WriteFile(raw, []byte(bandBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitBaseline(raw, baseline, ""); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		old, new  string // one replacement in bandBenchOutput
		fails     string // the report's verdict for a failing run; "" passes
		benchmark string
	}{
		{"macro drift inside the band", "59000 allocs", "61900 allocs", "", ""},
		{"macro above the band", "59000 allocs", "61960 allocs", "ALLOCS", "BenchmarkManyConnStream"},
		{"macro win the baseline still covers", "59000 allocs", "47200 allocs", "", ""},
		{"macro win that makes the baseline stale", "59000 allocs", "47100 allocs", "STALE", "BenchmarkManyConnStream"},
		{"tiny macro up by three", "16 allocs", "19 allocs", "", ""},
		{"tiny macro up by four", "16 allocs", "20 allocs", "ALLOCS", "BenchmarkFig18QualitySensitivity"},
		{"tiny macro down by three", "5 allocs", "2 allocs", "", ""},
	} {
		fresh := filepath.Join(dir, "fresh.txt")
		if err := os.WriteFile(fresh, []byte(strings.Replace(bandBenchOutput, c.old, c.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, warn := range []bool{false, true} {
			var buf bytes.Buffer
			err := diff(baseline, fresh, 1.5, warn, &buf)
			switch {
			case c.fails == "" && err != nil:
				t.Errorf("%s, warn=%v: failed: %v\n%s", c.name, warn, err, buf.String())
			case c.fails != "" && err == nil:
				t.Errorf("%s, warn=%v: passed:\n%s", c.name, warn, buf.String())
			case c.fails != "" && (!strings.Contains(err.Error(), c.benchmark) || !strings.Contains(buf.String(), c.fails)):
				t.Errorf("%s, warn=%v: error %q or report does not name %s as %s:\n%s", c.name, warn, err, c.benchmark, c.fails, buf.String())
			}
		}
	}
}

// Example_baselineComparison shows the comparison underneath
// `benchdiff -baseline ... -new ...`: each baseline benchmark is matched
// against the fresh run and flagged once its ns/op ratio exceeds the
// threshold. scripts/ci.sh runs exactly this against BENCH_baseline.json.
func Example_baselineComparison() {
	baseline := map[string]Result{
		"BenchmarkDecideFull360":      {NsPerOp: 36000},
		"BenchmarkOverlapCapExact":    {NsPerOp: 3100},
		"BenchmarkOverlapTableLookup": {NsPerOp: 580},
	}
	fresh := map[string]Result{
		"BenchmarkDecideFull360":      {NsPerOp: 39000}, // x1.08: noise
		"BenchmarkOverlapCapExact":    {NsPerOp: 6500},  // x2.10: regression
		"BenchmarkOverlapTableLookup": {NsPerOp: 575},
	}
	fs := compare(baseline, fresh, 1.5, os.Stdout)
	fmt.Println("regressed:", fs.regressions)
	// Output:
	// ok       BenchmarkDecideFull360                          36000 ->        39000 ns/op (x1.08)
	// REGRESSION BenchmarkOverlapCapExact                         3100 ->         6500 ns/op (x2.10)
	// ok       BenchmarkOverlapTableLookup                       580 ->          575 ns/op (x0.99)
	// regressed: [BenchmarkOverlapCapExact]
}

// TestTrajectory: every benchmark of the newest snapshot gets an allocs/op
// and an ns/op row across the snapshots in PR order (pr2 before pr10, not
// as the names sort), blank where a snapshot lacks the benchmark or did not
// measure allocations; a benchmark the newest snapshot lacks is not listed.
func TestTrajectory(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b map[string]Result) {
		data, err := json.Marshal(Baseline{Benchmarks: b})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_pr2.json", map[string]Result{
		"BenchmarkKept":    {NsPerOp: 900, Mem: true, AllocsPerOp: 5},
		"BenchmarkDropped": {NsPerOp: 10, Mem: true, AllocsPerOp: 1},
		"BenchmarkNoMem":   {NsPerOp: 70},
	})
	write("BENCH_pr10.json", map[string]Result{
		"BenchmarkKept":  {NsPerOp: 600, Mem: true, AllocsPerOp: 3},
		"BenchmarkNew":   {NsPerOp: 40, Mem: true},
		"BenchmarkNoMem": {NsPerOp: 80, Mem: true},
	})
	write("BENCH_baseline.json", map[string]Result{"BenchmarkKept": {NsPerOp: 1}})

	var out bytes.Buffer
	if err := trajectory(dir, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"benchmark|metric|pr2|pr10",
		"BenchmarkKept|allocs/op|5|3",
		"BenchmarkKept|ns/op|900|600",
		"BenchmarkNew|allocs/op||0",
		"BenchmarkNew|ns/op||40",
		"BenchmarkNoMem|allocs/op||0",
		"BenchmarkNoMem|ns/op|70|80",
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("trajectory printed %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	// Columns are what the header's words start at.
	var cols []int
	for i := range lines[0] {
		if lines[0][i] != ' ' && (i == 0 || lines[0][i-1] == ' ') {
			cols = append(cols, i)
		}
	}
	for i, line := range lines {
		cells := make([]string, len(cols))
		for c, at := range cols {
			end := len(line)
			if c+1 < len(cols) {
				end = min(cols[c+1], len(line))
			}
			if at < end {
				cells[c] = strings.TrimSpace(line[at:end])
			}
		}
		if got := strings.Join(cells, "|"); got != want[i] {
			t.Errorf("line %d = %q, want %q", i, got, want[i])
		}
	}
}
