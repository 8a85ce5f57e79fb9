package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// addVectors seeds f with cmd/tracegen's committed vectors that match
// pattern: the trace files tracegen writes and the raw logs it imports.
func addVectors(f *testing.F, pattern string, args ...any) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "tracegen", "testdata", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no tracegen vectors match %s: %v", pattern, err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]any{string(raw)}, args...)...)
	}
}

// FuzzReadHeadCSV exercises the head-trace parser with arbitrary input: it
// must never panic, anything it accepts must round-trip, and every sample
// it accepts is finite.
func FuzzReadHeadCSV(f *testing.F) {
	var good bytes.Buffer
	_ = WriteHeadCSV(&good, GenerateHead(HeadGenParams{UserID: "s", Seed: 1, Duration: 200e6}))
	f.Add(good.String())
	addVectors(f, "head_*.golden")
	f.Add("# user=x period_ms=40\n0,1.0,2.0\n40,1.5,2.5\n")
	f.Add("")
	f.Add("0,999999,2\n")
	f.Add("# period_ms=banana\n0,1,2\n")
	f.Add("# period_ms=9223372036854775\n0,1,2\n") // a period whose Duration wraps negative
	f.Add("0,1,2\n9223372036854775,1,2\n")         // the same period, from the first two rows
	// The longest period over rows whose t_ms wraps once formed in nanoseconds.
	f.Add("# period_ms=9223372036854\n0,1,2\n9223372036854,1,2\n18446744073708,1,2\n27670116110562,1,2\n")
	f.Add("0,1,2\n9223372036854,1,2\n-1,1,2\n")
	f.Add("0,NaN,2\n")
	f.Add("0,1,-Inf\n")

	f.Fuzz(func(t *testing.T, raw string) {
		h, err := ReadHeadCSV(strings.NewReader(raw))
		if err != nil {
			return
		}
		if len(h.Samples) == 0 || h.SamplePeriod <= 0 {
			t.Fatal("accepted trace is unusable")
		}
		for i, o := range h.Samples {
			if math.IsNaN(o.Yaw) || math.IsInf(o.Yaw, 0) || math.IsNaN(o.Pitch) || math.IsInf(o.Pitch, 0) {
				t.Fatalf("accepted sample %d is %+v", i, o)
			}
		}
		var out bytes.Buffer
		if err := WriteHeadCSV(&out, h); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadHeadCSV(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back.Samples) != len(h.Samples) {
			t.Fatalf("round trip lost samples: %d vs %d", len(back.Samples), len(h.Samples))
		}
	})
}

// FuzzReadIntervalLog exercises the raw-measurement importer: it must never
// panic, and any trace it accepts is non-empty, with a positive period and
// finite, non-negative rates.
func FuzzReadIntervalLog(f *testing.F) {
	addVectors(f, "interval_bytes.log", true)
	addVectors(f, "interval_kbps.csv", false)
	f.Add("1000 100000\n2000 200000\n", true)
	f.Add("0,4000\n1000,8000\n", false)
	f.Add("garbage\n", false)
	f.Add("1000 0\n0 0", false)               // a timestamp before the first line's indexed bin -1
	f.Add("0 5\n9e12 5\n", false)             // two valid timestamps 285 years apart: 9e9 bins
	f.Add("NaN 5\n0 5\n1 5", false)           // NaN as a Duration is the most negative one
	f.Add("0 100\n1000 NaN\n2000 300", false) // a NaN rate imported as a NaN bin
	f.Add("0 1\n1 1e306\n2 1\n", true)        // 1e306 bytes in a millisecond: a rate past float64
	f.Fuzz(func(t *testing.T, raw string, asBytes bool) {
		tr, err := ReadIntervalLog(strings.NewReader(raw), IntervalLogOptions{
			TimestampCol: 0, ValueCol: 1, ValueIsBytes: asBytes,
		})
		if err != nil {
			return
		}
		if len(tr.Mbps) == 0 || tr.SamplePeriod <= 0 {
			t.Fatal("accepted log produced unusable trace")
		}
		for i, v := range tr.Mbps {
			if !(v >= 0 && v <= math.MaxFloat64) {
				t.Fatalf("accepted bin %d is %v Mbps", i, v)
			}
		}
	})
}

// FuzzReadBandwidthCSV exercises the parser of the trace dragonfly-server
// -bw paces its link by: it must never panic, and any trace it accepts is
// non-empty, with a positive period and finite, non-negative rates, and
// comes back through WriteBandwidthCSV as the same trace.
func FuzzReadBandwidthCSV(f *testing.F) {
	addVectors(f, "bandwidth_*.golden")
	addVectors(f, "import_*.golden")
	f.Add("")
	f.Add("0,5\n")
	f.Add("# id=x period_ms=0\n0,5\n")
	f.Add("# period_ms=9223372036854775\n0,5\n")
	f.Add("# period_ms=9223372036854\n0,5\n9223372036854,6\n18446744073708,7\n27670116110562,8\n")
	f.Add("0,5\n9223372036854,6\n-1,7\n")
	f.Add("0,-5\n")
	f.Add("0,NaN\n500,5\n")
	f.Add("0,+Inf\n")
	f.Add("0,1e308\n")
	f.Fuzz(func(t *testing.T, raw string) {
		tr, err := ReadBandwidthCSV(strings.NewReader(raw))
		if err != nil {
			return
		}
		if len(tr.Mbps) == 0 || tr.SamplePeriod <= 0 {
			t.Fatal("accepted trace is unusable")
		}
		for i, v := range tr.Mbps {
			if !(v >= 0 && v <= math.MaxFloat64) {
				t.Fatalf("accepted sample %d is %v Mbps", i, v)
			}
		}
		var out bytes.Buffer
		if err := WriteBandwidthCSV(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadBandwidthCSV(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.ID != tr.ID || back.SamplePeriod != tr.SamplePeriod || len(back.Mbps) != len(tr.Mbps) {
			t.Fatalf("round trip changed the trace: %q %v %d samples, want %q %v %d",
				back.ID, back.SamplePeriod, len(back.Mbps), tr.ID, tr.SamplePeriod, len(tr.Mbps))
		}
		for i, v := range tr.Mbps {
			if math.Abs(back.Mbps[i]-v) > 1e-4 { // written to four decimals
				t.Fatalf("round trip moved sample %d: %v, want %v", i, back.Mbps[i], v)
			}
		}
	})
}
