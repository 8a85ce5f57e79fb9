package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadHeadCSV exercises the head-trace parser with arbitrary input: it
// must never panic, anything it accepts must round-trip, and every sample
// it accepts is finite.
func FuzzReadHeadCSV(f *testing.F) {
	var good bytes.Buffer
	_ = WriteHeadCSV(&good, GenerateHead(HeadGenParams{UserID: "s", Seed: 1, Duration: 200e6}))
	f.Add(good.String())
	f.Add("# user=x period_ms=40\n0,1.0,2.0\n40,1.5,2.5\n")
	f.Add("")
	f.Add("0,999999,2\n")
	f.Add("# period_ms=banana\n0,1,2\n")
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

// FuzzReadIntervalLog exercises the raw-measurement importer.
func FuzzReadIntervalLog(f *testing.F) {
	f.Add("1000 100000\n2000 200000\n", true)
	f.Add("0,4000\n1000,8000\n", false)
	f.Add("garbage\n", false)
	f.Add("1000 0\n0 0", false)     // a timestamp before the first line's indexed bin -1
	f.Add("0 5\n9e12 5\n", false)   // two valid timestamps 285 years apart: 9e9 bins
	f.Add("NaN 5\n0 5\n1 5", false) // NaN as a Duration is the most negative one
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
		for _, v := range tr.Mbps {
			if v < 0 {
				t.Fatal("negative bandwidth")
			}
		}
	})
}
