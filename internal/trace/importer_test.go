package trace

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestReadIntervalLogBytes(t *testing.T) {
	// Epoch-ms timestamps, bytes per interval (the Belgian-log shape):
	// 1e6 bytes per second = 8 Mbps.
	log := `
1000 0
2000 1000000
3000 1000000
4000 2000000
`
	tr, err := ReadIntervalLog(strings.NewReader(log), IntervalLogOptions{
		TimestampCol: 0, ValueCol: 1, ValueIsBytes: true, ID: "b",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != "b" || tr.SamplePeriod != time.Second {
		t.Fatalf("trace meta: %+v", tr)
	}
	if len(tr.Mbps) != 4 {
		t.Fatalf("got %d samples: %v", len(tr.Mbps), tr.Mbps)
	}
	if math.Abs(tr.Mbps[1]-8) > 1e-9 || math.Abs(tr.Mbps[3]-16) > 1e-9 {
		t.Errorf("rates = %v, want bins of 8 and 16 Mbps", tr.Mbps)
	}
}

func TestReadIntervalLogKbps(t *testing.T) {
	log := "0,4000\n1000,8000\n2000,12000\n"
	tr, err := ReadIntervalLog(strings.NewReader(log), IntervalLogOptions{
		TimestampCol: 0, ValueCol: 1, Comma: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 8, 12}
	for i, v := range want {
		if math.Abs(tr.Mbps[i]-v) > 1e-9 {
			t.Fatalf("rates = %v, want %v", tr.Mbps, want)
		}
	}
}

func TestReadIntervalLogGapsInheritPrevious(t *testing.T) {
	// A 3-second gap between measurements: the empty bins hold the last
	// rate rather than dropping to zero.
	log := "0,8000\n1000,8000\n5000,4000\n"
	tr, err := ReadIntervalLog(strings.NewReader(log), IntervalLogOptions{
		TimestampCol: 0, ValueCol: 1, Comma: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Mbps) != 6 {
		t.Fatalf("samples: %v", tr.Mbps)
	}
	for i := 2; i <= 4; i++ {
		if tr.Mbps[i] != 8 {
			t.Errorf("gap bin %d = %v, want carried 8", i, tr.Mbps[i])
		}
	}
	if tr.Mbps[5] != 4 {
		t.Errorf("final bin = %v", tr.Mbps[5])
	}
}

// TestReadIntervalLogSkipsGarbage: a line that does not parse, or whose
// rate is negative, NaN or infinite, is skipped, and the lines around it
// import as if it were not there. A bin averaging past the largest float64,
// as one of 1e306 bytes in a millisecond does, or as a sum of rates can,
// reads the largest finite rate.
func TestReadIntervalLogSkipsGarbage(t *testing.T) {
	for _, c := range []struct {
		name    string
		log     string
		asBytes bool
		want    []float64
	}{
		{"unparsable", "\n# comment\nnot numbers here\n1000 x\n1000 1000\n2000 2000000\n3000 1000000\n", true, []float64{0, 16, 8}},
		{"non-finite bytes", "1000 1000\n2000 2000000\n2500 NaN\n2600 Inf\n3000 1000000\n", true, []float64{0, 16, 8}},
		{"non-finite kbps", "0 100\n1000 NaN\n1000 +Inf\n1000 -Inf\n1000 -5\n2000 300\n", false, []float64{0.1, 0.1, 0.3}},
		{"rate overflows", "0 1\n1 1e306\n2 1e306\n", true, []float64{math.MaxFloat64}},
		{"bin sum overflows", strings.Repeat("0 1e308\n", 2000), false, []float64{math.MaxFloat64}},
	} {
		tr, err := ReadIntervalLog(strings.NewReader(c.log), IntervalLogOptions{
			TimestampCol: 0, ValueCol: 1, ValueIsBytes: c.asBytes,
		})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !slices.EqualFunc(tr.Mbps, c.want, func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }) {
			t.Errorf("%s: rates %v, want %v", c.name, tr.Mbps, c.want)
		}
	}
}

func TestReadIntervalLogRejectsEmpty(t *testing.T) {
	if _, err := ReadIntervalLog(strings.NewReader("junk\n"), IntervalLogOptions{}); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := ReadIntervalLog(strings.NewReader("1000 5\n"), IntervalLogOptions{ValueIsBytes: true}); err == nil {
		t.Error("single measurement accepted")
	}
}

func TestReadIntervalLogResample(t *testing.T) {
	log := "0 4000\n500 8000\n1000 12000\n1500 16000\n"
	tr, err := ReadIntervalLog(strings.NewReader(log), IntervalLogOptions{
		TimestampCol: 0, ValueCol: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bins of 1 s average two 0.5 s measurements each.
	if len(tr.Mbps) != 2 {
		t.Fatalf("bins: %v", tr.Mbps)
	}
	if math.Abs(tr.Mbps[0]-6) > 1e-9 || math.Abs(tr.Mbps[1]-14) > 1e-9 {
		t.Errorf("averaged bins = %v, want [6 14]", tr.Mbps)
	}
}
