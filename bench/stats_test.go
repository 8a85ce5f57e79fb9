package bench

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	if got := tailPercentile(10); got != 50 {
		t.Errorf("10 samples: %v, want the median", got)
	}
	if got := tailPercentile(100); got != 90 {
		t.Errorf("100 samples: %v, want 90 (ten samples beyond)", got)
	}
	if got := tailPercentile(100000); got != 99 {
		t.Errorf("many samples: %v, want the 99 cap", got)
	}
}

// One stalled segment must not move the median segment rate, and cutting at
// unit boundaries keeps every segment's op mix the same.
func TestSegmentRatesMedianIgnoresOneStall(t *testing.T) {
	workers := make([][]unitSample, 2)
	for w := range workers {
		now := time.Duration(0)
		for i := 0; i < 45; i++ {
			step := 40 * time.Millisecond // 4 ops: three cheap, one dear
			if w == 0 && i == 22 {
				step = 2 * time.Second // a noisy neighbour
			}
			workers[w] = append(workers[w], unitSample{start: now, end: now + step, ops: 4})
			now += step
		}
	}
	rates := segmentRates(workers)
	if len(rates) != numSegments {
		t.Fatalf("%d segments, want %d", len(rates), numSegments)
	}
	if got := median(append([]float64(nil), rates...)); math.Abs(got-200) > 1e-6 {
		t.Errorf("median segment rate %v, want 200 op/s", got)
	}
	slow := 0
	for _, r := range rates {
		if r < 190 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d slow segments in %v, want exactly the stalled one", slow, rates)
	}
	if got := segmentRates([][]unitSample{workers[0][:3], nil}); len(got) != 3 {
		t.Errorf("3 units on one worker gave %d segments, want 3", len(got))
	}
	if segmentRates([][]unitSample{nil, nil}) != nil {
		t.Error("no units must give no segments")
	}
}

// Values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeIsBusyMinusChildren(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	tr.spans = []span{
		{Name: "root", ID: 0, Parent: -1, Busy: 100, Calls: 1},
		{Name: "op", ID: 1, Parent: 0, Busy: 70, Calls: 1},
		{Name: "read", ID: 2, Parent: 1, Busy: 40, Calls: 12},
		{Name: "sum", ID: 3, Parent: 1, Calls: 0}, // a group that never saw a call
	}
	lt := attribute([]*tracer{tr, nil})
	if lt.self["root"] != 30 || lt.self["op"] != 30 || lt.self["read"] != 40 {
		t.Errorf("self times %v", lt.self)
	}
	if _, ok := lt.self["sum"]; ok {
		t.Error("a group with no calls must not appear")
	}
	if lt.roots != 100 || lt.calls["read"] != 12 {
		t.Errorf("roots %v, read calls %v", lt.roots, lt.calls["read"])
	}
	var sum time.Duration
	for _, d := range lt.self {
		sum += d
	}
	if sum != lt.roots {
		t.Errorf("self times sum to %v, roots to %v", sum, lt.roots)
	}
}
