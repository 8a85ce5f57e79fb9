package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 0); got != 0 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Errorf("p25 = %v", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdDevAndCI(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("singleton stddev")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2.138) > 0.01 {
		t.Errorf("stddev = %v", got)
	}
	m, hw := MeanCI95(xs)
	if m != 5 || hw <= 0 {
		t.Errorf("CI = %v ± %v", m, hw)
	}
	if _, hw := MeanCI95(nil); hw != 0 {
		t.Error("empty CI")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cdf := CDF(xs, 0)
	if len(cdf) != 4 {
		t.Fatalf("cdf length %d", len(cdf))
	}
	if cdf[0].Value != 1 || cdf[len(cdf)-1].Value != 4 {
		t.Errorf("cdf endpoints: %+v", cdf)
	}
	if cdf[len(cdf)-1].Frac != 1 {
		t.Errorf("cdf must end at 1, got %v", cdf[len(cdf)-1].Frac)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Frac < cdf[i-1].Frac {
			t.Fatal("cdf not monotone")
		}
	}
	if got := CDF(nil, 10); got != nil {
		t.Error("empty cdf")
	}
	sub := CDF([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 3)
	if len(sub) != 3 {
		t.Errorf("subsampled cdf length %d", len(sub))
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAbove(xs, 3); got != 0.25 {
		t.Errorf("FractionAbove = %v", got)
	}
	if FractionAbove(nil, 0) != 0 {
		t.Error("empty fractions")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Median != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summary = %+v", s)
	}
	if s.P10 >= s.P90 {
		t.Error("percentiles out of order")
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary")
	}
}
