package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestSketchQuantileEnvelope pins the documented accuracy contract: on
// seeded data inside the range, every quantile estimate — including from a
// sketch merged out of shards — lands within one bin width of the exact
// order statistic.
func TestSketchQuantileEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		lo, hi = 0.0, 60.0
		bins   = 240
		shards = 8
		perSh  = 500
	)
	var exact []float64
	parts := make([]*Sketch, shards)
	for sh := 0; sh < shards; sh++ {
		parts[sh] = NewSketch(lo, hi, bins)
		for i := 0; i < perSh; i++ {
			// A bimodal mix, roughly like per-frame quality in dB.
			v := 42 + 4*rng.NormFloat64()
			if rng.Intn(4) == 0 {
				v = 25 + 3*rng.NormFloat64()
			}
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			exact = append(exact, v)
			parts[sh].Add(v)
		}
	}
	merged := NewSketch(lo, hi, bins)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N != uint64(len(exact)) {
		t.Fatalf("merged count = %d, want %d", merged.N, len(exact))
	}
	envelope := merged.binWidth()
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99} {
		got := merged.quantile(p)
		want := Percentile(exact, p)
		if d := math.Abs(got - want); d > envelope {
			t.Errorf("p%g: sketch %.3f vs exact %.3f, |diff| %.3f > envelope %.3f",
				p, got, want, d, envelope)
		}
	}
	if d := math.Abs(merged.mean() - Mean(exact)); d > 5e-7 {
		t.Errorf("mean off by %g, more than the half tick each Add may round by", d)
	}
}

func TestSketchMergeRejectsGeometryMismatch(t *testing.T) {
	a := NewSketch(0, 10, 10)
	b := NewSketch(0, 20, 10)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched geometries succeeded")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestSketchClampsAndEdges(t *testing.T) {
	s := NewSketch(0, 100, 10)
	for _, v := range []float64{-5, 0, 100, 250, math.NaN()} {
		s.Add(v)
	}
	if s.N != 4 {
		t.Fatalf("count = %d, want 4 (NaN ignored)", s.N)
	}
	if got := s.quantile(100); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
	if got := s.quantile(0); got > s.binWidth() {
		t.Errorf("p0 = %g, want inside the first bin", got)
	}
	empty := NewSketch(0, 1, 4)
	if empty.quantile(50) != 0 || empty.mean() != 0 {
		t.Error("empty sketch should report zeros")
	}
}

// TestSketchMeanOrderIndependent holds at the type what popsim's
// TestWorkerCountInvariance holds for a sweep: the same observations give a
// bit-identical Mean (and Sum) in any order and across any two-way split
// and merge, which a float accumulator does not.
func TestSketchMeanOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := make([]float64, 4000)
	for i := range obs {
		obs[i] = 45 + 30*rng.NormFloat64() // some beyond both ends of the range
	}
	fold := func(vs []float64) *Sketch {
		s := NewSketch(0, 80, 320)
		for _, v := range vs {
			s.Add(v)
		}
		return s
	}
	want := fold(obs)
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
		cut := rng.Intn(len(obs) + 1)
		merged := fold(obs[:cut])
		if err := merged.Merge(fold(obs[cut:])); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Sketch{"permuted": fold(obs), "split and merged": merged} {
			if got.Sum != want.Sum || math.Float64bits(got.mean()) != math.Float64bits(want.mean()) {
				t.Fatalf("trial %d, %s: sum %d mean %v, want sum %d mean %v",
					trial, name, got.Sum, got.mean(), want.Sum, want.mean())
			}
		}
	}
}

// TestSketchSumBound pins the bound stated on the type with the widest
// sketch in the tree, ingest's shed_bytes (0 to 64 MiB): ten million
// observations at the top of the range leave the mean exact, where a sum in
// 1e-6 ticks would have wrapped the int64 after 1.4e5 of them.
func TestSketchSumBound(t *testing.T) {
	const hi = 64 << 20
	s := NewSketch(0, hi, 256)
	for i := 0; i < 1e7; i++ {
		s.Add(2 * hi) // clamps to hi
	}
	if s.Sum != 1e7*hi || s.mean() != hi {
		t.Fatalf("after 1e7 saturated adds: sum %d, mean %v, want mean %d exactly", s.Sum, s.mean(), hi)
	}
	// The widest range that keeps 1e-6 ticks is the worst case of the bound.
	if m := NewSketch(-1e5, 1e5, 10); m.ticks != 1e6 || math.MaxInt64/(1e5*m.ticks) < 9.2e7 {
		t.Fatalf("a ±1e5 range sums in ticks of 1/%g", m.ticks)
	}
	if w := NewSketch(0, 1e5+1, 10); w.ticks != 1 {
		t.Fatalf("a range past 1e5 sums in ticks of 1/%g, want whole units", w.ticks)
	}
}
