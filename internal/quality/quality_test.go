package quality

import (
	"math"
	"testing"
	"testing/quick"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

func TestPSNRMSERoundTrip(t *testing.T) {
	f := func(dbRaw uint8) bool {
		db := 5 + float64(dbRaw%50) // 5..55 dB
		back := psnrFromMSE(mseFromPSNR(db))
		return math.Abs(back-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPSNRFromMSEKnownValues(t *testing.T) {
	// MSE 255² => 0 dB; MSE 650.25 (=255²/100) => 20 dB.
	if got := psnrFromMSE(255 * 255); math.Abs(got) > 1e-9 {
		t.Errorf("PSNR(255^2) = %v, want 0", got)
	}
	if got := psnrFromMSE(650.25); math.Abs(got-20) > 1e-9 {
		t.Errorf("PSNR(650.25) = %v, want 20", got)
	}
	if got := psnrFromMSE(0); got != 60 {
		t.Errorf("PSNR(0) = %v, want cap 60", got)
	}
	if got := psnrFromMSE(-1); got != 60 {
		t.Errorf("PSNR(-1) = %v, want cap 60", got)
	}
}

func TestMetricString(t *testing.T) {
	if PSNR.String() != "PSNR" || PSPNR.String() != "PSPNR" {
		t.Error("metric names wrong")
	}
}

func TestTileScoreSelectsMetric(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "q", Seed: 1, NumChunks: 2})
	tile := geom.TileID(10)
	p := TileScore(PSNR, m, 0, tile, video.Highest)
	pp := TileScore(PSPNR, m, 0, tile, video.Highest)
	if p != m.TilePSNR(0, tile, video.Highest) {
		t.Error("PSNR score mismatch")
	}
	if pp != m.TilePSPNR(0, tile, video.Highest) {
		t.Error("PSPNR score mismatch")
	}
	if pp < p {
		t.Error("PSPNR should be >= PSNR")
	}
}

func TestViewportAccumulator(t *testing.T) {
	var a ViewportAccumulator
	if a.weight != 0 || a.PSNR() != 0 {
		t.Error("zero accumulator should be empty")
	}
	a.Add(1, 40)
	if math.Abs(a.PSNR()-40) > 1e-9 {
		t.Errorf("single tile PSNR = %v", a.PSNR())
	}
	// Adding an equally weighted much worse tile must pull the aggregate
	// far below the arithmetic dB mean (MSE-domain averaging).
	a.Add(1, 10)
	got := a.PSNR()
	arithmetic := 25.0
	if got >= arithmetic-5 {
		t.Errorf("aggregate %v should be well below arithmetic mean %v", got, arithmetic)
	}
	// The exact value: mean MSE of 40 dB and 10 dB tiles.
	want := psnrFromMSE((mseFromPSNR(40) + mseFromPSNR(10)) / 2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
}

func TestViewportAccumulatorWeights(t *testing.T) {
	var a, b ViewportAccumulator
	a.Add(3, 30)
	a.Add(1, 50)
	b.Add(0.75, 30)
	b.Add(0.25, 50)
	if math.Abs(a.PSNR()-b.PSNR()) > 1e-9 {
		t.Error("accumulator not scale invariant in weights")
	}
	var c ViewportAccumulator
	c.Add(-1, 30) // ignored
	c.Add(0, 50)  // ignored
	if c.weight != 0 {
		t.Error("non-positive weights should be ignored")
	}
}

func TestViewportAccumulatorBounds(t *testing.T) {
	f := func(w1Raw, w2Raw, d1Raw, d2Raw uint8) bool {
		w1 := float64(w1Raw)/64 + 0.1
		w2 := float64(w2Raw)/64 + 0.1
		d1 := 5 + float64(d1Raw%50)
		d2 := 5 + float64(d2Raw%50)
		var a ViewportAccumulator
		a.Add(w1, d1)
		a.Add(w2, d2)
		got := a.PSNR()
		lo, hi := math.Min(d1, d2), math.Max(d1, d2)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
