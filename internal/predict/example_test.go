package predict_test

import (
	"fmt"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/predict"
)

// ExampleViewport shows the linear-regression viewport predictor tracking a
// steadily turning user.
func ExampleViewport() {
	p := predict.NewViewport(0)
	// A user turning at 20 degrees per second, sampled at the HMD's 40 ms.
	for i := 0; i <= 25; i++ {
		t := time.Duration(i) * 40 * time.Millisecond
		p.Observe(t, geom.Orientation{Yaw: 20 * t.Seconds()})
	}
	at2s := p.Predict(2 * time.Second)
	fmt.Printf("predicted yaw at t=2s: %.0f degrees\n", at2s.Yaw)
	// Output:
	// predicted yaw at t=2s: 40 degrees
}

// ExampleBandwidth shows the harmonic-mean throughput estimator the
// schedulers budget against.
func ExampleBandwidth() {
	b := predict.NewBandwidth(0)
	b.ObserveTransfer(625_000, time.Second)   // 5 Mbps
	b.ObserveTransfer(2_500_000, time.Second) // 20 Mbps
	fmt.Printf("harmonic mean of 5 and 20 Mbps: %.0f Mbps\n", b.PredictMbps())
	// Output:
	// harmonic mean of 5 and 20 Mbps: 8 Mbps
}
