package trace_test

import (
	"fmt"
	"time"

	"dragonfly/internal/trace"
)

// ExampleGenerateHead synthesizes a head-motion trace and reads it back at
// arbitrary instants.
func ExampleGenerateHead() {
	head := trace.GenerateHead(trace.HeadGenParams{
		UserID:   "demo",
		Class:    trace.MotionMedium,
		Duration: 10 * time.Second,
		Seed:     1,
	})
	fmt.Printf("duration: %s\n", head.Duration())
	fmt.Printf("sampled every: %s\n", head.SamplePeriod)
	o := head.At(5 * time.Second)
	fmt.Printf("orientation at 5s is valid: %v\n",
		o.Yaw >= -180 && o.Yaw < 180 && o.Pitch >= -90 && o.Pitch <= 90)
	// Output:
	// duration: 10s
	// sampled every: 40ms
	// orientation at 5s is valid: true
}

// ExampleFilter applies the paper's trace-selection rule (§4.2).
func ExampleFilter() {
	steady := func(mbps float64) *trace.BandwidthTrace {
		s := make([]float64, 60)
		for i := range s {
			s[i] = mbps
		}
		return &trace.BandwidthTrace{ID: fmt.Sprintf("%v-mbps", mbps), SamplePeriod: time.Second, Mbps: s}
	}
	candidates := []*trace.BandwidthTrace{steady(3), steady(15), steady(80)}
	kept := trace.Filter(candidates, trace.Belgian.Filter)
	for _, tr := range kept {
		fmt.Println(tr.ID)
	}
	// Output:
	// 15-mbps
}
