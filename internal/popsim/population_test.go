package popsim

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/trace"
)

func testModel(seed int64) Model {
	m := DefaultModel(seed)
	m.Duration = 5 * time.Second
	return m
}

// TestSampleDeterminism: the same (seed, index) must reproduce the member
// byte for byte — the foundation of the worker/shard invariance contract.
func TestSampleDeterminism(t *testing.T) {
	m := testModel(42)
	for _, i := range []int{0, 1, 7, 999, 123456} {
		a, b := m.Sample(i), m.Sample(i)
		if a.Cohort != b.Cohort {
			t.Fatalf("member %d cohort %q != %q", i, a.Cohort, b.Cohort)
		}
		if !reflect.DeepEqual(a.Head, b.Head) {
			t.Fatalf("member %d head trace differs across samples", i)
		}
		if !reflect.DeepEqual(a.Bandwidth, b.Bandwidth) {
			t.Fatalf("member %d bandwidth trace differs across samples", i)
		}
	}
	// Distinct members are actually distinct users, not clones.
	a, b := m.Sample(1), m.Sample(2)
	if reflect.DeepEqual(a.Head.Samples, b.Head.Samples) {
		t.Error("members 1 and 2 share a head trace")
	}
	if reflect.DeepEqual(a.Bandwidth.Mbps, b.Bandwidth.Mbps) {
		t.Error("members 1 and 2 share a bandwidth trace")
	}
	// A different seed is a different population.
	if c := testModel(43).Sample(1); reflect.DeepEqual(a.Head.Samples, c.Head.Samples) {
		t.Error("seed 42 and 43 produced the same member")
	}
}

// TestMixtureWeights: every declared class is sampled, at its configured
// share of the population (within sampling noise).
func TestMixtureWeights(t *testing.T) {
	m := testModel(7)
	m.Motion = []MotionWeight{
		{Class: trace.MotionLow, Weight: 0.5},
		{Class: trace.MotionMedium, Weight: 0.3},
		{Class: trace.MotionHigh, Weight: 0.2},
	}
	m.Nets = []NetWeight{
		{Class: BelgianClass(), Weight: 0.7},
		{Class: irishClass(), Weight: 0.3},
	}
	const n = 4000
	motion := map[string]int{}
	nets := map[string]int{}
	for i := 0; i < n; i++ {
		mem := m.Sample(i)
		if mem.Cohort != mem.Head.ClassName()+":"+mem.Bandwidth.NetClass() {
			t.Fatalf("member %d cohort %q inconsistent with traces", i, mem.Cohort)
		}
		motion[mem.Head.ClassName()]++
		nets[mem.Bandwidth.NetClass()]++
	}
	check := func(kind, class string, got int, want float64) {
		frac := float64(got) / n
		if math.Abs(frac-want) > 0.04 {
			t.Errorf("%s class %q: sampled %.3f of population, want %.2f", kind, class, frac, want)
		}
		if got == 0 {
			t.Errorf("%s class %q never sampled", kind, class)
		}
	}
	check("motion", "low", motion["low"], 0.5)
	check("motion", "medium", motion["medium"], 0.3)
	check("motion", "high", motion["high"], 0.2)
	check("net", "belgian", nets["belgian"], 0.7)
	check("net", "irish", nets["irish"], 0.3)
}

// TestSampleConcurrent: per-worker sampling is lock-free and race-clean
// (run under -race), and concurrent samples equal serial ones.
func TestSampleConcurrent(t *testing.T) {
	m := testModel(11)
	const n = 64
	serial := make([]Member, n)
	for i := range serial {
		serial[i] = m.Sample(i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping strides so every index is sampled by several
			// goroutines at once.
			for i := w % 2; i < n; i += 2 {
				got := m.Sample(i)
				if !reflect.DeepEqual(got, serial[i]) {
					errs <- fmt.Errorf("worker %d: member %d differs from serial sample", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFilterApplied: members of a filtered class respect the §4.2 cap
// even when the resampling loop exhausts its attempts.
func TestFilterApplied(t *testing.T) {
	m := testModel(3)
	for i := 0; i < 200; i++ {
		mem := m.Sample(i)
		for _, v := range mem.Bandwidth.Mbps {
			if v > 28 {
				t.Fatalf("member %d: sample %.1f Mbps above the 28 Mbps cap", i, v)
			}
		}
	}
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel(1).validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []Model{
		{},
		{Motion: []MotionWeight{{Weight: 1}}},
		{Motion: []MotionWeight{{Weight: 0}}, Nets: []NetWeight{{Class: BelgianClass(), Weight: 0}}},
		{Motion: []MotionWeight{{Weight: -1}}, Nets: []NetWeight{{Class: BelgianClass(), Weight: 1}}},
		{Motion: []MotionWeight{{Weight: 1}}, Nets: []NetWeight{{Weight: 1}}}, // unnamed net class
	}
	for i, m := range bad {
		if err := m.validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}
