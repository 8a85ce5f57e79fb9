package chaos

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// Each test registers fresh uniquely-named sites (the registry is
// process-global and names cannot be re-registered).
var siteSeq int

func testSite(t *testing.T) *Site {
	t.Helper()
	siteSeq++
	s := NewSite(fmt.Sprintf("test.site.%d", siteSeq))
	t.Cleanup(Disarm)
	return s
}

func TestDisarmedHitZeroAlloc(t *testing.T) {
	s := testSite(t)
	var f Fault
	allocs := testing.AllocsPerRun(1000, func() {
		f = s.Fault()
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if f.Active() {
		t.Fatalf("disarmed site injected %v", f)
	}
	if allocs != 0 {
		t.Fatalf("disarmed hit allocated %.1f times per run, want 0", allocs)
	}
}

func TestErrorRulePhase(t *testing.T) {
	s := testSite(t)
	if err := Arm(Rule{Site: s.name, Kind: FaultError, After: 3, Every: 5, Count: 2}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 30; i++ {
		if err := s.Err(); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error %v does not wrap ErrInjected", i, err)
			}
			fired = append(fired, i)
		}
	}
	// After=3 skips hits 1..3; Every=5 fires on eligible hits 4, 9, 14, ...;
	// Count=2 stops after two firings.
	want := []int{4, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on hits %v, want %v", fired, want)
		}
	}
	if got := s.injected.Load(); got != 2 {
		t.Fatalf("Injections() = %d, want 2", got)
	}
	if got := Injections(s.name); got != 2 {
		t.Fatalf("Injections(%q) = %d, want 2", s.name, got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := testSite(t)
	run := func() []uint64 {
		if err := Arm(Rule{Site: s.name, Kind: FaultError, After: 2, Every: 3}); err != nil {
			t.Fatal(err)
		}
		var ticks []uint64
		for i := 0; i < 20; i++ {
			if f := s.Fault(); f.Active() {
				ticks = append(ticks, f.Tick)
			}
		}
		return ticks
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ: %v vs %v", a, b)
		}
	}
}

func TestFaultDefaults(t *testing.T) {
	s := testSite(t)
	if err := Arm(
		Rule{Site: s.name, Kind: FaultPartial, Count: 1},
		Rule{Site: s.name, Kind: FaultDelay, Count: 1},
		// NaN passes a plain "<= 0 || >= 1" range check unchanged.
		Rule{Site: s.name, Kind: FaultPartial, Frac: math.NaN(), Count: 1},
	); err != nil {
		t.Fatal(err)
	}
	f := s.Fault()
	if f.Kind != FaultPartial || f.Frac != 0.5 {
		t.Fatalf("first fault = %+v, want partial frac 0.5", f)
	}
	if f.Err == nil || !errors.Is(f.Err, ErrInjected) {
		t.Fatalf("partial fault error %v does not wrap ErrInjected", f.Err)
	}
	f = s.Fault()
	if f.Kind != FaultDelay || f.Delay != 10*time.Millisecond {
		t.Fatalf("second fault = %+v, want delay 10ms", f)
	}
	if f = s.Fault(); f.Kind != FaultPartial || f.Frac != 0.5 {
		t.Fatalf("third fault = %+v, want a NaN frac defaulted to 0.5", f)
	}
	if f = s.Fault(); f.Active() {
		t.Fatalf("exhausted rules still fired: %+v", f)
	}
}

func TestErrAppliesDelayInline(t *testing.T) {
	s := testSite(t)
	if err := Arm(Rule{Site: s.name, Kind: FaultDelay, Delay: 20 * time.Millisecond, Count: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Err(); err != nil {
		t.Fatalf("delay fault surfaced as error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("Err returned after %v, want >= 20ms stall", d)
	}
}

func TestArmRejectsUnknownSiteAndNoneKind(t *testing.T) {
	s := testSite(t)
	for _, r := range []Rule{
		{Site: "no.such.site", Kind: FaultError},
		{Site: s.name}, // faultNone
		// Negative hit counts misfire: Count -1 fires on every hit, After
		// -1 wraps to never, Every -3 fires on every hit.
		{Site: s.name, Kind: FaultError, Count: -1},
		{Site: s.name, Kind: FaultError, After: -1},
		{Site: s.name, Kind: FaultError, Every: -3},
	} {
		if err := Arm(r); err == nil {
			t.Errorf("Arm accepted %+v", r)
		}
	}
	// A failed Arm must not have armed anything.
	if err := s.Err(); err != nil {
		t.Fatalf("site armed by a failed Arm call: %v", err)
	}
}

func TestDisarmStopsInjection(t *testing.T) {
	s := testSite(t)
	if err := Arm(Rule{Site: s.name, Kind: FaultError}); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err == nil {
		t.Fatal("armed site did not inject")
	}
	Disarm()
	if err := s.Err(); err != nil {
		t.Fatalf("disarmed site injected: %v", err)
	}
	if got := s.injected.Load(); got != 1 {
		t.Fatalf("Injections() = %d after Disarm, want 1 (counter stays readable)", got)
	}
}

func TestArmResetsCounters(t *testing.T) {
	s := testSite(t)
	if err := Arm(Rule{Site: s.name, Kind: FaultError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	_ = s.Err()
	if err := Arm(Rule{Site: s.name, Kind: FaultError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.injected.Load(); got != 0 {
		t.Fatalf("Injections() = %d after re-Arm, want 0", got)
	}
	if err := s.Err(); err == nil {
		t.Fatal("re-armed one-shot rule did not fire (hit counter not reset)")
	}
}

func TestConcurrentHitsBoundedCount(t *testing.T) {
	s := testSite(t)
	const count = 7
	if err := Arm(Rule{Site: s.name, Kind: FaultError, Count: count}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Err()
			}
		}()
	}
	wg.Wait()
	if got := s.injected.Load(); got != count {
		t.Fatalf("Injections() = %d under concurrency, want exactly %d", got, count)
	}
}

func TestScheduleDeterministicAndStaggered(t *testing.T) {
	in := []Rule{
		{Site: "a", Kind: FaultError},
		{Site: "b", Kind: FaultDelay},
		{Site: "c", Kind: FaultError, After: 5, Every: 2}, // explicit: untouched
	}
	out1 := Schedule(42, in)
	out2 := Schedule(42, in)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("Schedule(42) not deterministic: %+v vs %+v", out1[i], out2[i])
		}
	}
	if out1[2].After != 5 || out1[2].Every != 2 {
		t.Fatalf("explicit rule modified: %+v", out1[2])
	}
	for _, r := range out1[:2] {
		if r.Every < 2 {
			t.Fatalf("seeded rule got Every=%d, want >= 2", r.Every)
		}
	}
	if in[0].Every != 0 {
		t.Fatal("Schedule modified its input slice")
	}
	other := Schedule(43, in)
	if other[0] == out1[0] && other[1] == out1[1] {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSiteNamesSorted(t *testing.T) {
	a := testSite(t)
	names := SiteNames()
	found := false
	for i, n := range names {
		if n == a.name {
			found = true
		}
		if i > 0 && names[i-1] > n {
			t.Fatalf("SiteNames not sorted: %q before %q", names[i-1], n)
		}
	}
	if !found {
		t.Fatalf("SiteNames missing %q", a.name)
	}
}
