package retry

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestDo(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	failFor := func(n int, last error) func(int) error {
		return func(k int) error {
			if k < n {
				return errA
			}
			return last
		}
	}
	cases := []struct {
		name      string
		attempts  int
		try       func(int) error
		want      error
		wantTries int
	}{
		{"first try succeeds", 3, failFor(0, nil), nil, 1},
		{"succeeds on the last try", 3, failFor(2, nil), nil, 3},
		{"attempts run out: the last error", 3, failFor(3, errB), errA, 3},
		{"permanent stops at once, unmarked", 5, failFor(1, Permanent(errB)), errB, 2},
		{"at least one try", 0, failFor(5, nil), errA, 1},
	}
	for _, c := range cases {
		var tries, waits []int
		err := Do(context.Background(), c.attempts,
			func(k int) time.Duration { waits = append(waits, k); return 0 },
			func(k int) error { tries = append(tries, k); return c.try(k) })
		if err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if len(tries) != c.wantTries {
			t.Errorf("%s: %d tries, want %d", c.name, len(tries), c.wantTries)
		}
		for i, k := range tries {
			if k != i {
				t.Errorf("%s: try %d got k = %d", c.name, i, k)
			}
		}
		// wait(k) runs before call k, for every call after the first.
		if len(waits) != len(tries)-1 {
			t.Errorf("%s: %d waits for %d tries", c.name, len(waits), len(tries))
		}
		for i, k := range waits {
			if k != i+1 {
				t.Errorf("%s: wait %d got k = %d, want %d", c.name, i, k, i+1)
			}
		}
	}
}

// An ending ctx cuts a pending wait short, and the error carries both the
// last try's error and the context's.
func TestDoContextCutsWait(t *testing.T) {
	errA := errors.New("a")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	tries := 0
	err := Do(ctx, 10, func(int) time.Duration { return time.Hour },
		func(int) error { tries++; return errA })
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do returned after %v; the hour-long wait was not cut short", elapsed)
	}
	if tries != 1 || !errors.Is(err, errA) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("tries %d, err %v: want 1 try and an error wrapping both causes", tries, err)
	}
	// An ended ctx is not tried at all.
	tries = 0
	if err := Do(ctx, 3, nil, func(int) error { tries++; return nil }); tries != 0 || err != context.DeadlineExceeded {
		t.Errorf("ended ctx: %d tries, err %v; want 0 and the context's error", tries, err)
	}
}

func TestExp(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		base, max time.Duration
		doublings int
		want      time.Duration
	}{
		{100 * ms, 2000 * ms, -1, 100 * ms},
		{100 * ms, 2000 * ms, 0, 100 * ms},
		{100 * ms, 2000 * ms, 1, 200 * ms},
		{100 * ms, 2000 * ms, 4, 1600 * ms},
		{100 * ms, 2000 * ms, 5, 2000 * ms}, // 3200 capped
		{100 * ms, 2000 * ms, 8, 2000 * ms},
		{3000 * ms, 2000 * ms, 0, 2000 * ms}, // base past the cap
		{time.Second, time.Hour, math.MaxInt, time.Hour},
	}
	for _, c := range cases {
		if got := Exp(c.base, c.max, c.doublings); got != c.want {
			t.Errorf("Exp(%v, %v, %d) = %v, want %v", c.base, c.max, c.doublings, got, c.want)
		}
	}
}

func TestJitter(t *testing.T) {
	d := 200 * time.Millisecond
	for _, c := range []struct {
		u    float64
		want time.Duration
	}{{0, 100 * time.Millisecond}, {0.5, 200 * time.Millisecond}, {0.25, 150 * time.Millisecond}} {
		if got := Jitter(d, c.u); got != c.want {
			t.Errorf("Jitter(%v, %v) = %v, want %v", d, c.u, got, c.want)
		}
	}
	if got := Jitter(d, math.Nextafter(1, 0)); got >= 3*d/2 || got < d {
		t.Errorf("Jitter at u→1 = %v, want just under %v", got, 3*d/2)
	}
}
