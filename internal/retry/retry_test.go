package retry

import (
	"math"
	"testing"
	"time"
)

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
