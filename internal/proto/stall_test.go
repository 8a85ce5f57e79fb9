package proto

import (
	"testing"
	"time"
)

// TestStallMeter is the stall policy as a table: what the server (kills the
// session when Spend reports exhaustion) and the balancer (severs the splice
// when Remaining reaches zero, each write under a deadline of Remaining +
// Allowance) both read their behaviour off.
func TestStallMeter(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name      string
		budget    time.Duration
		allowance time.Duration
		writes    []time.Duration
		exhausted []bool // Spend's result per write
		remaining time.Duration
	}{
		{"off: a zero budget never exhausts", 0, 1 * ms,
			[]time.Duration{time.Hour, time.Hour}, []bool{false, false}, 2*ms - 2*time.Hour},
		{"writes inside the allowance are free", 100 * ms, 10 * ms,
			[]time.Duration{10 * ms, 9 * ms, 10 * ms}, []bool{false, false, false}, 100 * ms},
		{"only the excess accumulates", 100 * ms, 10 * ms,
			[]time.Duration{60 * ms, 30 * ms}, []bool{false, false}, 30 * ms},
		{"reaching the budget is not exceeding it", 100 * ms, 10 * ms,
			[]time.Duration{110 * ms, 10 * ms, 11 * ms}, []bool{false, false, true}, -1 * ms},
		{"small budgets get the 1 ms floor, not a tenth", 5 * ms, 1 * ms,
			[]time.Duration{3 * ms, 3 * ms, 2 * ms, 1 * ms}, []bool{false, false, false, false}, 0},
		{"one long write exhausts at once", 5 * ms, 1 * ms,
			[]time.Duration{15 * ms}, []bool{true}, -9 * ms},
	}
	for _, c := range cases {
		m := NewStallMeter(c.budget)
		if m.Allowance() != c.allowance {
			t.Errorf("%s: allowance %v, want %v", c.name, m.Allowance(), c.allowance)
		}
		for i, d := range c.writes {
			if got := m.Spend(d); got != c.exhausted[i] {
				t.Errorf("%s: write %d (%v): exhausted = %v, want %v", c.name, i, d, got, c.exhausted[i])
			}
		}
		if m.Remaining() != c.remaining {
			t.Errorf("%s: remaining %v, want %v", c.name, m.Remaining(), c.remaining)
		}
	}

	// A fully hung peer blocks for the whole per-write deadline the balancer
	// sets; that one write must leave nothing, whatever was spent before.
	m := NewStallMeter(20 * ms)
	m.Spend(7 * ms)
	m.Spend(m.Remaining() + m.Allowance())
	if m.Remaining() != 0 {
		t.Errorf("after a write that outlasted its deadline, remaining = %v, want 0", m.Remaining())
	}
}
