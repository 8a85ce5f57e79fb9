package decoder

import (
	"testing"
	"time"
)

func TestNilAndDisabledPassThrough(t *testing.T) {
	var nilModel *Model
	if got := nilModel.DecodeDone(time.Second, 1e6); got != time.Second {
		t.Errorf("nil model delayed decode: %v", got)
	}

	disabled := &Model{}
	if got := disabled.DecodeDone(time.Second, 1e6); got != time.Second {
		t.Errorf("disabled model delayed decode: %v", got)
	}
}

func TestSerialDecodeBacklog(t *testing.T) {
	m := &Model{ThroughputMBps: 1} // 1 MB/s: 1 MB takes 1 s
	first := m.DecodeDone(0, 1_000_000)
	if first != time.Second {
		t.Fatalf("first decode done at %v, want 1s", first)
	}
	// Second tile delivered during the first decode queues behind it.
	second := m.DecodeDone(100*time.Millisecond, 500_000)
	if second != 1500*time.Millisecond {
		t.Fatalf("second decode done at %v, want 1.5s", second)
	}
	// A tile delivered after the backlog clears starts immediately.
	third := m.DecodeDone(10*time.Second, 1_000_000)
	if third != 11*time.Second {
		t.Fatalf("third decode done at %v, want 11s", third)
	}
	if m.busyUntil != third {
		t.Errorf("busy = %v, want %v", m.busyUntil, third)
	}
}

func TestPerTileOverhead(t *testing.T) {
	m := &Model{ThroughputMBps: 1000, PerTileOverhead: 5 * time.Millisecond}
	done := m.DecodeDone(0, 1000) // ~1 microsecond of payload
	if done < 5*time.Millisecond || done > 6*time.Millisecond {
		t.Errorf("overhead not applied: %v", done)
	}
}
