package netem

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFaultCSVRoundTrip(t *testing.T) {
	fs := &FaultSchedule{Events: []FaultEvent{
		{At: 1500 * time.Millisecond, Kind: FaultDisconnect},
		{At: 4 * time.Second, Kind: faultBlackout, Duration: 2 * time.Second},
		{At: 8200 * time.Millisecond, Kind: faultLatencySpike, Duration: time.Second, ExtraLatency: 300 * time.Millisecond},
	}}
	got, err := ReadFaultCSV(strings.NewReader(`at_s,kind,duration_s,extra_latency_ms
1.5,disconnect,0,0
4,blackout,2,0
8.2,spike,1,300
`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, fs.Events) {
		t.Errorf("parse mismatch:\n got %+v\nwant %+v", got.Events, fs.Events)
	}
	if got.Disconnects() != 1 {
		t.Errorf("Disconnects = %d", got.Disconnects())
	}
}

func TestReadFaultCSVWithoutHeader(t *testing.T) {
	fs, err := ReadFaultCSV(strings.NewReader("0.5,disconnect,0,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Events) != 1 || fs.Events[0].Kind != FaultDisconnect || fs.Events[0].At != 500*time.Millisecond {
		t.Errorf("parsed %+v", fs.Events)
	}
}

func TestReadFaultCSVErrors(t *testing.T) {
	for _, bad := range []string{
		"x,disconnect,0,0\n",     // bad offset
		"-1,disconnect,0,0\n",    // negative offset
		"1,meteor,0,0\n",         // unknown kind
		"1,blackout,oops,0\n",    // bad duration
		"1,spike,1,-5\n",         // negative latency
		"1,spike,1\n",            // short record
		"at_s,kind\n1,spike,1\n", // short header
		// Non-finite and huge values pass a bare "< 0" check and wrap the
		// float-to-Duration conversion negative.
		"NaN,disconnect,0,0\n",
		"Inf,disconnect,0,0\n",
		"1e300,disconnect,0,0\n",
		"1,blackout,NaN,0\n",
		"1,blackout,1e300,0\n",
		"1,spike,1,Inf\n",
		"86401,disconnect,0,0\n", // past the one-day bound
	} {
		if _, err := ReadFaultCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseFaultKind(t *testing.T) {
	for _, k := range []FaultKind{faultBlackout, FaultDisconnect, faultLatencySpike} {
		got, err := parseFaultKind(k.String())
		if err != nil || got != k {
			t.Errorf("parseFaultKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := parseFaultKind("nope"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestFaultLinkDisconnectClosesCurrentConn(t *testing.T) {
	fl := &FaultLink{Schedule: &FaultSchedule{Events: []FaultEvent{
		{At: 50 * time.Millisecond, Kind: FaultDisconnect},
	}}}
	defer fl.Stop()

	c, s := fl.Pipe()
	defer c.Close()
	// A read on the client side unblocks with an error once the timer
	// hard-closes the server side.
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := c.Read(buf)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("read succeeded across a disconnect")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("disconnect never fired")
	}
	_ = s

	// The next pipe over the same link works: the disconnect fired once.
	c2, s2 := fl.Pipe()
	defer c2.Close()
	defer s2.Close()
	go func() { _, _ = s2.Write([]byte("ok")) }()
	buf := make([]byte, 2)
	if _, err := c2.Read(buf); err != nil {
		t.Fatalf("reconnected pipe broken: %v", err)
	}
}

func TestFaultLinkBlackoutStallsWrites(t *testing.T) {
	fl := &FaultLink{Schedule: &FaultSchedule{Events: []FaultEvent{
		{At: 0, Kind: faultBlackout, Duration: 300 * time.Millisecond},
	}}}
	defer fl.Stop()
	c, s := fl.Pipe()
	defer c.Close()
	defer s.Close()

	done := make(chan time.Duration, 1)
	go func() {
		buf := make([]byte, 2)
		start := time.Now()
		_, _ = c.Read(buf)
		done <- time.Since(start)
	}()
	if _, err := s.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if d := <-done; d < 200*time.Millisecond {
		t.Errorf("write crossed a blackout after only %v", d)
	}
}

func TestFaultLinkSpikeDelaysWrites(t *testing.T) {
	fl := &FaultLink{Schedule: &FaultSchedule{Events: []FaultEvent{
		{At: 0, Kind: faultLatencySpike, Duration: time.Second, ExtraLatency: 150 * time.Millisecond},
	}}}
	defer fl.Stop()
	c, s := fl.Pipe()
	defer c.Close()
	defer s.Close()

	go func() {
		buf := make([]byte, 2)
		_, _ = c.Read(buf)
	}()
	start := time.Now()
	if _, err := s.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("spiked write returned after only %v", d)
	}
}

func TestFaultCSVCorruptionKindsRoundTrip(t *testing.T) {
	fs := &FaultSchedule{Events: []FaultEvent{
		{At: 500 * time.Millisecond, Kind: FaultBitFlip},
		{At: 2 * time.Second, Kind: FaultTruncate},
	}}
	got, err := ReadFaultCSV(strings.NewReader("at_s,kind,duration_s,extra_latency_ms\n0.5,bitflip,0,0\n2,truncate,0,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, fs.Events) {
		t.Errorf("parse mismatch:\n got %+v\nwant %+v", got.Events, fs.Events)
	}
}

func TestFaultLinkBitFlipCorruptsOneWrite(t *testing.T) {
	fl := &FaultLink{
		Link:     Link{}, // unshaped
		Schedule: &FaultSchedule{Events: []FaultEvent{{At: 0, Kind: FaultBitFlip}}},
		Seed:     7,
	}
	defer fl.Stop()
	client, server := fl.Pipe()
	defer client.Close()
	defer server.Close()

	payload := make([]byte, 64) // all zeros
	go func() {
		server.Write(payload)
		server.Write(payload) // one-shot: the second write is clean
	}()
	buf := make([]byte, 64)
	readFull := func() []byte {
		got := buf[:0]
		for len(got) < 64 {
			n, err := client.Read(buf[len(got):64])
			if err != nil {
				t.Errorf("read: %v", err)
				return nil
			}
			got = buf[:len(got)+n]
		}
		return got
	}
	first := append([]byte(nil), readFull()...)
	second := readFull()
	diff := 0
	for _, b := range first {
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("first write has %d flipped bits, want exactly 1", diff)
	}
	for _, b := range second {
		if b != 0 {
			t.Fatalf("second write corrupted: % x", second)
		}
	}
}

func TestFaultLinkTruncateDropsHalfButReportsFull(t *testing.T) {
	fl := &FaultLink{
		Link:     Link{},
		Schedule: &FaultSchedule{Events: []FaultEvent{{At: 0, Kind: FaultTruncate}}},
	}
	defer fl.Stop()
	client, server := fl.Pipe()
	defer client.Close()

	payload := make([]byte, 32)
	wrote := make(chan int, 1)
	go func() {
		n, _ := server.Write(payload)
		wrote <- n
		server.Close()
	}()
	var got int
	buf := make([]byte, 64)
	for {
		n, err := client.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if n := <-wrote; n != 32 {
		t.Errorf("truncated write reported %d bytes, want full 32", n)
	}
	if got != 16 {
		t.Errorf("received %d bytes, want the truncated 16", got)
	}
}

// FuzzReadFaultCSV: the parser reads operator-supplied files; it must never
// panic, and every time field of an accepted event is non-negative and
// within maxFaultSpan, so FaultLink.wrap never arms a timer in the past.
func FuzzReadFaultCSV(f *testing.F) {
	f.Add("at_s,kind,duration_s,extra_latency_ms\n1.5,disconnect,0,0\n8.2,spike,1,300\n")
	f.Add("NaN,disconnect,0,0\n")
	f.Add("1,blackout,Inf,0\n")
	f.Add("1,spike,1,1e300\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		fs, err := ReadFaultCSV(strings.NewReader(raw))
		if err != nil {
			return
		}
		for _, ev := range fs.Events {
			for _, d := range []time.Duration{ev.At, ev.Duration, ev.ExtraLatency} {
				if d < 0 || d > maxFaultSpan {
					t.Fatalf("accepted event %+v has a time field outside [0, %v]", ev, maxFaultSpan)
				}
			}
		}
	})
}
