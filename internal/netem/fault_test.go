package netem

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/chaos"
)

// armFaultFile parses a fault rule file, arms what it holds and disarms
// every site when the test ends. Arm refusing a rule means the file names
// a site this package does not register.
func armFaultFile(t *testing.T, file string) []chaos.Rule {
	t.Helper()
	rules, err := chaos.ReadRules(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chaos.Disarm)
	if err := chaos.Arm(rules...); err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestFaultCSVRoundTrip: a link fault file parses to its rules, and armed,
// the link plays them back on the writes they count to.
func TestFaultCSVRoundTrip(t *testing.T) {
	got := armFaultFile(t, `site,kind,after,every,count,delay_ms,frac
netem.link.write,delay,0,0,1,50,0
netem.link.write,error,1,0,1,0,0
`)
	want := []chaos.Rule{
		{Site: "netem.link.write", Kind: chaos.FaultDelay, Count: 1, Delay: 50 * time.Millisecond},
		{Site: "netem.link.write", Kind: chaos.FaultError, After: 1, Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse mismatch:\n got %+v\nwant %+v", got, want)
	}
	r := runLink(t, chaos.Rule{}, false)
	if r.took[0] < 50*time.Millisecond || r.errs[0] != nil {
		t.Errorf("first write (%v, %v), want stalled >= 50ms and delivered", r.took[0], r.errs[0])
	}
	if !errors.Is(r.errs[1], chaos.ErrInjected) || len(r.got) != 8 {
		t.Errorf("second write err %v, reader got %d bytes; want the injected cut after 8", r.errs[1], len(r.got))
	}
}

// TestFaultCSVCorruptionKindsRoundTrip: corrupt and partial rows parse,
// and on the link one write carries one flipped bit and the next arrives
// torn while its writer is told it all went.
func TestFaultCSVCorruptionKindsRoundTrip(t *testing.T) {
	got := armFaultFile(t, "site,kind,after,every,count,delay_ms,frac\n"+
		"netem.link.write,corrupt,0,0,1,0,0\n"+
		"netem.link.write,partial,1,0,1,0,0.5\n")
	want := []chaos.Rule{
		{Site: "netem.link.write", Kind: chaos.FaultCorrupt, Count: 1},
		{Site: "netem.link.write", Kind: chaos.FaultPartial, After: 1, Count: 1, Frac: 0.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse mismatch:\n got %+v\nwant %+v", got, want)
	}
	r := runLink(t, chaos.Rule{}, false)
	if r.ns[1] != 8 || r.errs[1] != nil {
		t.Errorf("torn write reported (%d, %v), want (8, nil)", r.ns[1], r.errs[1])
	}
	if len(r.got) != 8+4+8 {
		t.Fatalf("reader got %d bytes, want 8, then 4 of the torn write, then 8", len(r.got))
	}
	if bits := flipped(r.got); len(bits) != 1 || bits[0] >= 64 {
		t.Errorf("flipped bits %v, want exactly one, in the first write", bits)
	}
}

// TestReadFaultCSVWithoutHeader: a file of bare rows parses and arms.
func TestReadFaultCSVWithoutHeader(t *testing.T) {
	got := armFaultFile(t, "netem.link.write,error,0,0,1,0,0\n")
	if len(got) != 1 || got[0].Kind != chaos.FaultError || got[0].Count != 1 {
		t.Fatalf("parsed %+v", got)
	}
	if r := runLink(t, chaos.Rule{}, false); !errors.Is(r.errs[0], chaos.ErrInjected) {
		t.Errorf("first write err %v, want the injected cut", r.errs[0])
	}
}

// TestParseFaultKind: every fault kind a link acts on is read by its
// catalog name, and an unknown name is refused.
func TestParseFaultKind(t *testing.T) {
	for _, k := range []chaos.Kind{chaos.FaultError, chaos.FaultDelay, chaos.FaultPartial, chaos.FaultCorrupt} {
		got, err := chaos.ReadRules(strings.NewReader("netem.link.write," + k.String() + ",0,0,1,0,0\n"))
		if err != nil || len(got) != 1 || got[0].Kind != k {
			t.Errorf("kind %q parsed to %+v, %v", k.String(), got, err)
		}
	}
	if _, err := chaos.ReadRules(strings.NewReader("netem.link.write,nope,0,0,1,0,0\n")); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestFaultLinkBlackoutStallsWrites: while a delay rule stalls a write,
// nothing crosses the link to the reader.
func TestFaultLinkBlackoutStallsWrites(t *testing.T) {
	armFaultFile(t, "netem.link.write,delay,0,0,1,300,0\n")
	c, s := pipe(Link{})
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
		t.Errorf("write crossed a stalled link after only %v", d)
	}
}

// TestFaultLinkSpikeDelaysWrites: a delay rule holds the writer for its
// delay, fires only as often as its count allows, and loses nothing.
func TestFaultLinkSpikeDelaysWrites(t *testing.T) {
	armFaultFile(t, "netem.link.write,delay,0,0,1,150,0\n")
	r := runLink(t, chaos.Rule{}, false)
	if r.took[0] < 100*time.Millisecond {
		t.Errorf("delayed write returned after only %v", r.took[0])
	}
	if n := chaos.Injections("netem.link.write"); n != 1 {
		t.Errorf("link injected %d faults, want the rule's one", n)
	}
	if len(r.got) != 3*8 {
		t.Errorf("reader got %d bytes, want all 24", len(r.got))
	}
}
