package chaos

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenRules is what testdata/rules.1.golden parses to.
var goldenRules = []Rule{
	{Site: "netem.link.write", Kind: FaultCorrupt, After: 40, Count: 1},
	{Site: "netem.link.write", Kind: FaultError, After: 120, Count: 1},
	{Site: "netem.link.write", Kind: FaultPartial, After: 200, Count: 1, Frac: 0.5},
	{Site: "netem.link.write", Kind: FaultDelay, After: 300, Every: 100, Count: 3, Delay: 250 * time.Millisecond},
	{Site: "server.send.write", Kind: FaultError, Every: 50, Count: 2},
}

// TestReadRulesGolden holds the rule format to its vector: the file parses
// to goldenRules, with or without its header row, and EXPERIMENTS.md's
// example is the vector byte for byte.
func TestReadRulesGolden(t *testing.T) {
	vector, err := os.ReadFile("testdata/rules.1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRules(bytes.NewReader(vector))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenRules) {
		t.Errorf("parsed\n %+v\nwant\n %+v", got, goldenRules)
	}
	_, body, _ := bytes.Cut(vector, []byte("\n"))
	if got, err := ReadRules(bytes.NewReader(body)); err != nil || !reflect.DeepEqual(got, goldenRules) {
		t.Errorf("headerless parse = %+v, %v; want the same rules", got, err)
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := bytes.Cut(doc, []byte("### Fault rule format\n"))
	_, block, ok2 := bytes.Cut(section, []byte("```\n"))
	block, _, ok3 := bytes.Cut(block, []byte("```\n"))
	if !ok || !ok2 || !ok3 {
		t.Fatal("EXPERIMENTS.md has no example block under \"### Fault rule format\"")
	}
	if !bytes.Equal(block, vector) {
		t.Errorf("EXPERIMENTS.md example differs from testdata/rules.1.golden:\n%s", block)
	}
}

// TestReadRulesRefusesOffsetScript: the retired time-offset format is
// refused with the typed error, which names the rule format.
func TestReadRulesRefusesOffsetScript(t *testing.T) {
	_, err := ReadRules(strings.NewReader("at_s,kind,duration_s,extra_latency_ms\n1.5,disconnect,0,0\n4.0,blackout,2.0,0\n8.2,spike,1.0,300\n"))
	if !errors.Is(err, errOffsetScript) {
		t.Fatalf("err = %v, want errOffsetScript", err)
	}
	if !strings.Contains(err.Error(), strings.Join(ruleHeader[:], ",")) {
		t.Errorf("error %q does not name the rule format", err)
	}
}

func TestReadRulesErrors(t *testing.T) {
	for _, bad := range []string{
		"netem.link.write,meteor,0,0,1,0,0\n", // unknown kind
		"netem.link.write,none,0,0,1,0,0\n",   // the disarmed kind
		"netem.link.write,error,x,0,1,0,0\n",  // bad numbers
		"netem.link.write,error,0,1.5,1,0,0\n",
		"netem.link.write,delay,0,0,1,oops,0\n",
		"netem.link.write,partial,0,0,1,0,half\n",
		"netem.link.write,error,-1,0,1,0,0\n", // negatives
		"netem.link.write,error,0,-3,1,0,0\n",
		"netem.link.write,error,0,0,-1,0,0\n",
		"netem.link.write,delay,0,0,1,-5,0\n",
		"netem.link.write,partial,0,0,1,0,-0.5\n",
		"netem.link.write,delay,0,0,1,NaN,0\n", // non-finite and huge values
		"netem.link.write,partial,0,0,1,0,NaN\n",
		"netem.link.write,delay,0,0,1,Inf,0\n",
		"netem.link.write,partial,0,0,1,0,Inf\n",
		"netem.link.write,delay,0,0,1,1e300,0\n",
		"netem.link.write,error,1e300,0,1,0,0\n",
		"netem.link.write,error,99999999999999999999,0,1,0,0\n",
		"netem.link.write,delay,0,0,1,86400001,0\n", // past the one-day bound
		"netem.link.write,partial,0,0,1,0,1\n",      // a whole write is no partial
		"netem.link.write,error,1\n",                // short records
		"site,kind\nnetem.link.write,error,1,0,1,0,0\n",
		"netem.link.write,error,0,0,1,0,0,extra\n",
		"netem.link.write,\"error\n", // broken quoting
	} {
		if _, err := ReadRules(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// fuzzSite is where FuzzReadRules points every rule it parses.
var fuzzSite = NewSite("test.fuzz.rules")

// FuzzReadRules: the parser reads operator-supplied files. It must never
// panic, and every rule it accepts must arm at a registered site and
// inject faults within bounds: a delay in (0, maxDelay], a frac in (0, 1).
func FuzzReadRules(f *testing.F) {
	vector, err := os.ReadFile("testdata/rules.1.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add("at_s,kind,duration_s,extra_latency_ms\n1.5,disconnect,0,0\n8.2,spike,1,300\n")
	f.Add("NaN,disconnect,0,0\n")
	f.Add("1,blackout,Inf,0\n")
	f.Add("1,spike,1,1e300\n")
	f.Add("")
	f.Add(string(vector))
	f.Fuzz(func(t *testing.T, raw string) {
		rules, err := ReadRules(strings.NewReader(raw))
		if err != nil {
			return
		}
		for i := range rules {
			rules[i].Site = fuzzSite.name
		}
		if err := Arm(rules...); err != nil {
			t.Fatalf("Arm refused parsed rules %+v: %v", rules, err)
		}
		defer Disarm()
		for _, r := range rules {
			if r.Delay < 0 || r.Delay > maxDelay {
				t.Fatalf("parsed rule %+v has a delay outside [0, %v]", r, maxDelay)
			}
		}
		for i := 0; i < 8; i++ {
			f := fuzzSite.Fault()
			if f.Kind == FaultDelay && !(f.Delay > 0 && f.Delay <= maxDelay) ||
				f.Kind == FaultPartial && !(f.Frac > 0 && f.Frac < 1) {
				t.Fatalf("hit %d injected %+v", i+1, f)
			}
		}
	})
}
