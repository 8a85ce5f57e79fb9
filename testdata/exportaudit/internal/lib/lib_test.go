package lib

import "testing"

func TestProbe(t *testing.T) {
	if got := Probe(NewSite("x")); got != "site:x" {
		t.Fatalf("Probe = %q", got)
	}
}
