package sim

import (
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/player"
)

// TestRunRejectsDisplayNameCollision is a regression test for the silent
// result overwrite: two sweep keys whose schemes share a display name (here
// an Extra factory shadowing the registry's "dragonfly") used to clobber
// each other's sessions in the Results map; now the sweep fails fast.
func TestRunRejectsDisplayNameCollision(t *testing.T) {
	sw := smallSweep("dragonfly", "dragonfly-shadow")
	sw.Extra = map[string]SchemeFactory{
		// Same display name as the registry's default Dragonfly.
		"dragonfly-shadow": func() player.Scheme {
			return core.New(core.Options{Masking: core.MaskNone, Name: "Dragonfly"})
		},
	}
	_, err := Run(sw)
	if err == nil {
		t.Fatal("Run accepted two schemes with the same display name")
	}
	if !strings.Contains(err.Error(), "Dragonfly") {
		t.Fatalf("error %q does not name the colliding display name", err)
	}
}

// TestRunAllowsDistinctExtraNames: an Extra factory under its own display
// name plays beside the registry scheme it is derived from.
func TestRunAllowsDistinctExtraNames(t *testing.T) {
	sw := smallSweep("dragonfly", "dragonfly-x")
	sw.Extra = map[string]SchemeFactory{
		"dragonfly-x": func() player.Scheme {
			return core.New(core.Options{Masking: core.MaskNone, Name: "Dragonfly-X"})
		},
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res["Dragonfly"]; !ok {
		t.Error("missing registry scheme results")
	}
	if _, ok := res["Dragonfly-X"]; !ok {
		t.Error("missing Extra scheme results")
	}
}
