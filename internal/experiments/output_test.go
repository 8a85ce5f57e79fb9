package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedOutput is the SHA-256 of each deterministic experiment's report on
// SmallEnv with 6 study users — the bytes `experiment -run <id> -scale
// small -study-users 6` prints, less its `[… done in …]` line. A change
// that must not move a decision leaves every entry as it is; one that
// moves a decision on purpose re-pins the entries it moves, and says so.
var pinnedOutput = map[string]string{
	"fig2":          "ce4b02aa567922126aed10fb3fdc0193721d45efc677e2e16e34897186735d88",
	"fig5":          "f01c04aacc02f262c49e504f87fbe822950d4bb1c2ad161304c1c7c8be578476",
	"table1":        "c010bb902d35d3b61b4312d694996d6098bd0951ceec269946856ba4bfd643ee",
	"fig9":          "09fa5b90bad069443007c8db8f0b909e333f9e05bcfea491c1c20c6a33f06ad8",
	"fig10":         "a228b993e2c020a12f1a2646f68d0fdab361ab2f90427f2eeb81bfed0b700473",
	"fig11":         "37aac237931e6019b7cd73c8fa433c389010c3e4db339a66b80e109db88fdc71",
	"table2":        "5240464d5d8bf910f486cddc8118220a7c8c875fc454f52ae2f932cdb8beb44b",
	"fig12":         "6c2367ef54aba822ef2503cc840a5a3a63c5f756dc0c764f0f13331e21d126bc",
	"fig14-17":      "f6ab6b7002f2cdbe649440ea0e4332e6b91015410c9af7832cb31ae9c250f49f",
	"fig18":         "c078af4827df656d3bc9ff2552f31fabc88499aa4434c1a550532b0c5855a987",
	"fig19":         "5cca344827517202acbfc1447decbc05581579f3421af3dd6221155af4e64154",
	"fig20":         "c58b45c6d7708493121bbc27b65b3c6e4c3b1be349984d855c45861947bf090f",
	"fig21-23":      "85f33b19b5f0c078f5d45bad6243f0fc60ffa6e75288a6393d68f13e6b8b3fc1",
	"table3":        "3c51b9adbb01591967c6a48dca2a2b880e803b780b1730b35445df65339fabd2",
	"tiling":        "0cab751b19c6db41b7878d9d33437b4ac2fa03b1fcb25dc4aa66ca26a408eae9",
	"ext-predictor": "c3728bb02a9e3c5331aaeb305f100d4808eb2114f723d42af986fda97e4f0a6d",
	"ext-interval":  "dbaea42c93678195e59962d53d406be8344b053bcf875f97990c617ff260fea5",
	"ext-decode":    "2e03d4afbd906f83acc547f6eb8051775890f5fe3f19a86f3d8378fa9f91368c",
	"ext-roi":       "7ad05604beac9a20b80561ede085248cc7239d97b56ce5b3958c8651ea0fed5f",
	"ext-masking":   "f79f738567b7026985983b085a5c9609bcc2b32d74252459a717a5a3f191f22b",
	"population":    "23f2473795752707e7637f2a26cf00240de2fd0de624e87e15d1347ebfb1c6fe",
}

// wallClock are the registry entries that stream over live sockets in real
// time. Their reports carry timings and addresses, so their own tests gate
// them instead.
var wallClock = map[string]bool{
	"ext-fault": true, "chaos": true, "fleet-chaos": true, "chaos-soak": true, "qoe-feedback": true,
}

// TestDeterministicOutputPinned runs every other registry entry on a fresh
// SmallEnv and compares its report's digest with pinnedOutput, so a
// refactor that moves one printed byte fails naming the experiment.
func TestDeterministicOutputPinned(t *testing.T) {
	env := SmallEnv()
	ran := 0
	for _, e := range All(6) {
		if wallClock[e.ID] {
			continue
		}
		ran++
		var buf bytes.Buffer
		if err := e.Run(env, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if want, ok := pinnedOutput[e.ID]; !ok {
			t.Errorf("%s: no pinned digest (report sha256 %s)", e.ID, got)
		} else if got != want {
			t.Errorf("%s: report sha256 %s, pinned %s", e.ID, got, want)
		}
	}
	if ran != len(pinnedOutput) {
		t.Errorf("ran %d experiments, %d pinned", ran, len(pinnedOutput))
	}
}
