package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs holds every kind's output to the vectors under
// testdata/, which were written by tracegen before the Belgian and Irish
// profiles and the Table 3 builder moved into internal/trace and
// internal/video: a byte that moves is a changed input to every tool.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"head_low.golden", []string{"-kind", "head", "-motion", "low", "-seed", "3", "-duration", "10s"}},
		{"head_medium.golden", []string{"-kind", "head", "-motion", "medium", "-seed", "3", "-duration", "10s"}},
		{"head_high.golden", []string{"-kind", "head", "-motion", "high", "-seed", "3", "-duration", "10s"}},
		{"bandwidth_belgian_filtered.golden", []string{"-kind", "bandwidth", "-profile", "belgian", "-seed", "5"}},
		{"bandwidth_belgian_unfiltered.golden", []string{"-kind", "bandwidth", "-profile", "belgian", "-seed", "5", "-filtered=false"}},
		{"bandwidth_irish_filtered.golden", []string{"-kind", "bandwidth", "-profile", "irish", "-seed", "5"}},
		{"bandwidth_irish_unfiltered.golden", []string{"-kind", "bandwidth", "-profile", "irish", "-seed", "5", "-filtered=false"}},
		{"manifest_v27_10s.sha256", []string{"-kind", "manifest", "-video", "v27", "-duration", "10s"}},
		{"import_bytes.golden", []string{"-kind", "import", "-in", "testdata/interval_bytes.log", "-bytes"}},
		{"import_kbps.golden", []string{"-kind", "import", "-in", "testdata/interval_kbps.csv", "-comma", "-ts-col", "1", "-val-col", "2"}},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.golden, filepath.Ext(c.golden)), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.Bytes()
			if filepath.Ext(c.golden) == ".sha256" {
				sum := sha256.Sum256(got)
				got = []byte(hex.EncodeToString(sum[:]) + "\n")
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tracegen %s: output differs from testdata/%s", strings.Join(c.args, " "), c.golden)
			}
		})
	}
}

// TestOutFile: -out writes what stdout would have got.
func TestOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "head.csv")
	var out bytes.Buffer
	if err := run([]string{"-kind", "head", "-motion", "low", "-seed", "3", "-duration", "10s", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "head_low.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || out.Len() != 0 {
		t.Errorf("-out wrote %d bytes to the file (want %d) and %d to stdout", len(got), len(want), out.Len())
	}
}

// TestRefusals: inputs the generators cannot honour are refused with an
// error that names what is wrong, before anything is written.
func TestRefusals(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "head", "-duration", "-2s"}, "-duration -2s"},
		{[]string{"-kind", "bandwidth", "-duration", "-2s"}, "-duration -2s"},
		{[]string{"-kind", "manifest", "-duration", "-2s"}, "-duration -2s"},
		{[]string{"-kind", "head", "-duration", "0s"}, "-duration 0s"},
		{[]string{"-kind", "manifest", "-duration", "500ms"}, "-duration 500ms"},
		{[]string{"-kind", "manifest", "-duration", "10.5s"}, "-duration 10.5s"},
		{[]string{"-kind", "head", "-motion", "wild"}, `unknown motion class "wild"`},
		{[]string{"-kind", "bandwidth", "-profile", "dutch"}, `unknown profile "dutch"`},
		{[]string{"-kind", "bandwidth", "-profile", "irish", "-seed", "1"}, "seed 1 does not survive"},
		{[]string{"-kind", "manifest", "-video", "v99"}, `unknown video "v99"`},
		{[]string{"-kind", "import"}, "import requires -in"},
		{[]string{"-kind", "movie"}, `unknown kind "movie"`},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("tracegen %s: err %v, want one containing %q", strings.Join(c.args, " "), err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("tracegen %s: wrote %d bytes before refusing", strings.Join(c.args, " "), out.Len())
		}
	}
}
