package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/stats"
)

func TestHeadTraceAtInterpolates(t *testing.T) {
	h := &HeadTrace{
		SamplePeriod: 40 * time.Millisecond,
		Samples: []geom.Orientation{
			{Yaw: 0, Pitch: 0},
			{Yaw: 10, Pitch: 4},
			{Yaw: 20, Pitch: 8},
		},
	}
	o := h.At(20 * time.Millisecond)
	if math.Abs(o.Yaw-5) > 1e-9 || math.Abs(o.Pitch-2) > 1e-9 {
		t.Errorf("At(20ms) = %+v, want yaw 5 pitch 2", o)
	}
	if got := h.At(-time.Second); got != h.Samples[0] {
		t.Errorf("At(<0) = %+v", got)
	}
	if got := h.At(time.Hour); got != h.Samples[2] {
		t.Errorf("At(beyond) = %+v", got)
	}
}

func TestHeadTraceAtWrapsYaw(t *testing.T) {
	h := &HeadTrace{
		SamplePeriod: 40 * time.Millisecond,
		Samples: []geom.Orientation{
			{Yaw: 175, Pitch: 0},
			{Yaw: -175, Pitch: 0}, // 10 degrees across the wrap
		},
	}
	o := h.At(20 * time.Millisecond)
	if math.Abs(geom.YawDelta(180, o.Yaw)) > 1e-9 {
		t.Errorf("interpolation across wrap gave yaw %v, want ±180", o.Yaw)
	}
}

func TestHeadTraceDuration(t *testing.T) {
	h := GenerateHead(HeadGenParams{UserID: "u", Class: MotionMedium, Seed: 1})
	if d := h.Duration(); d < 59*time.Second || d > 61*time.Second {
		t.Errorf("duration = %v, want ~1 min", d)
	}
	empty := &HeadTrace{SamplePeriod: time.Second}
	if empty.Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
}

func TestGenerateHeadDeterministicAndValid(t *testing.T) {
	a := GenerateHead(HeadGenParams{UserID: "u", Class: MotionHigh, Seed: 5})
	b := GenerateHead(HeadGenParams{UserID: "u", Class: MotionHigh, Seed: 5})
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("nondeterministic samples")
		}
		if a.Samples[i].Yaw < -180 || a.Samples[i].Yaw >= 180 {
			t.Fatalf("yaw out of range: %v", a.Samples[i].Yaw)
		}
		if a.Samples[i].Pitch < -90 || a.Samples[i].Pitch > 90 {
			t.Fatalf("pitch out of range: %v", a.Samples[i].Pitch)
		}
	}
}

func TestMotionClassesDiffer(t *testing.T) {
	displacement := func(c MotionClass) float64 {
		total := 0.0
		for seed := int64(0); seed < 5; seed++ {
			h := GenerateHead(HeadGenParams{Class: c, Seed: seed})
			for _, d := range h.YawDisplacementPerSecond() {
				total += d
			}
		}
		return total
	}
	low, med, high := displacement(MotionLow), displacement(MotionMedium), displacement(MotionHigh)
	if !(low < med && med < high) {
		t.Errorf("motion classes not ordered: low %.0f med %.0f high %.0f", low, med, high)
	}
}

func TestDefaultUserTraces(t *testing.T) {
	users := DefaultUserTraces(10)
	if len(users) != 10 {
		t.Fatalf("got %d users", len(users))
	}
	ids := map[string]bool{}
	for _, u := range users {
		if ids[u.UserID] {
			t.Errorf("duplicate user %s", u.UserID)
		}
		ids[u.UserID] = true
	}
}

func TestMaxDisplacementPerChunk(t *testing.T) {
	users := DefaultUserTraces(5)
	d := MaxDisplacementPerChunk(users, time.Second, 60)
	if len(d) != 60 {
		t.Fatalf("got %d chunks", len(d))
	}
	for c, v := range d {
		if v < 0 || v > 180 {
			t.Fatalf("chunk %d displacement %v out of range", c, v)
		}
	}
	// A static user yields zero displacement.
	static := &HeadTrace{SamplePeriod: headSamplePeriod, Samples: make([]geom.Orientation, 100)}
	d0 := MaxDisplacementPerChunk([]*HeadTrace{static}, time.Second, 2)
	if d0[0] != 0 || d0[1] != 0 {
		t.Errorf("static user displacement = %v", d0)
	}
}

func TestHeadCSVRoundTrip(t *testing.T) {
	h := GenerateHead(HeadGenParams{UserID: "rt", Class: MotionLow, Seed: 9, Duration: 2 * time.Second})
	var buf bytes.Buffer
	if err := WriteHeadCSV(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHeadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != "rt" || got.SamplePeriod != h.SamplePeriod || len(got.Samples) != len(h.Samples) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range h.Samples {
		if math.Abs(got.Samples[i].Yaw-h.Samples[i].Yaw) > 1e-3 {
			t.Fatal("yaw lost in round trip")
		}
	}
}

func TestReadHeadCSVRejectsBad(t *testing.T) {
	for i, s := range []string{"", "1,2", "x,1,2", "0,nan-ish,2\n", "0,1\n", "# period_ms=9223372036854775\n0,1,2\n"} {
		if _, err := ReadHeadCSV(bytes.NewReader([]byte(s))); err == nil && i != 3 {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadCSVRefusesRowsOffThePeriod: row i's t_ms must be i × period_ms,
// and a file whose rows are gapped, shuffled or re-spaced is refused with
// an error naming the first row off the grid.
func TestReadCSVRefusesRowsOffThePeriod(t *testing.T) {
	for _, c := range []struct {
		name, body, line string
		read             func(io.Reader) error
	}{
		{"bandwidth t_ms not a number", "# period_ms=500\nbanana,5\n7000,6\n3,7\n", "line 2", readBandwidth},
		{"bandwidth gapped", "# id=x period_ms=500\n0,5\n500,6\n1500,7\n", "line 4", readBandwidth},
		{"bandwidth header disagrees", "# period_ms=500\n0,5\n1000,6\n", "line 3", readBandwidth},
		{"head shuffled", "# user=x period_ms=40\n0,1,2\n80,1,2\n40,1,2\n", "line 3", readHead},
		{"head re-spaced", "0,1,2\n40,1,2\n5,1,2\n99999,1,2\n", "line 3", readHead},
		{"head first row not 0", "# user=x\n40,1,2\n80,1,2\n", "line 2", readHead},
		// 2 × 9223372036854 ms is -1 ms once formed as nanoseconds.
		{"head wrapped row time", "# period_ms=9223372036854\n0,1,2\n9223372036854,1,2\n-1,1,2\n", "line 4", readHead},
	} {
		err := c.read(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: %q accepted", c.name, c.body)
		} else if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.line)
		}
	}
}

// TestReadCSVPeriodRule: a file's period is its header's, else the gap
// between its first two rows, else the kind's default.
func TestReadCSVPeriodRule(t *testing.T) {
	for _, c := range []struct {
		body string
		want time.Duration
	}{
		{"0,5\n1000,6\n2000,7\n", time.Second},
		{"0,5\n", 500 * time.Millisecond},
		{"# period_ms=250\n0,5\n250,6\n", 250 * time.Millisecond},
	} {
		b, err := ReadBandwidthCSV(strings.NewReader(c.body))
		if err != nil || b.SamplePeriod != c.want {
			t.Errorf("bandwidth %q: %v, %v; want period %v", c.body, b, err, c.want)
		}
	}
	h, err := ReadHeadCSV(strings.NewReader("0,1,2\n"))
	if err != nil || h.SamplePeriod != headSamplePeriod {
		t.Errorf("one-row head trace: %v, %v; want period %v", h, err, headSamplePeriod)
	}
}

func readBandwidth(r io.Reader) error { _, err := ReadBandwidthCSV(r); return err }
func readHead(r io.Reader) error      { _, err := ReadHeadCSV(r); return err }

// TestReadHeadCSVRejectsNonFinite: strconv.ParseFloat accepts NaN, Inf and
// -Inf, which no head points at; each is refused with an error naming its
// line, as yaw and as pitch.
func TestReadHeadCSVRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
		for _, row := range []string{"33,%s,2", "33,1,%s"} {
			body := "# user=x\n0,1,2\n" + fmt.Sprintf(row, v) + "\n66,3,4\n"
			_, err := ReadHeadCSV(strings.NewReader(body))
			if err == nil {
				t.Errorf("%q accepted", body)
			} else if !strings.Contains(err.Error(), "line 3") {
				t.Errorf("%q: error %q does not name line 3", body, err)
			}
		}
	}
}

func TestBandwidthAtAndWrap(t *testing.T) {
	b := &BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{10, 20, 30}}
	if b.at(0) != 10 || b.at(1500*time.Millisecond) != 20 || b.at(2*time.Second) != 30 {
		t.Error("At basic lookup wrong")
	}
	if b.at(3*time.Second) != 10 {
		t.Error("At should wrap")
	}
	if b.at(-time.Second) != 10 {
		t.Error("At negative should clamp")
	}
	if (&BandwidthTrace{}).at(0) != 0 {
		t.Error("empty trace should return 0")
	}
}

func TestBytesBetween(t *testing.T) {
	b := &BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{8, 16}}
	// 1 s at 8 Mbps = 1e6 bytes.
	if got := b.BytesBetween(0, time.Second); math.Abs(got-1e6) > 1 {
		t.Errorf("BytesBetween(0,1s) = %v", got)
	}
	// Half of each sample: 0.5s*8Mbps + 0.5s*16Mbps = 0.5e6 + 1e6.
	if got := b.BytesBetween(500*time.Millisecond, 1500*time.Millisecond); math.Abs(got-1.5e6) > 1 {
		t.Errorf("BytesBetween straddling = %v", got)
	}
	if got := b.BytesBetween(time.Second, time.Second); got != 0 {
		t.Errorf("empty interval = %v", got)
	}
}

func TestBytesBetweenAdditiveProperty(t *testing.T) {
	b := GenerateBandwidth(BandwidthGenParams{ID: "p", Seed: 3})
	f := func(a, c uint16) bool {
		t0 := time.Duration(a%60000) * time.Millisecond
		t2 := t0 + time.Duration(c%10000)*time.Millisecond
		mid := (t0 + t2) / 2
		whole := b.BytesBetween(t0, t2)
		split := b.BytesBetween(t0, mid) + b.BytesBetween(mid, t2)
		return math.Abs(whole-split) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCapped(t *testing.T) {
	b := &BandwidthTrace{ID: "x", SamplePeriod: time.Second, Mbps: []float64{5, 50, 15, 40}}
	capped := b.Capped(28)
	for _, v := range capped.Mbps {
		if v > 28 {
			t.Errorf("cap failed: %v", v)
		}
	}
	if capped.Mbps[0] != 5 {
		t.Error("cap altered low samples")
	}
}

func TestFilter(t *testing.T) {
	good := &BandwidthTrace{ID: "good", SamplePeriod: time.Second, Mbps: constant(12, 60)}
	tooSlow := &BandwidthTrace{ID: "slow", SamplePeriod: time.Second, Mbps: constant(3, 60)}
	tooFast := &BandwidthTrace{ID: "fast", SamplePeriod: time.Second, Mbps: constant(80, 60)}
	out := Filter([]*BandwidthTrace{good, tooSlow, tooFast}, Belgian.Filter)
	if len(out) != 1 || out[0].ID != "good" {
		t.Fatalf("filter kept %d traces", len(out))
	}
}

func TestNetProfileByName(t *testing.T) {
	for _, want := range []NetProfile{Belgian, Irish} {
		got, err := NetProfileByName(want.Name)
		if err != nil || got.Name != want.Name || got.Filter != want.Filter {
			t.Errorf("NetProfileByName(%q) = %+v, %v", want.Name, got, err)
		}
	}
	if _, err := NetProfileByName("Belgian"); err == nil || !strings.Contains(err.Error(), `"Belgian"`) {
		t.Errorf("an unknown name gave %v, want an error naming it", err)
	}
}

func TestParseMotionClassInvertsString(t *testing.T) {
	for c := MotionLow; c <= MotionHigh; c++ {
		if got, err := ParseMotionClass(c.String()); err != nil || got != c {
			t.Errorf("ParseMotionClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, bad := range []string{"", "unknown", "High"} {
		if _, err := ParseMotionClass(bad); err == nil {
			t.Errorf("ParseMotionClass(%q) took it", bad)
		}
	}
}

func constant(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestDefaultBelgianTraces(t *testing.T) {
	traces := DefaultBelgianTraces(11)
	if len(traces) != 11 {
		t.Fatalf("got %d Belgian traces, want 11", len(traces))
	}
	for _, tr := range traces {
		if p10 := stats.NearestRank(tr.Mbps, 10); p10 < 7 {
			t.Errorf("%s: p10 = %v < 7", tr.ID, p10)
		}
		if top := slices.Max(tr.Mbps); top > 28 {
			t.Errorf("%s: max %v > cap", tr.ID, top)
		}
		if d := tr.Duration(); d != time.Minute {
			t.Errorf("%s: duration %v", tr.ID, d)
		}
	}
}

func TestDefaultIrishTracesHaveDips(t *testing.T) {
	traces := DefaultIrishTraces(10)
	if len(traces) != 10 {
		t.Fatalf("got %d Irish traces, want 10", len(traces))
	}
	dips := 0
	for _, tr := range traces {
		for _, v := range tr.Mbps {
			if v < 1 {
				dips++
			}
		}
	}
	if dips == 0 {
		t.Error("Irish traces should exhibit near-zero dips")
	}
}

func TestBandwidthCSVRoundTrip(t *testing.T) {
	b := GenerateBandwidth(BandwidthGenParams{ID: "rt", Seed: 4, Duration: 5 * time.Second})
	var buf bytes.Buffer
	if err := WriteBandwidthCSV(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBandwidthCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "rt" || got.SamplePeriod != b.SamplePeriod || len(got.Mbps) != len(b.Mbps) {
		t.Fatalf("round trip mismatch")
	}
	for i := range b.Mbps {
		if math.Abs(got.Mbps[i]-b.Mbps[i]) > 1e-3 {
			t.Fatal("mbps lost in round trip")
		}
	}
}

func TestReadBandwidthCSVRejectsBad(t *testing.T) {
	for i, s := range []string{"", "1", "a,b", "0,-5", "0,NaN\n500,5\n", "0,5\n500,nan\n", "0,+Inf\n", "0,-Inf\n", "0,infinity\n", "0,1e999\n", "# period_ms=9223372036854775\n0,5\n"} {
		if _, err := ReadBandwidthCSV(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateBandwidthDeterministic(t *testing.T) {
	p := BandwidthGenParams{ID: "d", Seed: 77}
	a, b := GenerateBandwidth(p), GenerateBandwidth(p)
	for i := range a.Mbps {
		if a.Mbps[i] != b.Mbps[i] {
			t.Fatal("nondeterministic bandwidth generation")
		}
	}
}
