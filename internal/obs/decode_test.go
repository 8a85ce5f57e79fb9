package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// allKinds is every event kind the schema defines.
var allKinds = []EventKind{
	EvDecide, EvFetch, EvSkip, EvMask, EvBlank, EvStall, EvStartup, EvResume,
	EvReconnect, EvOutage, EvLinkDead, EvCorrupt, EvBusy, EvSession, EvQuality, EvShed,
}

// writerLines renders a trace holding every event kind, with and without
// the optional fields and across the float forms the encoder picks for
// t_ms, exactly as a session's WriteJSONL would.
func writerLines(t testing.TB) [][]byte {
	t.Helper()
	tr := NewTrace(8 * len(allKinds))
	tr.Add(SessionEvent("v1", "low:belgian"))
	tr.Add(SessionEvent("", ""))
	ats := []time.Duration{0, 1, 33333 * time.Microsecond, 1500 * time.Millisecond, 90 * time.Minute, 1 << 62}
	for i, k := range allKinds {
		at := ats[i%len(ats)]
		tr.Record(at, k, 0)
		tr.Record(at, k, int64(i+1)*4321)
		tr.Record(at, k, -int64(i+1))
		tr.Add(Event{At: at, Kind: k, Chunk: i + 1, Tile: 143 - i, N: 1 << 40, Video: "v27", Cohort: "high:fiber"})
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

// decodeCanonical reports whether line is exactly one canonical-form event,
// the lines UnmarshalEvent decodes by hand, decoding it into ev.
func decodeCanonical(line []byte, ev *Event) bool {
	n := DecodeEvent(line, ev)
	return n != 0 && n == len(line)
}

// TestWriterOutputIsCanonical: every line our writer emits, for every event
// kind, is decoded by hand — the fallback is for bytes we did not write —
// and decodes to what encoding/json makes of it.
func TestWriterOutputIsCanonical(t *testing.T) {
	lines := writerLines(t)
	if want := 2 + 4*len(allKinds); len(lines) != want {
		t.Fatalf("writer emitted %d lines, want %d", len(lines), want)
	}
	for _, line := range lines {
		var got, want Event
		if !decodeCanonical(line, &got) {
			t.Errorf("writer line took the fallback: %s", line)
			continue
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("json.Unmarshal(%s): %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n hand-written %+v\n encoding/json %+v", line, got, want)
		}
	}
}

// TestDecodeEventAtBufferStart: DecodeEvent reads a writer's line at the
// start of a longer buffer and returns its length whatever follows it, and
// finds no event in any cut of the line — the object must close inside the
// slice, not at a sentinel beyond it.
func TestDecodeEventAtBufferStart(t *testing.T) {
	for _, line := range writerLines(t) {
		var want Event
		if !decodeCanonical(line, &want) {
			t.Fatalf("writer line took the fallback: %s", line)
		}
		for _, tail := range []string{"\n", "\r\n", "x", "}", `{"v":1,"t_ms":0,"ev":"stall"}`} {
			var got Event
			buf := append(line[:len(line):len(line)], tail...)
			if n := DecodeEvent(buf, &got); n != len(line) || !reflect.DeepEqual(got, want) {
				t.Errorf("%q: DecodeEvent = %d, %+v; want %d, %+v", buf, n, got, len(line), want)
			}
		}
		for k := range line {
			var got Event
			if n := DecodeEvent(line[:k:k], &got); n != 0 {
				t.Errorf("%q: DecodeEvent = %d on a cut line, want 0", line[:k], n)
			}
		}
	}
}

// tmsShapes are t_ms spellings on and around the edge of jsonscan.Float's
// grammar, each with the side of the canonical form it falls on: any JSON
// number in float64 range is canonical, whatever its length, sign or
// exponent. Which canonical ones are divided and which are ParseFloat's is
// not observable, only that both give ParseFloat's bits.
var tmsShapes = []struct {
	num       string
	canonical bool
}{
	{"0", true},
	{"0.000001", true}, // the writer's 1 ns
	{"0.1", true},
	{"33.333", true},
	{"123456789.012345", true},  // 15 digits: divided
	{"999999999999999", true},   // 15 digits, no fraction
	{"0.00000000000001", true},  // 15 digits, the largest divisor
	{"0.000000000000001", true}, // 16 digits: ParseFloat's from here down
	{"1234567890.123456", true},
	{"9007199254740993", true},  // 2^53+1: no float64 holds the mantissa
	{"96170692039.84865", true}, // 16 digits for which mantissa/10^5 rounds twice, one ulp off
	{"977578840506.4679", true},
	{"4611686018427.388", true},  // the writer's 1<<62 ns
	{"12345678901.234567", true}, // 17 digits
	{"0.30000000000000004", true},
	{"99999999999999999999", true}, // the uint64 mantissa wraps
	{"123456789012345678901234567890.123456789012345678901234567890", true},
	{"1e-06", true}, // what strconv's 'g' prints for 1 ns; json prints 0.000001
	{"1E5", true},   // an exponent: ParseFloat's
	{"1.5e+3", true},
	{"1e999", false}, // out of range: json's error to report
	{"-0", true},     // a sign: the writer never emits one, but it is JSON
	{"-0.0", true},
	{"-1.5", true},
	{"1.", false}, // not JSON, from here down
	{"01.5", false},
	{".5", false},
	{"-", false},
	{"-.5", false},
	{"1.e3", false},
	{"1e", false},
	{"1e+", false},
	{"--1", false},
}

func tmsLine(num string) []byte {
	return []byte(`{"v":1,"t_ms":` + num + `,"ev":"stall"}`)
}

// TestTMSBitIdentical: a t_ms that decodes has the bits strconv.ParseFloat
// makes of the same bytes, and decodes exactly when json.Unmarshal accepts
// the line — for the spellings in tmsShapes and for what the writer emits
// for a million session times below 10^15 ns, every one of them short enough
// to be divided rather than parsed.
func TestTMSBitIdentical(t *testing.T) {
	check := func(line []byte, num string) error {
		t.Helper()
		var ev Event
		err := UnmarshalEvent(line, &ev)
		want, _ := strconv.ParseFloat(num, 64)
		if err == nil && math.Float64bits(ev.AtMS) != math.Float64bits(want) {
			t.Fatalf("%s: t_ms = %v (%#x), ParseFloat = %v (%#x)",
				line, ev.AtMS, math.Float64bits(ev.AtMS), want, math.Float64bits(want))
		}
		return err
	}
	for _, c := range tmsShapes {
		_ = check(tmsLine(c.num), c.num) // json decides whether it decodes
		checkAgainstJSON(t, tmsLine(c.num))
	}

	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(16))
	var line []byte
	for i := 0; i < n; i++ {
		// Every magnitude from one digit of nanoseconds to fifteen.
		at := time.Duration(rng.Int63n(int64(math.Pow10(1 + i%15))))
		ms := float64(at) / float64(time.Millisecond) // Trace.Add's conversion
		line = append(line[:0], `{"v":1,"t_ms":`...)
		line = strconv.AppendFloat(line, ms, 'f', -1, 64)
		num := string(line[len(`{"v":1,"t_ms":`):])
		line = append(line, `,"ev":"quality"}`...)
		if digits := len(num) - bytes.Count([]byte(num), []byte(".")); digits > 15 {
			t.Fatalf("At = %d ns is written as %s: %d digits", at, num, digits)
		}
		if err := check(line, num); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if i%1024 == 0 {
			// The line is the writer's, and json agrees on all of it.
			tr := NewTrace(1)
			tr.Record(at, EvQuality, 0)
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil || !bytes.Equal(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), line) {
				t.Fatalf("At = %d ns: writer emits %q (error %v), test built %q", at, buf.Bytes(), err, line)
			}
			checkAgainstJSON(t, line)
		}
	}
}

// TestCanonicalFormBoundary pins which side of the hand-written decoder's
// grammar an input falls on. Agreement with encoding/json on both sides is
// FuzzUnmarshalEvent's job; this is about not losing the fast path (or
// widening it) by accident.
func TestCanonicalFormBoundary(t *testing.T) {
	for _, c := range []struct {
		line      string
		canonical bool
	}{
		{`{"v":1,"t_ms":33.333,"ev":"quality","chunk":1,"n":4200}`, true},
		{`{"v":1,"t_ms":0,"ev":"session","video":"v1","cohort":"low:belgian"}`, true},
		{`{"v":1,"t_ms":0,"ev":"future-kind"}`, true},
		{`{"v":-0,"t_ms":0,"ev":"stall","n":-999999999999999999}`, true},
		{`{"v":1,"t_ms":0,"ev":""}`, true},

		{``, false},
		{`{}`, false},
		{`{"ev":"quality","v":1}`, false}, // a key out of the writer's order
		{`{"v":1,"t_ms":0,"ev":"fetch","n":7,"chunk":3}`, false},            // an optional one too
		{`{"v":1,"t_ms":0,"ev":"session","cohort":"c","video":"v"}`, false}, // and the header's
		{`{"v":1,"ev":"stall"}`, false},                                     // t_ms is never omitted
		{`{"v":1,"t_ms":0,"ev":"stall"} `, false},
		{` {"v":1,"t_ms":0,"ev":"stall"}`, false},
		{`{"v": 1,"t_ms":0,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":0,"ev":"stall",}`, false},
		{`{"V":1,"t_ms":0,"ev":"stall"}`, false},           // json matches keys case-insensitively
		{`{"v":1,"v":2,"t_ms":0,"ev":"stall"}`, false},     // json keeps the last
		{`{"v":1,"t_ms":0,"ev":"stall","extra":1}`, false}, // json ignores unknown keys
		{`{"v":1.0,"t_ms":0,"ev":"stall"}`, false},         // json refuses a float for an int
		{`{"v":1e0,"t_ms":0,"ev":"stall"}`, false},
		{`{"v":01,"t_ms":0,"ev":"stall"}`, false},     // not JSON
		{`{"v":1,"t_ms":1e-7,"ev":"stall"}`, true},    // an exponent or a sign on t_ms: the writer never emits them, but
		{`{"v":1,"t_ms":-0.5E+3,"ev":"stall"}`, true}, // jsonscan reads any JSON number (more spellings in tmsShapes)
		{`{"v":1,"t_ms":01,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":.5,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":1.,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":+1,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":Inf,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":0x10,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":1_0,"ev":"stall"}`, false},
		{`{"v":1,"t_ms":1e999,"ev":"stall"}`, false},      // out of float64 range: json's error
		{`{"v":1,"t_ms":0,"ev":"stall","n":null}`, false}, // json leaves the field alone
		{`{"v":1,"t_ms":0,"ev":"stall","n":"7"}`, false},
		{`{"v":1,"t_ms":0,"ev":"stall","n":1234567890123456789}`, true},  // 19 digits: range-checked by hand
		{`{"v":1,"t_ms":0,"ev":"stall","n":9223372036854775808}`, false}, // past int64: json's range error
		{`{"v":1,"t_ms":0,"ev":"st\u0061ll"}`, false},                    // escapes
		{`{"v":1,"t_ms":0,"ev":"session","cohort":"a\"b"}`, false},
		{`{"v":1,"t_ms":0,"ev":"session","cohort":"héllo"}`, false},            // non-ASCII
		{"{\"v\":1,\"t_ms\":0,\"ev\":\"session\",\"cohort\":\"a\tb\"}", false}, // control byte
		{`{"v":1,"t_ms":0,"ev":"session","cohort":{"a":[1,2]}}`, false},
		{`{"v":1,"t_ms":0,"ev":"stall"`, false},
		{`{"v":1,"t_ms":0,"ev":"stall}`, false},
		{`{"v":1,"t_ms":0,"ev":stall}`, false},
		{`{"v":}`, false},
		{`{"v":-}`, false},
		{`{"t_ms":-}`, false},
		{`{"t_ms":1e}`, false},
		{`{"ev":"}`, false},
		{`{"v"}`, false},
		{`{"}`, false},
		{`[{"v":1}]`, false},
		{`null`, false},
	} {
		var ev Event
		if got := decodeCanonical([]byte(c.line), &ev); got != c.canonical {
			t.Errorf("decodeCanonical(%s) = %v, want %v", c.line, got, c.canonical)
		}
	}
	for _, c := range tmsShapes {
		var ev Event
		if got := decodeCanonical(tmsLine(c.num), &ev); got != c.canonical {
			t.Errorf("decodeCanonical(%s) = %v, want %v", tmsLine(c.num), got, c.canonical)
		}
	}
}

// TestUnmarshalEventCanonicalZeroAlloc: a canonical line of a known kind
// decodes without touching the heap; only a header's strings cost anything.
func TestUnmarshalEventCanonicalZeroAlloc(t *testing.T) {
	line := []byte(`{"v":1,"t_ms":12345.678,"ev":"quality","chunk":12,"n":4217}`)
	var ev Event
	if n := testing.AllocsPerRun(200, func() {
		if err := UnmarshalEvent(line, &ev); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("UnmarshalEvent allocates %v per canonical line, want 0", n)
	}
}

// checkAgainstJSON is the differential oracle: UnmarshalEvent must return an
// error exactly when json.Unmarshal into a zero Event does, and leave the
// same event behind — including json's partial fills on a type error.
func checkAgainstJSON(t *testing.T, line []byte) {
	t.Helper()
	got := Event{V: 99, Kind: "stale", N: -1, Video: "stale", Cohort: "stale"} // must be overwritten
	var want Event
	gotErr, wantErr := UnmarshalEvent(line, &got), json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: UnmarshalEvent error %v, json.Unmarshal error %v", line, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n UnmarshalEvent %+v\n json.Unmarshal %+v", line, got, want)
	}
}

func FuzzUnmarshalEvent(f *testing.F) {
	for _, line := range writerLines(f) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"V":2,"T_MS":5,"EV":"Stall","Chunk":3,"TILE":4,"N":5,"Video":"x","COHORT":"y"}`, // upper-case keys
		`{"v":1.0,"t_ms":0,"ev":"quality","n":1}`,                                         // 1.0 into an int field
		`{"v":1,"ev":"stall","n":2.5e3,"chunk":1e2}`,
		`{"v":1,"v":2,"ev":"stall","ev":"resume","n":1,"n":2}`, // duplicate keys
		`{"v":null,"t_ms":null,"ev":null,"n":null,"video":null}`,
		`null`,
		`{"v":01,"t_ms":007,"ev":"stall"}`, // leading zeros
		`{"v":-0,"t_ms":-0,"ev":"stall","n":-0,"chunk":-0}`,
		`{"v":1,"t_ms":-0.0,"ev":"stall"}`,
		`{"v":1,"ev":"fetch","n":9223372036854775807}`, // 19-digit integers
		`{"v":1,"ev":"fetch","n":-9223372036854775808}`,
		`{"v":1,"ev":"fetch","n":9223372036854775808}`,
		`{"v":1234567890123456789,"ev":"fetch","tile":999999999999999999}`,
		`{"v":1,"ev":"fetch","n":99999999999999999999999999}`,
		`{"v":1,"t_ms":1e999,"ev":"stall"}`,
		`{"v":1,"t_ms":-1e999,"ev":"stall"}`,
		`{"v":1,"t_ms":1e-999,"ev":"stall"}`,
		`{"v":1,"t_ms":123456789012345678901234567890.123456789012345678901234567890,"ev":"stall"}`,
		`{"v":1,"t_ms":0,"ev":"session","cohort":"héllo:wörld","video":"日本"}`, // non-ASCII
		"{\"v\":1,\"t_ms\":0,\"ev\":\"session\",\"cohort\":\"\xff\xfe\"}",
		"{\"v\":1,\"t_ms\":0,\"ev\":\"session\",\"cohort\":\"a\x7fb\"}",
		"{\"v\":1,\"t_ms\":0,\"ev\":\"session\",\"cohort\":\"a\x01b\"}",
		`{"v":1,"t_ms":0,"ev":"session","cohort":"a\u003cb\n\"\\"}`,
		`{"v":1,"t_ms":0,"ev":"stall","extra":{"a":[1,{"b":null}],"c":"d"},"n":3}`, // nested unknown values
		`{"v":1,"t_ms":0,"ev":{"nested":true},"n":[1,2,3]}`,
		`{"v":1,"t_ms":"12","ev":7,"n":"7","video":1,"cohort":false}`,
		`{"v":1,"t_ms":0,"ev":"stall","At":5,"at":6,"-":7}`,
		` { "v" : 1 , "t_ms" : 0 , "ev" : "stall" } `,
		"{\"v\":1,\"t_ms\":0,\"ev\":\"stall\"}\n",
		`{"v":1,"t_ms":0,"ev":"stall"}{"v":1}`,
		`{"v":1,"t_ms":0,"ev":"stall"},`,
		`{"v":1,"t_ms":0,"ev":"stall",}`,
		`{,"v":1}`,
		`{"v":1,,"ev":"stall"}`,
		`{"v":1 "ev":"stall"}`,
		`{"v"1}`,
		`{"":1}`,
		`{"v":}`, `{"v":-}`, `{"v":--1}`, `{"t_ms":-}`, `{"t_ms":1e}`, `{"t_ms":1e+}`, `{"t_ms":1.}`, `{"t_ms":.1}`,
		`{"t_ms":+1}`, `{"t_ms":Inf}`, `{"t_ms":NaN}`, `{"t_ms":0x1p-2}`, `{"t_ms":1_000}`, `{"t_ms":1.5.5}`,
		`{"ev":"}`, `{"ev":"a}`, `{"ev}`, `{"}`, `{"v":1`, `{`, `}`, `{}`, `{}}`, `[]`, `[{"v":1}]`, `"v"`, `1`, `true`, ``, ` `,
		"\xef\xbb\xbf{\"v\":1}", // BOM
	} {
		f.Add([]byte(s))
	}
	for _, c := range tmsShapes {
		f.Add(tmsLine(c.num))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkAgainstJSON(t, line) })
}

func BenchmarkUnmarshalEvent(b *testing.B) {
	for _, c := range []struct{ name, line string }{
		{"canonical", `{"v":1,"t_ms":12345.678,"ev":"quality","chunk":12,"n":4217}`},
		{"fallback", `{"v":1, "t_ms":12345.678,"ev":"quality","chunk":12,"n":4217}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			line := []byte(c.line)
			var ev Event
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := UnmarshalEvent(line, &ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
