package jsonscan

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

// TestScanFloatMatchesParseFloat: Float's exact shortcut — a mantissa up to
// 2^53 over a power of ten — and its hand-off to ParseFloat give
// ParseFloat's bits, across the boundary of the shortcut and for random
// digit strings of up to 20 digits with the point anywhere.
func TestScanFloatMatchesParseFloat(t *testing.T) {
	cases := []string{
		"0", "-0", "0.5", "-0.0", "9007199254740992", "9007199254740993", "0.9007199254740992",
		"0.9007199254740993", "1234567890123456789", "0.1234567890123456789", "12345678901234567890",
		"38.12345678901234", "38.123456789012345", "1e5", "1E-5", "2.5e+3", "1e400", "-1e400", "1e-400",
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20000; k++ {
		digits := make([]byte, 1+rng.Intn(20))
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		if len(digits) > 1 && digits[0] == '0' {
			digits[0] = '1'
		}
		s := string(digits)
		if p := rng.Intn(len(digits)); p > 0 {
			s = s[:p] + "." + s[p:]
		}
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		cases = append(cases, s)
	}
	for _, c := range cases {
		want, werr := strconv.ParseFloat(c, 64)
		got, next, ok := Float([]byte(c+"]"), 0)
		if ok != (werr == nil) || (ok && (math.Float64bits(got) != math.Float64bits(want) || next != len(c))) {
			t.Fatalf("%s: scanned %v (ok %v), ParseFloat %v (%v)", c, got, ok, want, werr)
		}
	}
}

// jsonInt is the JSON grammar of an integer; strconv also takes a plus
// sign and leading zeros, which json.Unmarshal refuses.
var jsonInt = regexp.MustCompile(`^-?(0|[1-9][0-9]*)$`)

// TestIntegersMatchStrconv: Int64, Int and Uint32 read a JSON integer to
// strconv's value of it, and decline exactly what strconv cannot hold in
// the type or what is not a JSON integer, at the edges of each range and
// of the 19 digits a uint64 accumulates without wrapping.
func TestIntegersMatchStrconv(t *testing.T) {
	cases := []string{
		"0", "-0", "7", "-7", "00", "01", "-01", "+1", "", "-", "--1", "1.0", "1e3",
		"9223372036854775807", "-9223372036854775808", // MaxInt64, MinInt64
		"9223372036854775808", "-9223372036854775809", // one past each
		"1234567890123456789", "-1234567890123456789", "9999999999999999999", // 19 digits
		"12345678901234567890", "18446744073709551616", "99999999999999999999", // 20 digits
		"4294967295", "4294967296", "-4294967295", // MaxUint32 and one past it
	}
	for _, c := range cases {
		b := []byte("[" + c + "]")
		// check holds a read of c to strconv's: both succeed with one value,
		// or both fail. A reader that stops short of the bracket has not
		// read c.
		check := func(name string, got int64, next int, ok bool, want int64, err error) {
			t.Helper()
			ok = ok && next == len(b)-1
			if wantOK := err == nil && jsonInt.MatchString(c); ok != wantOK || ok && got != want {
				t.Errorf("%s(%q) = %d, %v; strconv: %d, %v", name, c, got, ok, want, wantOK)
			}
		}
		v64, next, ok := Int64(b, 1)
		want64, err := strconv.ParseInt(c, 10, 64)
		check("Int64", v64, next, ok, want64, err)

		v, next, ok := Int(b, 1)
		want, err := strconv.ParseInt(c, 10, strconv.IntSize)
		check("Int", int64(v), next, ok, want, err)

		v32, next, ok := Uint32(b, 1)
		want32, err := strconv.ParseUint(c, 10, 32)
		check("Uint32", int64(v32), next, ok, int64(want32), err)
	}
}
