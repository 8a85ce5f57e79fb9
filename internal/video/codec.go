package video

import (
	"bytes"
	"math"
	"slices"
	"strconv"
)

// The hand-written codec of the manifest's canonical JSON form: the bytes
// json.Marshal writes for manifestJSON — its fields in declaration order, no
// whitespace, nil arrays as null, the checksum arrays omitted when empty —
// with a video id of printable ASCII that needs no escaping. The manifest is
// the one multi-megabyte message of a session, sent and parsed once per
// handshake, and reflection was most of both. encoding/json stays behind
// both directions for everything else, and is the oracle the tests hold this
// codec to byte for byte.

// appendCanonical appends the manifest's canonical JSON to dst and reports
// whether it could. It declines (returning dst unchanged) a video id
// json.Marshal would escape and a non-finite metric, which json.Marshal
// rejects.
func appendCanonical(dst []byte, m *Manifest) ([]byte, bool) {
	size, ok := m.canonicalBound()
	if !ok {
		return dst, false
	}
	b := slices.Grow(dst, size)
	b = append(b, `{"video_id":"`...)
	b = append(b, m.VideoID...)
	b = append(b, `","rows":`...)
	b = strconv.AppendInt(b, int64(m.Rows), 10)
	b = append(b, `,"cols":`...)
	b = strconv.AppendInt(b, int64(m.Cols), 10)
	b = append(b, `,"fps":`...)
	b = strconv.AppendInt(b, int64(m.FPS), 10)
	b = append(b, `,"chunk_frames":`...)
	b = strconv.AppendInt(b, int64(m.ChunkFrames), 10)
	b = append(b, `,"num_chunks":`...)
	b = strconv.AppendInt(b, int64(m.NumChunks), 10)
	b = appendInts(append(b, `,"qps":`...), qps[:])
	b = appendInts(append(b, `,"sizes":`...), m.sizes)
	b = appendFloats(append(b, `,"psnr":`...), m.psnr)
	b = appendFloats(append(b, `,"pspnr":`...), m.pspnr)
	b = appendFloats(append(b, `,"black_psnr":`...), m.blackPSNR)
	b = appendInts(append(b, `,"full360":`...), m.full360)
	b = appendFloats(append(b, `,"mask_displacement":`...), m.MaskDisplacement)
	if len(m.checksums) > 0 {
		b = appendInts(append(b, `,"checksums":`...), m.checksums)
	}
	if len(m.full360Checksums) > 0 {
		b = appendInts(append(b, `,"full360_checksums":`...), m.full360Checksums)
	}
	return append(b, '}'), true
}

// canonicalBound reports whether the manifest has a canonical encoding — a
// video id json.Marshal writes unescaped, and finite metrics — and bounds
// its length from above, so the encoder grows its buffer once. Integers
// are counted digit by digit; a float takes at most 19 bytes in 'f' format
// below 1e16 (17 significant digits, the point and a sign) and 26
// anywhere else.
func (m *Manifest) canonicalBound() (int, bool) {
	for i := 0; i < len(m.VideoID); i++ {
		switch c := m.VideoID[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return 0, false
		}
	}
	// Keys, punctuation, the five scalars and qps take under 400 bytes.
	n := 400 + len(m.VideoID) + 11*(len(m.checksums)+len(m.full360Checksums))
	for _, xs := range [][]int64{m.sizes, m.full360} {
		n += 4
		for _, x := range xs {
			n += 2 // a comma and the first digit
			if x < 0 {
				n++
			}
			for ; x >= 10 || x <= -10; x /= 10 {
				n++
			}
		}
	}
	for _, xs := range [][]float64{m.psnr, m.pspnr, m.blackPSNR, m.MaskDisplacement} {
		n += 4
		for _, x := range xs {
			switch a := math.Abs(x); {
			case a < 1e16 && (a >= 1 || a == 0):
				n += 20
			case a <= math.MaxFloat64:
				n += 27
			default: // NaN or ±Inf
				return 0, false
			}
		}
	}
	return n, true
}

// appendInts appends a JSON array of integers, or null for a nil slice.
func appendInts[T int | int64 | uint32](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloats appends a JSON array of finite floats, or null for a nil
// slice.
func appendFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' format, or in 'e' format below
// 1e-6 and from 1e21 in magnitude with a one-digit negative exponent
// unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// decodeCanonical decodes a canonical-form body into j and reports whether
// it did. It accepts a subset of what json.Unmarshal accepts and decodes it
// to the same value; on false j holds garbage and the caller resets it.
// Every value is scanned once, and every array is allocated once at its
// final length, counted from its separators.
func decodeCanonical(b []byte, j *manifestJSON) bool {
	d := decoder{b: b}
	ok := d.key(`{"video_id":`) && d.str(&j.VideoID) &&
		d.key(`,"rows":`) && d.scanInt(&j.Rows) &&
		d.key(`,"cols":`) && d.scanInt(&j.Cols) &&
		d.key(`,"fps":`) && d.scanInt(&j.FPS) &&
		d.key(`,"chunk_frames":`) && d.scanInt(&j.ChunkFrames) &&
		d.key(`,"num_chunks":`) && d.scanInt(&j.NumChunks) &&
		d.key(`,"qps":`) && array(&d, &j.QPs, (*decoder).scanInt) &&
		d.key(`,"sizes":`) && array(&d, &j.Sizes, (*decoder).scanInt64) &&
		d.key(`,"psnr":`) && array(&d, &j.PSNR, (*decoder).scanFloat) &&
		d.key(`,"pspnr":`) && array(&d, &j.PSPNR, (*decoder).scanFloat) &&
		d.key(`,"black_psnr":`) && array(&d, &j.BlackPSNR, (*decoder).scanFloat) &&
		d.key(`,"full360":`) && array(&d, &j.Full360, (*decoder).scanInt64) &&
		d.key(`,"mask_displacement":`) && array(&d, &j.MaskDisplacement, (*decoder).scanFloat)
	if !ok {
		return false
	}
	if d.key(`,"checksums":`) && !array(&d, &j.Checksums, (*decoder).scanUint32) {
		return false
	}
	if d.key(`,"full360_checksums":`) && !array(&d, &j.Full360Checksums, (*decoder).scanUint32) {
		return false
	}
	return d.i == len(b)-1 && b[d.i] == '}'
}

// decoder is a cursor over a canonical body.
type decoder struct {
	b []byte
	i int
}

// key consumes s if the body continues with it.
func (d *decoder) key(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str reads a quoted string of printable ASCII without escapes.
func (d *decoder) str(v *string) bool {
	if !d.key(`"`) {
		return false
	}
	for k := d.i; k < len(d.b); k++ {
		switch c := d.b[k]; {
		case c == '"':
			*v = string(d.b[d.i:k])
			d.i = k + 1
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
}

// digits reads a run of decimal digits, accumulating them into m (which
// wraps past 19 digits, where no caller uses it), and returns how many.
func (d *decoder) digits(m *uint64) int {
	b, i, v := d.b, d.i, *m
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	n := i - d.i
	d.i, *m = i, v
	return n
}

// scanUint reads 0|[1-9][0-9]* of at most 19 digits, which fits a uint64.
func (d *decoder) scanUint(v *uint64) bool {
	start := d.i
	n := d.digits(v)
	return n > 0 && n <= 19 && (n == 1 || d.b[start] != '0')
}

// scanInt64 reads an integer json.Unmarshal stores in an int64 unchanged.
func (d *decoder) scanInt64(v *int64) bool {
	neg := d.key("-")
	var u uint64
	if !d.scanUint(&u) || u > math.MaxInt64+1 || (!neg && u > math.MaxInt64) {
		return false
	}
	*v = int64(u)
	if neg {
		*v = -*v
	}
	return true
}

// scanInt is scanInt64 for an int: a value the platform's int cannot hold
// is json's range error to report.
func (d *decoder) scanInt(v *int) bool {
	var x int64
	if !d.scanInt64(&x) || int64(int(x)) != x {
		return false
	}
	*v = int(x)
	return true
}

// scanUint32 reads a payload checksum.
func (d *decoder) scanUint32(v *uint32) bool {
	var u uint64
	if !d.scanUint(&u) || u > math.MaxUint32 {
		return false
	}
	*v = uint32(u)
	return true
}

// pow10 holds the powers of ten scanFloat divides by, all exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// scanFloat reads a JSON number — -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// — and stores strconv.ParseFloat's value of it, which is what
// json.Unmarshal stores. Without an exponent, a mantissa of at most 19
// digits accumulated on the way is exact as an integer; up to 2^53 it is
// exact as a float64 too, and so is the power of ten it is divided by, and
// one correctly rounded division yields ParseFloat's bits. Anything else is
// handed to ParseFloat. A value out of float64 range is json's error.
func (d *decoder) scanFloat(v *float64) bool {
	start := d.i
	neg := d.key("-")
	var m uint64
	lead := d.i
	n := d.digits(&m)
	if n == 0 || (n > 1 && d.b[lead] == '0') {
		return false
	}
	frac := 0
	if d.key(".") {
		if frac = d.digits(&m); frac == 0 {
			return false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if !d.key("+") {
			d.key("-")
		}
		var e uint64
		if d.digits(&e) == 0 {
			return false
		}
	} else if n+frac <= 19 && m <= 1<<53 {
		*v = float64(m) / pow10[frac]
		if neg {
			*v = -*v
		}
		return true
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	*v = f
	return err == nil
}

// array reads null (a nil slice) or a JSON array whose elements elem reads
// into a slice allocated once: its length is the number of commas before
// the closing bracket, plus one. An element needs a byte and a separator,
// so an array claiming more elements than its bytes can hold is refused
// before anything is allocated.
func array[T any](d *decoder, v *[]T, elem func(*decoder, *T) bool) bool {
	if d.key("null") {
		*v = nil
		return true
	}
	if !d.key("[") {
		return false
	}
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return false
	}
	if end == 0 {
		d.i++
		*v = []T{}
		return true
	}
	n := bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1
	if 2*n-1 > end {
		return false
	}
	xs := make([]T, n)
	for k := range xs {
		if !elem(d, &xs[k]) || d.i >= len(d.b) {
			return false
		}
		sep := byte(',')
		if k == n-1 {
			sep = ']'
		}
		if d.b[d.i] != sep {
			return false
		}
		d.i++
	}
	*v = xs
	return true
}
