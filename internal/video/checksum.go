package video

import (
	"hash/crc32"
	"math/bits"
	"sync"

	"dragonfly/internal/geom"
)

// payloadCastagnoli is the CRC32-C table used for tile payload checksums;
// it matches proto.PayloadChecksum, so a checksum computed at encode time
// verifies the exact bytes a client receives.
var payloadCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroOps[k] advances a CRC32-C shift register past 2^k zero bytes. A zero
// byte XORs nothing into the register, so it is a linear map over GF(2) —
// multiplication by x^8 modulo the polynomial — and 2^k of them are that
// map composed with itself 2^k times, stored like the byte-wise CRC table:
// the image of register r is the XOR of zeroOps[k][j][byte j of r] over the
// four bytes. The Castagnoli polynomial is (x+1) times an irreducible of
// degree 31, and 2^31-1 is prime, so x^8 has order 2^31-1: run lengths
// reduce modulo zeroPeriod (TestZeroOpsPeriod) and 31 operators, 124 KB,
// built once on first use, cover every length.
var (
	zeroOps     [31][4][256]uint32
	zeroOpsOnce sync.Once
)

const zeroPeriod = 1<<31 - 1

func buildZeroOps() {
	for j := 0; j < 4; j++ {
		for v := 0; v < 256; v++ {
			r := uint32(v) << (8 * j)
			zeroOps[0][j][v] = payloadCastagnoli[byte(r)] ^ r>>8
		}
	}
	for k := 1; k < len(zeroOps); k++ {
		prev := &zeroOps[k-1]
		for j := 0; j < 4; j++ {
			for v := 0; v < 256; v++ {
				zeroOps[k][j][v] = applyZeroOp(prev, applyZeroOp(prev, uint32(v)<<(8*j)))
			}
		}
	}
}

func applyZeroOp(op *[4][256]uint32, r uint32) uint32 {
	return op[0][byte(r)] ^ op[1][byte(r>>8)] ^ op[2][byte(r>>16)] ^ op[3][byte(r>>24)]
}

// ExtendZeros returns the CRC32-C of a message followed by n zero bytes,
// given sum, the CRC32-C of the message: crc32.Update(sum, table, zeros)
// without the zeros, in one table step per set bit of n instead of one
// pass over n bytes. n <= 0 extends by nothing.
func ExtendZeros(sum uint32, n int64) uint32 {
	if n <= 0 {
		return sum
	}
	zeroOpsOnce.Do(buildZeroOps)
	r := ^sum
	for left := uint64(n % zeroPeriod); left != 0; left &= left - 1 {
		r = applyZeroOp(&zeroOps[bits.TrailingZeros64(left)], r)
	}
	return ^r
}

// zeroCRC returns the CRC32-C of n zero bytes without materializing them.
func zeroCRC(n int64) uint32 { return ExtendZeros(0, n) }

// HasChecksums reports whether the manifest carries per-variant payload
// checksums. Manifests serialized before wire v3 do not; clients skip
// payload verification for them (the frame-level CRC still applies).
func (m *Manifest) HasChecksums() bool {
	return len(m.checksums) > 0 && len(m.full360Checksums) > 0
}

// allocChecksums sizes the checksum arrays for the manifest's dimensions.
func (m *Manifest) allocChecksums() {
	m.checksums = make([]uint32, m.NumChunks*m.NumTiles()*NumQualities)
	m.full360Checksums = make([]uint32, m.NumChunks*NumQualities)
}

// TileChecksum returns the CRC32-C of the tile variant's payload.
// Manifests without checksums report 0; gate on HasChecksums.
func (m *Manifest) TileChecksum(chunk int, tile geom.TileID, q Quality) uint32 {
	if len(m.checksums) == 0 {
		return 0
	}
	return m.checksums[m.index(chunk, tile, q)]
}

// setTileChecksum sets the payload checksum of the tile variant.
func (m *Manifest) setTileChecksum(chunk int, tile geom.TileID, q Quality, sum uint32) {
	if len(m.checksums) == 0 {
		m.allocChecksums()
	}
	m.checksums[m.index(chunk, tile, q)] = sum
}

// Full360Checksum returns the CRC32-C of the untiled chunk payload at
// quality q. Manifests without checksums report 0; gate on HasChecksums.
func (m *Manifest) Full360Checksum(chunk int, q Quality) uint32 {
	if len(m.full360Checksums) == 0 {
		return 0
	}
	if chunk < 0 || chunk >= m.NumChunks || !q.Valid() {
		panic("video: full360 checksum index out of range")
	}
	return m.full360Checksums[chunk*NumQualities+int(q)]
}

// setFull360Checksum sets the payload checksum of the untiled chunk.
func (m *Manifest) setFull360Checksum(chunk int, q Quality, sum uint32) {
	if len(m.full360Checksums) == 0 {
		m.allocChecksums()
	}
	if chunk < 0 || chunk >= m.NumChunks || !q.Valid() {
		panic("video: full360 checksum index out of range")
	}
	m.full360Checksums[chunk*NumQualities+int(q)] = sum
}
