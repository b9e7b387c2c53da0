// Package keccak implements the legacy Keccak-256 hash function as used
// by Ethereum.
//
// Ethereum predates the FIPS-202 standardisation of SHA-3 and uses the
// original Keccak padding (domain byte 0x01) rather than the SHA-3 domain
// byte 0x06, so the standard library's sha3 cannot be substituted even if
// it were available. The implementation below is a sponge over an
// unrolled Keccak-f[1600]; the textbook loop form of the permutation
// lives in keccak_test.go as its differential oracle.
package keccak

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

// round constants for the iota step of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
	0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// state is the 1600-bit sponge state in the specification's lane order:
// lane i is (x, y) = (i%5, i/5), so byte 8i of a rate block belongs to
// lane i and absorb and squeeze index the array directly.
type state [25]uint64

// permute applies the full 24-round Keccak-f[1600] permutation to a.
// Rounds alternate between a and a scratch state so that no round reads
// a lane it has already overwritten.
func permute(a *state) {
	var e state
	for r := 0; r < 24; r += 2 {
		round(&e, a, roundConstants[r])
		round(a, &e, roundConstants[r+1])
	}
}

// round writes one Keccak-f round of a into e. Every index and rotation
// count is a constant: output lane (x, y) is input lane ((x+3y)%5, x)
// after θ, rotated by that lane's ρ offset.
func round(e, a *state, rc uint64) {
	// θ: column parities, then the per-column correction d.
	c0 := a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
	c1 := a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
	c2 := a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
	c3 := a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
	c4 := a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
	d0 := c4 ^ bits.RotateLeft64(c1, 1)
	d1 := c0 ^ bits.RotateLeft64(c2, 1)
	d2 := c1 ^ bits.RotateLeft64(c3, 1)
	d3 := c2 ^ bits.RotateLeft64(c4, 1)
	d4 := c3 ^ bits.RotateLeft64(c0, 1)

	// ρ and π gather row 0, χ writes it, ι lands on lane 0.
	b0 := a[0] ^ d0
	b1 := bits.RotateLeft64(a[6]^d1, 44)
	b2 := bits.RotateLeft64(a[12]^d2, 43)
	b3 := bits.RotateLeft64(a[18]^d3, 21)
	b4 := bits.RotateLeft64(a[24]^d4, 14)
	e[0] = b0 ^ (^b1 & b2) ^ rc
	e[1] = b1 ^ (^b2 & b3)
	e[2] = b2 ^ (^b3 & b4)
	e[3] = b3 ^ (^b4 & b0)
	e[4] = b4 ^ (^b0 & b1)

	// ρ and π gather row 1, χ writes it.
	b0 = bits.RotateLeft64(a[3]^d3, 28)
	b1 = bits.RotateLeft64(a[9]^d4, 20)
	b2 = bits.RotateLeft64(a[10]^d0, 3)
	b3 = bits.RotateLeft64(a[16]^d1, 45)
	b4 = bits.RotateLeft64(a[22]^d2, 61)
	e[5] = b0 ^ (^b1 & b2)
	e[6] = b1 ^ (^b2 & b3)
	e[7] = b2 ^ (^b3 & b4)
	e[8] = b3 ^ (^b4 & b0)
	e[9] = b4 ^ (^b0 & b1)

	// ρ and π gather row 2, χ writes it.
	b0 = bits.RotateLeft64(a[1]^d1, 1)
	b1 = bits.RotateLeft64(a[7]^d2, 6)
	b2 = bits.RotateLeft64(a[13]^d3, 25)
	b3 = bits.RotateLeft64(a[19]^d4, 8)
	b4 = bits.RotateLeft64(a[20]^d0, 18)
	e[10] = b0 ^ (^b1 & b2)
	e[11] = b1 ^ (^b2 & b3)
	e[12] = b2 ^ (^b3 & b4)
	e[13] = b3 ^ (^b4 & b0)
	e[14] = b4 ^ (^b0 & b1)

	// ρ and π gather row 3, χ writes it.
	b0 = bits.RotateLeft64(a[4]^d4, 27)
	b1 = bits.RotateLeft64(a[5]^d0, 36)
	b2 = bits.RotateLeft64(a[11]^d1, 10)
	b3 = bits.RotateLeft64(a[17]^d2, 15)
	b4 = bits.RotateLeft64(a[23]^d3, 56)
	e[15] = b0 ^ (^b1 & b2)
	e[16] = b1 ^ (^b2 & b3)
	e[17] = b2 ^ (^b3 & b4)
	e[18] = b3 ^ (^b4 & b0)
	e[19] = b4 ^ (^b0 & b1)

	// ρ and π gather row 4, χ writes it.
	b0 = bits.RotateLeft64(a[2]^d2, 62)
	b1 = bits.RotateLeft64(a[8]^d3, 55)
	b2 = bits.RotateLeft64(a[14]^d4, 39)
	b3 = bits.RotateLeft64(a[15]^d0, 41)
	b4 = bits.RotateLeft64(a[21]^d1, 2)
	e[20] = b0 ^ (^b1 & b2)
	e[21] = b1 ^ (^b2 & b3)
	e[22] = b2 ^ (^b3 & b4)
	e[23] = b3 ^ (^b4 & b0)
	e[24] = b4 ^ (^b0 & b1)
}

// rate is the bytes absorbed per block: 1600 bits less twice the
// 256-bit output.
const rate = 136

// absorb XORs one rate-sized block into a and permutes.
func absorb(a *state, block []byte) {
	for i := 0; i < len(block)/8; i++ {
		a[i] ^= binary.LittleEndian.Uint64(block[8*i:])
	}
	permute(a)
}

// finish pads tail (shorter than rate) with the pre-FIPS multi-rate
// padding 0x01 … 0x80, absorbs it into a and squeezes the 32-byte
// digest, which fits inside one rate block. The padded block lives on
// the stack.
func finish(a *state, tail []byte, out *[32]byte) {
	var block [rate]byte
	n := copy(block[:], tail)
	block[n] = 0x01
	block[rate-1] |= 0x80
	absorb(a, block[:])
	for i := 0; i < len(out)/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], a[i])
	}
}

// digest is a sponge instance. It implements hash.Hash.
type digest struct {
	a   state
	buf []byte // unabsorbed input, len < rate
}

// New256 returns a hash.Hash computing Keccak-256 (32-byte output).
func New256() hash.Hash { return &digest{} }

func (d *digest) Size() int      { return 32 }
func (d *digest) BlockSize() int { return rate }

func (d *digest) Reset() {
	d.a = state{}
	d.buf = d.buf[:0]
}

func (d *digest) Write(p []byte) (int, error) {
	n := len(p)
	// Top up a partial block first.
	if len(d.buf) > 0 {
		need := rate - len(d.buf)
		if need > len(p) {
			need = len(p)
		}
		d.buf = append(d.buf, p[:need]...)
		p = p[need:]
		if len(d.buf) == rate {
			absorb(&d.a, d.buf)
			d.buf = d.buf[:0]
		}
	}
	// Absorb full blocks straight from the input, no copying.
	for len(p) >= rate {
		absorb(&d.a, p[:rate])
		p = p[rate:]
	}
	if len(p) > 0 {
		d.buf = append(d.buf, p...)
	}
	return n, nil
}

// Sum works on a copy of the state so it does not disturb the running
// hash.
func (d *digest) Sum(in []byte) []byte {
	a := d.a
	var out [32]byte
	finish(&a, d.buf, &out)
	return append(in, out[:]...)
}

// Sum256 computes the Keccak-256 digest of data without heap
// allocation: full blocks are absorbed straight from data.
func Sum256(data []byte) (out [32]byte) {
	var a state
	for len(data) >= rate {
		absorb(&a, data[:rate])
		data = data[rate:]
	}
	finish(&a, data, &out)
	return out
}
