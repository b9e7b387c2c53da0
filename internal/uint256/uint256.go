// Package uint256 implements fixed-size 256-bit unsigned integers with
// the wrapping (mod 2^256) semantics of the Ethereum Virtual Machine.
//
// Values are immutable four-limb little-endian arrays; all operations
// return new values, which keeps the EVM interpreter free of aliasing
// bugs at the cost of some allocation. All arithmetic — including
// division, modulo, the 512-bit AddMod/MulMod intermediates and
// exponentiation — is implemented natively on the limbs (see div.go for
// the Knuth Algorithm D core); math/big appears only at the
// encoding/printing boundary (FromBig, ToBig, String).
package uint256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a 256-bit unsigned integer, little-endian limbs: v[0] is the
// least significant 64 bits. The zero value is the number 0.
type Int [4]uint64

// Common constants.
var (
	Zero = Int{}
	One  = Int{1, 0, 0, 0}
	Max  = Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
)

// NewUint64 returns v as an Int.
func NewUint64(v uint64) Int { return Int{v, 0, 0, 0} }

// FromBig converts b (interpreted mod 2^256; negative values are
// two's-complement wrapped) to an Int.
func FromBig(b *big.Int) Int {
	if b == nil {
		return Zero
	}
	v := new(big.Int).And(b, maxBig)
	if b.Sign() < 0 {
		v = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 256), b)
		v.And(v, maxBig)
	}
	var out Int
	words := v.Bits()
	for i := 0; i < len(words) && i < 4; i++ {
		out[i] = uint64(words[i])
	}
	return out
}

var maxBig = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))

// ToBig returns x as a non-negative big integer.
func (x Int) ToBig() *big.Int {
	b := new(big.Int)
	for i := 3; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(x[i]))
	}
	return b
}

// toSigned returns x as a signed big integer in [-2^255, 2^255) — a
// conversion-boundary helper for oracles and printing, not used by the
// native arithmetic.
func (x Int) toSigned() *big.Int {
	b := x.ToBig()
	if x[3]>>63 == 1 {
		b.Sub(b, new(big.Int).Lsh(big.NewInt(1), 256))
	}
	return b
}

// SetBytes interprets b as a big-endian unsigned integer (mod 2^256).
func SetBytes(b []byte) Int {
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	if len(b) < 32 {
		var word [32]byte
		copy(word[32-len(b):], b)
		b = word[:]
	}
	return Int{
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]),
	}
}

// Bytes32 returns the 32-byte big-endian encoding of x.
func (x Int) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:8], x[3])
	binary.BigEndian.PutUint64(out[8:16], x[2])
	binary.BigEndian.PutUint64(out[16:24], x[1])
	binary.BigEndian.PutUint64(out[24:32], x[0])
	return out
}

// Bytes returns the minimal big-endian encoding of x (empty for zero).
func (x Int) Bytes() []byte {
	full := x.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	return full[i:]
}

// Uint64 returns the low 64 bits of x.
func (x Int) Uint64() uint64 { return x[0] }

// IsUint64 reports whether x fits in a uint64.
func (x Int) IsUint64() bool { return x[1] == 0 && x[2] == 0 && x[3] == 0 }

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return x == Zero }

// Add returns x + y mod 2^256.
func (x Int) Add(y Int) Int {
	var out Int
	var c uint64
	out[0], c = bits.Add64(x[0], y[0], 0)
	out[1], c = bits.Add64(x[1], y[1], c)
	out[2], c = bits.Add64(x[2], y[2], c)
	out[3], _ = bits.Add64(x[3], y[3], c)
	return out
}

// Sub returns x - y mod 2^256.
func (x Int) Sub(y Int) Int {
	var out Int
	var b uint64
	out[0], b = bits.Sub64(x[0], y[0], 0)
	out[1], b = bits.Sub64(x[1], y[1], b)
	out[2], b = bits.Sub64(x[2], y[2], b)
	out[3], _ = bits.Sub64(x[3], y[3], b)
	return out
}

// SubUnderflow returns x - y and whether the subtraction borrowed.
func (x Int) SubUnderflow(y Int) (Int, bool) {
	var out Int
	var b uint64
	out[0], b = bits.Sub64(x[0], y[0], 0)
	out[1], b = bits.Sub64(x[1], y[1], b)
	out[2], b = bits.Sub64(x[2], y[2], b)
	out[3], b = bits.Sub64(x[3], y[3], b)
	return out, b != 0
}

// Mul returns x * y mod 2^256 (schoolbook on 64-bit limbs, truncated).
func (x Int) Mul(y Int) Int {
	var out Int
	for i := 0; i < 4; i++ {
		if y[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < 4; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			var c1, c2 uint64
			out[i+j], c1 = bits.Add64(out[i+j], lo, 0)
			out[i+j], c2 = bits.Add64(out[i+j], carry, 0)
			carry = hi + c1 + c2 // cannot overflow: hi <= 2^64-2
		}
	}
	return out
}

// Div returns x / y (unsigned), or 0 when y == 0 (EVM semantics).
func (x Int) Div(y Int) Int {
	if y.IsZero() || x.Lt(y) {
		return Zero
	}
	if x.IsUint64() {
		return NewUint64(x[0] / y[0]) // y <= x so y is single-limb too
	}
	var quo Int
	udivrem(quo[:], x[:], y)
	return quo
}

// Mod returns x % y (unsigned), or 0 when y == 0.
func (x Int) Mod(y Int) Int {
	if y.IsZero() {
		return Zero
	}
	if x.Lt(y) {
		return x
	}
	if x.IsUint64() {
		return NewUint64(x[0] % y[0])
	}
	var quo Int
	return udivrem(quo[:], x[:], y)
}

// abs returns |x| under two's-complement interpretation. Note the most
// negative value -2^255 maps to itself, which is exactly what the EVM's
// SDIV(-2^255, -1) = -2^255 overflow case requires.
func (x Int) abs() Int {
	if x[3]>>63 == 1 {
		return Zero.Sub(x)
	}
	return x
}

// SDiv returns x / y as two's-complement signed division truncating
// toward zero, or 0 when y == 0.
func (x Int) SDiv(y Int) Int {
	if y.IsZero() {
		return Zero
	}
	q := x.abs().Div(y.abs())
	if (x[3]>>63 == 1) != (y[3]>>63 == 1) {
		return Zero.Sub(q)
	}
	return q
}

// SMod returns the signed remainder (sign follows dividend), 0 if y == 0.
func (x Int) SMod(y Int) Int {
	if y.IsZero() {
		return Zero
	}
	r := x.abs().Mod(y.abs())
	if x[3]>>63 == 1 {
		return Zero.Sub(r)
	}
	return r
}

// AddMod returns (x + y) % m computed without intermediate wrap, 0 if
// m == 0. The sum is carried into a fifth limb before reduction.
func (x Int) AddMod(y, m Int) Int {
	if m.IsZero() {
		return Zero
	}
	var sum [5]uint64
	var c uint64
	sum[0], c = bits.Add64(x[0], y[0], 0)
	sum[1], c = bits.Add64(x[1], y[1], c)
	sum[2], c = bits.Add64(x[2], y[2], c)
	sum[3], c = bits.Add64(x[3], y[3], c)
	sum[4] = c
	var quo [5]uint64
	return udivrem(quo[:], sum[:], m)
}

// MulMod returns (x * y) % m computed without intermediate wrap, 0 if
// m == 0. The full 512-bit product is reduced directly.
func (x Int) MulMod(y, m Int) Int {
	if m.IsZero() {
		return Zero
	}
	p := umul512(x, y)
	var quo [8]uint64
	return udivrem(quo[:], p[:], m)
}

// Exp returns x^y mod 2^256 by square-and-multiply over the significant
// bits of the exponent; Mul's wrapping provides the modulus for free.
func (x Int) Exp(y Int) Int {
	out := One
	base := x
	n := y.BitLen()
	for i := 0; i < n; i++ {
		if (y[i/64]>>(uint(i)%64))&1 == 1 {
			out = out.Mul(base)
		}
		base = base.Mul(base)
	}
	return out
}

// SignExtend extends the sign bit of the (k+1)-th lowest byte through the
// full width, per the EVM SIGNEXTEND opcode. k >= 31 returns x unchanged.
func (x Int) SignExtend(k Int) Int {
	if !k.IsUint64() || k.Uint64() >= 31 {
		return x
	}
	bitIdx := uint(k.Uint64()*8 + 7)
	limb, off := bitIdx/64, bitIdx%64
	signSet := (x[limb]>>off)&1 == 1
	out := x
	// Build a mask of bits above bitIdx.
	for i := uint(0); i < 4; i++ {
		switch {
		case i < limb:
			// untouched
		case i == limb:
			if off < 63 {
				mask := ^uint64(0) << (off + 1)
				if signSet {
					out[i] |= mask
				} else {
					out[i] &^= mask
				}
			}
		default:
			if signSet {
				out[i] = ^uint64(0)
			} else {
				out[i] = 0
			}
		}
	}
	return out
}

// Cmp returns -1, 0, or 1 comparing x and y as unsigned values.
func (x Int) Cmp(y Int) int {
	for i := 3; i >= 0; i-- {
		if x[i] < y[i] {
			return -1
		}
		if x[i] > y[i] {
			return 1
		}
	}
	return 0
}

// Lt reports x < y unsigned.
func (x Int) Lt(y Int) bool { return x.Cmp(y) < 0 }

// Gt reports x > y unsigned.
func (x Int) Gt(y Int) bool { return x.Cmp(y) > 0 }

// Slt reports x < y as two's-complement signed values.
func (x Int) Slt(y Int) bool {
	xs, ys := x[3]>>63, y[3]>>63
	if xs != ys {
		return xs == 1 // negative < non-negative
	}
	return x.Cmp(y) < 0
}

// Sgt reports x > y as two's-complement signed values.
func (x Int) Sgt(y Int) bool { return y.Slt(x) }

// Eq reports x == y.
func (x Int) Eq(y Int) bool { return x == y }

// And, Or, Xor, Not are bitwise operations.
func (x Int) And(y Int) Int { return Int{x[0] & y[0], x[1] & y[1], x[2] & y[2], x[3] & y[3]} }
func (x Int) Or(y Int) Int  { return Int{x[0] | y[0], x[1] | y[1], x[2] | y[2], x[3] | y[3]} }
func (x Int) Xor(y Int) Int { return Int{x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]} }
func (x Int) Not() Int      { return Int{^x[0], ^x[1], ^x[2], ^x[3]} }

// Byte returns the i-th byte of x counting from the most significant
// (EVM BYTE opcode); i >= 32 yields 0.
func (x Int) Byte(i Int) Int {
	if !i.IsUint64() || i.Uint64() >= 32 {
		return Zero
	}
	b := x.Bytes32()
	return NewUint64(uint64(b[i.Uint64()]))
}

// Shl returns x << n (zero when n >= 256).
func (x Int) Shl(n Int) Int {
	if !n.IsUint64() || n.Uint64() >= 256 {
		return Zero
	}
	s := uint(n.Uint64())
	limbShift, bitShift := s/64, s%64
	var out Int
	for i := 3; i >= 0; i-- {
		src := i - int(limbShift)
		if src < 0 {
			continue
		}
		out[i] = x[src] << bitShift
		if bitShift > 0 && src-1 >= 0 {
			out[i] |= x[src-1] >> (64 - bitShift)
		}
	}
	return out
}

// Shr returns x >> n logically (zero-filling).
func (x Int) Shr(n Int) Int {
	if !n.IsUint64() || n.Uint64() >= 256 {
		return Zero
	}
	s := uint(n.Uint64())
	limbShift, bitShift := s/64, s%64
	var out Int
	for i := 0; i < 4; i++ {
		src := i + int(limbShift)
		if src > 3 {
			continue
		}
		out[i] = x[src] >> bitShift
		if bitShift > 0 && src+1 <= 3 {
			out[i] |= x[src+1] << (64 - bitShift)
		}
	}
	return out
}

// Sar returns x >> n arithmetically (sign-filling).
func (x Int) Sar(n Int) Int {
	neg := x[3]>>63 == 1
	if !n.IsUint64() || n.Uint64() >= 256 {
		if neg {
			return Max
		}
		return Zero
	}
	out := x.Shr(n)
	if neg {
		// Fill the vacated high bits with ones.
		fill := Max.Shl(NewUint64(256 - n.Uint64()))
		if n.Uint64() == 0 {
			fill = Zero
		}
		out = out.Or(fill)
	}
	return out
}

// BitLen returns the minimum number of bits needed to represent x.
func (x Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x[i] != 0 {
			return i*64 + bits.Len64(x[i])
		}
	}
	return 0
}

// String renders x in decimal.
func (x Int) String() string { return x.ToBig().String() }

// Hex renders x as a 0x-prefixed minimal hex quantity.
func (x Int) Hex() string { return fmt.Sprintf("%#x", x.ToBig()) }
