package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fe is an element of F_P in four little-endian 64-bit limbs, always
// reduced into [0, P). Operations take operands by pointer, and the
// receiver may be one of them; the zero value is 0.
//
// Reduction uses the special form of P = 2²⁵⁶ − 2³² − 977: since
// 2²⁵⁶ ≡ 2³² + 977 (mod P), the limbs above 2²⁵⁶ are multiplied by
// that 33-bit constant and added back in, with no division.
type fe [4]uint64

// foldC is 2²⁵⁶ mod P.
const foldC = 1<<32 + 977

// feP is P in limbs.
var feP = fe{0xfffffffefffffc2f, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff}

// setBig sets z = x mod P. Points reaching the ladder are normally in
// range already; anything else is reduced through big.Int first.
func (z *fe) setBig(x *big.Int) {
	if x.Sign() < 0 || x.Cmp(P) >= 0 {
		x = new(big.Int).Mod(x, P)
	}
	*z = limbs(x)
}

// limbs returns the non-negative x < 2²⁵⁶ in four little-endian limbs.
func limbs(x *big.Int) (l [4]uint64) {
	var b [32]byte
	x.FillBytes(b[:])
	for i := range l {
		l[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return l
}

// big returns z as a new big.Int.
func (z *fe) big() *big.Int {
	var b [32]byte
	for i, w := range z {
		binary.BigEndian.PutUint64(b[24-8*i:], w)
	}
	return new(big.Int).SetBytes(b[:])
}

func (z *fe) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// subP sets z = r − P when the value carry·2²⁵⁶ + r is at least P, and
// z = r otherwise. Callers guarantee that value is below 2P, so the
// result is in [0, P); with carry set, r − P wraps to the right value.
func (z *fe) subP(r0, r1, r2, r3, carry uint64) {
	s0, b := bits.Sub64(r0, feP[0], 0)
	s1, b := bits.Sub64(r1, feP[1], b)
	s2, b := bits.Sub64(r2, feP[2], b)
	s3, b := bits.Sub64(r3, feP[3], b)
	if carry != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	} else {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	}
}

// add sets z = x + y mod P.
func (z *fe) add(x, y *fe) {
	r0, c := bits.Add64(x[0], y[0], 0)
	r1, c := bits.Add64(x[1], y[1], c)
	r2, c := bits.Add64(x[2], y[2], c)
	r3, c := bits.Add64(x[3], y[3], c)
	z.subP(r0, r1, r2, r3, c)
}

// sub sets z = x − y mod P: on a borrow, the wrapped difference plus P
// is the value in [0, P).
func (z *fe) sub(x, y *fe) {
	r0, b := bits.Sub64(x[0], y[0], 0)
	r1, b := bits.Sub64(x[1], y[1], b)
	r2, b := bits.Sub64(x[2], y[2], b)
	r3, b := bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		r0, c = bits.Add64(r0, feP[0], 0)
		r1, c = bits.Add64(r1, feP[1], c)
		r2, c = bits.Add64(r2, feP[2], c)
		r3, _ = bits.Add64(r3, feP[3], c)
	}
	z[0], z[1], z[2], z[3] = r0, r1, r2, r3
}

// madd returns x·y + a + b as a 128-bit (hi, lo); it cannot overflow.
func madd(x, y, a, b uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(x, y)
	var c uint64
	lo, c = bits.Add64(lo, a, 0)
	hi += c
	lo, c = bits.Add64(lo, b, 0)
	hi += c
	return hi, lo
}

// mul sets z = x·y mod P: the 4×4 schoolbook product, one row per limb
// of x, then fold.
func (z *fe) mul(x, y *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var c, t0, t1, t2, t3, t4, t5, t6, t7 uint64
	c, t0 = madd(x0, y0, 0, 0)
	c, t1 = madd(x0, y1, 0, c)
	c, t2 = madd(x0, y2, 0, c)
	t4, t3 = madd(x0, y3, 0, c)
	c, t1 = madd(x1, y0, t1, 0)
	c, t2 = madd(x1, y1, t2, c)
	c, t3 = madd(x1, y2, t3, c)
	t5, t4 = madd(x1, y3, t4, c)
	c, t2 = madd(x2, y0, t2, 0)
	c, t3 = madd(x2, y1, t3, c)
	c, t4 = madd(x2, y2, t4, c)
	t6, t5 = madd(x2, y3, t5, c)
	c, t3 = madd(x3, y0, t3, 0)
	c, t4 = madd(x3, y1, t4, c)
	c, t5 = madd(x3, y2, t5, c)
	t7, t6 = madd(x3, y3, t6, c)
	z.fold(t0, t1, t2, t3, t4, t5, t6, t7)
}

// sqr sets z = x² mod P with ten limb products, not sixteen: the six
// products x_i·x_j with i < j once, doubled by a shift, plus the four
// squares x_i².
func (z *fe) sqr(x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var c, t1, t2, t3, t4, t5, t6, t7 uint64
	c, t1 = madd(x0, x1, 0, 0)
	c, t2 = madd(x0, x2, 0, c)
	t4, t3 = madd(x0, x3, 0, c)
	c, t3 = madd(x1, x2, t3, 0)
	t5, t4 = madd(x1, x3, t4, c)
	t6, t5 = madd(x2, x3, t5, 0)
	t7 = t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1
	hi, t0 := bits.Mul64(x0, x0)
	t1, c = bits.Add64(t1, hi, 0)
	hi, lo := bits.Mul64(x1, x1)
	t2, c = bits.Add64(t2, lo, c)
	t3, c = bits.Add64(t3, hi, c)
	hi, lo = bits.Mul64(x2, x2)
	t4, c = bits.Add64(t4, lo, c)
	t5, c = bits.Add64(t5, hi, c)
	hi, lo = bits.Mul64(x3, x3)
	t6, c = bits.Add64(t6, lo, c)
	t7, _ = bits.Add64(t7, hi, c)
	z.fold(t0, t1, t2, t3, t4, t5, t6, t7)
}

// fold sets z = t mod P for the 512-bit t = t7…t0. The first fold adds
// the high half times 2²⁵⁶ mod P to the low half, leaving a carry limb
// below 2³⁴; the second folds that limb the same way, which can carry
// out of 2²⁵⁶ once more, and subP settles both that carry and a value
// in [P, 2²⁵⁶).
func (z *fe) fold(t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	c, r0 := madd(t4, foldC, t0, 0)
	c, r1 := madd(t5, foldC, t1, c)
	c, r2 := madd(t6, foldC, t2, c)
	c, r3 := madd(t7, foldC, t3, c)
	hi, lo := bits.Mul64(c, foldC)
	r0, c = bits.Add64(r0, lo, 0)
	r1, c = bits.Add64(r1, hi, c)
	r2, c = bits.Add64(r2, 0, c)
	r3, c = bits.Add64(r3, 0, c)
	z.subP(r0, r1, r2, r3, c)
}

// pow246 sets z = x^(2²⁴⁶ − 2²² − 1), the exponent that sqrt and inv
// share: 223 ones, a zero and 22 ones, the high bits of both P − 2 and
// (P + 1)/4. It builds x^(2^k − 1) for k = 2, 3, 6, 9, 11, 22, 44, 88,
// 176, 220, 223 and shifts the runs into place — 245 squarings and 12
// products — and returns x^(2² − 1) = x³ for the tails.
func (z *fe) pow246(x *fe) (x2 fe) {
	var x3, x6, x9, x11, x22, x44, x88, x176, x220, x223 fe
	x2.sqr(x)
	x2.mul(&x2, x)
	x3.sqr(&x2)
	x3.mul(&x3, x)
	x6.sqrN(&x3, 3)
	x6.mul(&x6, &x3)
	x9.sqrN(&x6, 3)
	x9.mul(&x9, &x3)
	x11.sqrN(&x9, 2)
	x11.mul(&x11, &x2)
	x22.sqrN(&x11, 11)
	x22.mul(&x22, &x11)
	x44.sqrN(&x22, 22)
	x44.mul(&x44, &x22)
	x88.sqrN(&x44, 44)
	x88.mul(&x88, &x44)
	x176.sqrN(&x88, 88)
	x176.mul(&x176, &x88)
	x220.sqrN(&x176, 44)
	x220.mul(&x220, &x44)
	x223.sqrN(&x220, 3)
	x223.mul(&x223, &x3)
	z.sqrN(&x223, 23)
	z.mul(z, &x22)
	return x2
}

// sqrt sets z to a square root of x and reports whether x has one.
// Since P ≡ 3 (mod 4), x^((P+1)/4) is a root whenever one exists; the
// exponent is pow246's followed by 000011 and 00.
func (z *fe) sqrt(x *fe) bool {
	var t, r fe
	x2 := t.pow246(x)
	t.sqrN(&t, 6)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	r.sqr(&t)
	*z = t
	return r == *x
}

// inv sets z = x⁻¹ = x^(P−2) (Fermat), and 0 for x = 0. The exponent is
// pow246's followed by 0000101101: 255 squarings and 15 products.
func (z *fe) inv(x *fe) {
	var t fe
	x2 := t.pow246(x)
	t.sqrN(&t, 5)
	t.mul(&t, x)
	t.sqrN(&t, 3)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	t.mul(&t, x)
	*z = t
}

// sqrN sets z = x^(2^n), n ≥ 1.
func (z *fe) sqrN(x *fe, n int) {
	z.sqr(x)
	for i := 1; i < n; i++ {
		z.sqr(z)
	}
}
