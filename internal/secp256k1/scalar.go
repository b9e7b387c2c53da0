package secp256k1

import (
	"math/big"
	"math/bits"
)

// The GLV endomorphism: λ·(x, y) = (β·x, y) for every curve point, λ a
// cube root of unity mod N and β one mod P. A scalar k splits as
// k ≡ k₁ + k₂·λ (mod N) with |k₁|, |k₂| < 2¹²⁸, so k·P = k₁·P + k₂·(λP)
// walks half the doublings, and λP costs one field product per
// coordinate. (a₁, b₁) and (a₂, b₂) are a short basis of the lattice of
// (x, y) with x + y·λ ≡ 0 (mod N) (Hankerson–Menezes–Vanstone §3.5,
// algorithm 3.74).
var (
	lambda, _ = new(big.Int).SetString("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72", 16)
	beta, _   = new(big.Int).SetString("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee", 16)

	lattA1, _ = new(big.Int).SetString("3086d221a7d46bcde86c90e49284eb15", 16)
	lattB1, _ = new(big.Int).SetString("-e4437ed6010e88286f547fa90abfe4c3", 16)
	lattA2, _ = new(big.Int).SetString("114ca50f7a8e2f3f657c1108d9d44cfd8", 16)
	lattB2    = lattA1

	// The split's constants in limbs: g₁ = round(2³⁸⁴·b₂/N) and
	// g₂ = round(2³⁸⁴·(−b₁)/N), so that round(k·b₂/N) ≈ round(k·g₁/2³⁸⁴)
	// without a division (libsecp256k1's fixed-point estimate); the basis
	// itself mod 2²⁵⁶, where k₁ and k₂ are computed.
	splitG1, splitG2                  = limbs(roundDiv(lattB2)), limbs(roundDiv(new(big.Int).Neg(lattB1)))
	limbA1, limbA2, limbNegB1, limbB2 = limbs(lattA1), limbs(lattA2), limbs(new(big.Int).Neg(lattB1)), limbs(lattB2)
)

// roundDiv returns round(2³⁸⁴·x/N) for x > 0.
func roundDiv(x *big.Int) *big.Int {
	q := new(big.Int).Lsh(x, 385)
	q.Add(q, N)
	return q.Div(q, new(big.Int).Lsh(N, 1))
}

// mulWide returns the 512-bit product x·y in little-endian limbs.
func mulWide(x, y *[4]uint64) (t [8]uint64) {
	for i := range x {
		var c uint64
		for j := range y {
			c, t[i+j] = madd(x[i], y[j], t[i+j], c)
		}
		t[i+4] = c
	}
	return t
}

// mulShift384 returns round(k·g / 2³⁸⁴): the product's top two limbs
// plus its bit 383.
func mulShift384(k, g *[4]uint64) [4]uint64 {
	t := mulWide(k, g)
	lo, c := bits.Add64(t[6], t[5]>>63, 0)
	return [4]uint64{lo, t[7] + c}
}

// sub256 returns x − y mod 2²⁵⁶.
func sub256(x, y [4]uint64) (z [4]uint64) {
	var b uint64
	for i := range z {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	return z
}

// mulLow returns x·y mod 2²⁵⁶.
func mulLow(x, y *[4]uint64) [4]uint64 {
	t := mulWide(x, y)
	return [4]uint64{t[0], t[1], t[2], t[3]}
}

// abs256 reads x as a two's-complement integer and returns its
// magnitude and whether it is negative.
func abs256(x [4]uint64) ([4]uint64, bool) {
	if x[3]>>63 == 0 {
		return x, false
	}
	return sub256([4]uint64{}, x), true
}

// splitScalar splits k ∈ [0, N) as k ≡ k₁ + k₂·λ (mod N): with
// c₁ = round(k·b₂/N) and c₂ = round(k·(−b₁)/N),
// k₁ = k − c₁·a₁ − c₂·a₂ and k₂ = c₁·(−b₁) − c₂·b₂, both below 2¹²⁸ in
// magnitude. The exact values fit, so they are computed mod 2²⁵⁶ and
// returned as magnitude and sign.
func splitScalar(k *[4]uint64) (k1 [4]uint64, neg1 bool, k2 [4]uint64, neg2 bool) {
	c1, c2 := mulShift384(k, &splitG1), mulShift384(k, &splitG2)
	k1, neg1 = abs256(sub256(sub256(*k, mulLow(&c1, &limbA1)), mulLow(&c2, &limbA2)))
	k2, neg2 = abs256(sub256(mulLow(&c1, &limbNegB1), mulLow(&c2, &limbB2)))
	return k1, neg1, k2, neg2
}

// wnafWidth is the window of the scalar recoding: every nonzero digit is
// odd and below 2^(wnafWidth−1) in magnitude, so a table holds the
// 2^(wnafWidth−2) odd multiples P, 3P, …, 15P.
const (
	wnafWidth = 5
	tableSize = 1 << (wnafWidth - 2)
	// wnafLen holds the recoding of a split half: below 2¹²⁸, its last
	// digit can sit at bit 128.
	wnafLen = 129
)

// wnaf sets d to the width-5 NAF of k < 2¹²⁸, each digit negated when
// neg, and returns the digits' length: k = Σ d[i]·2ⁱ, and any 5
// consecutive digits hold at most one nonzero.
func wnaf(d *[wnafLen]int8, k [4]uint64, neg bool) int {
	*d = [wnafLen]int8{}
	sign := int8(1)
	if neg {
		sign = -1
	}
	n, carry := 0, uint64(0)
	for i := 0; i < wnafLen; {
		if (k[i>>6]>>(i&63))&1 == carry {
			i++
			continue
		}
		w := min(wnafWidth, wnafLen-i)
		// The window's bits; i ≤ 128, so limb i>>6 + 1 exists.
		word := k[i>>6] >> (i & 63)
		if i&63 != 0 {
			word |= k[i>>6+1] << (64 - i&63)
		}
		word = word&(1<<w-1) + carry
		carry = word >> (wnafWidth - 1) & 1
		d[i] = sign * int8(int64(word)-int64(carry<<wnafWidth))
		n = i + 1
		i += w
	}
	return n
}
