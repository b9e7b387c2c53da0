// Package secp256k1 implements the secp256k1 elliptic curve and the
// ECDSA operations Ethereum uses for transaction signing: deterministic
// signing (RFC 6979), verification, and public-key recovery from a
// recoverable signature (the ecrecover primitive).
//
// The standard library does not ship secp256k1 (crypto/elliptic only
// covers the NIST curves), so the curve is implemented here. Every
// scalar multiplication is one call of combine(a, P, b, Q) = a·P + b·Q,
// so the u₁·G + u₂·R of verification and recovery shares one doubling
// chain, and a plain k·P is the same routine with b = 0. Each scalar is
// split with the GLV endomorphism, k ≡ k₁ + k₂·λ (mod N) with both
// halves below 2¹²⁸, λ·(x, y) being (β·x, y); each half is recoded in
// width-5 wNAF over a table of the odd multiples P, 3P, …, 15P (λP's is
// P's with x times β). G's tables are built once; any other point's per
// call, normalised to affine with one inversion. One Jacobian
// accumulator (x/z², y/z³) then walks up to four digit strings at once:
// ≈ 129 doublings and ≈ 22 mixed additions per string. The field is
// native: fe holds an element of F_P in four 64-bit limbs and reduces a
// product by folding with 2²⁵⁶ ≡ 2³² + 977 (mod P), and inverts by
// Fermat along an addition chain, so a multiplication allocates only its
// result. math/big stays at the edges — the exported Point and
// Signature, the mod-N scalar arithmetic of signing, verification and
// recovery, and OnCurve. This is not a constant-time implementation —
// the digit strings, and so the additions, follow the scalar — and must
// not be used to guard production funds, a limitation shared with every
// devnet keystore.
package secp256k1

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
)

// Curve parameters: y² = x³ + 7 over F_p.
var (
	// P is the field prime 2^256 - 2^32 - 977.
	P, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	// N is the group order.
	N, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	// Gx, Gy are the coordinates of the base point.
	Gx, _ = new(big.Int).SetString("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798", 16)
	Gy, _ = new(big.Int).SetString("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8", 16)

	halfN = new(big.Int).Rsh(N, 1)
	seven = big.NewInt(7)
)

// Point is an affine curve point; the point at infinity is represented
// by X == nil.
type Point struct {
	X, Y *big.Int
}

// Infinity returns the identity element.
func Infinity() Point { return Point{} }

// IsInfinity reports whether p is the identity.
func (p Point) IsInfinity() bool { return p.X == nil }

// OnCurve reports whether p satisfies the curve equation.
func (p Point) OnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	if p.X.Sign() < 0 || p.X.Cmp(P) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(P) >= 0 {
		return false
	}
	y2 := new(big.Int).Mul(p.Y, p.Y)
	y2.Mod(y2, P)
	x3 := new(big.Int).Mul(p.X, p.X)
	x3.Mul(x3, p.X)
	x3.Add(x3, seven)
	x3.Mod(x3, P)
	return y2.Cmp(x3) == 0
}

func modInverse(a *big.Int, m *big.Int) *big.Int {
	return new(big.Int).ModInverse(new(big.Int).Mod(a, m), m)
}

// jacobian is the scalar-multiplication accumulator: the point
// (x/z², y/z³) with field-element coordinates, z = 0 for the identity.
// The zero value is the identity.
type jacobian struct {
	x, y, z fe
}

// double sets j = 2j: "dbl-2009-l" for a = 0, five squarings and two
// products. The identity, and a point with y = 0, come out with z = 0.
func (j *jacobian) double() {
	var a, b, c, d, e, f fe
	a.sqr(&j.x) // A = X²
	b.sqr(&j.y) // B = Y²
	c.sqr(&b)   // C = B²
	d.add(&j.x, &b)
	d.sqr(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.add(&d, &d) // D = 2((X+B)² − A − C)
	e.add(&a, &a)
	e.add(&e, &a) // E = 3A
	f.sqr(&e)     // F = E²
	j.z.mul(&j.y, &j.z)
	j.z.add(&j.z, &j.z) // Z' = 2YZ
	a.add(&d, &d)
	j.x.sub(&f, &a) // X' = F − 2D
	d.sub(&d, &j.x)
	j.y.mul(&e, &d)
	c.add(&c, &c)
	c.add(&c, &c)
	c.add(&c, &c)
	j.y.sub(&j.y, &c) // Y' = E(D − X') − 8C
}

// addAffine sets j = j + (px, py) for an affine point other than the
// identity (mixed addition, the addend's z being 1). Adding a point to
// itself doubles; adding it to its negation gives the identity.
func (j *jacobian) addAffine(px, py *fe) {
	if j.z.isZero() {
		j.x, j.y, j.z = *px, *py, fe{1}
		return
	}
	var a, h, c, r, e, v fe
	a.sqr(&j.z)
	h.mul(px, &a)
	h.sub(&h, &j.x) // H = px·Z² − X
	c.mul(&j.z, &a)
	r.mul(py, &c)
	r.sub(&r, &j.y) // R = py·Z³ − Y
	if h.isZero() {
		if r.isZero() {
			j.double()
		} else {
			j.z = fe{}
		}
		return
	}
	c.sqr(&h)     // H²
	e.mul(&h, &c) // H³
	v.mul(&j.x, &c)
	j.x.sqr(&r)
	j.x.sub(&j.x, &e)
	j.x.sub(&j.x, &v)
	j.x.sub(&j.x, &v) // X' = R² − H³ − 2V, V = X·H²
	v.sub(&v, &j.x)
	v.mul(&r, &v)
	c.mul(&j.y, &e)
	j.y.sub(&v, &c)   // Y' = R(V − X') − Y·H³
	j.z.mul(&j.z, &h) // Z' = Z·H
}

// affine converts j back, paying one field inversion.
func (j *jacobian) affine() Point {
	if j.z.isZero() {
		return Infinity()
	}
	var inv, inv2, x, y fe
	inv.inv(&j.z)
	inv2.sqr(&inv)       // z⁻²
	inv.mul(&inv2, &inv) // z⁻³
	x.mul(&j.x, &inv2)
	y.mul(&j.y, &inv)
	return Point{X: x.big(), Y: y.big()}
}

// oddTable holds the odd multiples P, 3P, …, 15P of a point in affine
// form: entry i is (2i+1)·P, which a wNAF digit ±(2i+1) adds.
type oddTable [tableSize]struct{ x, y fe }

// build fills t from the affine point (px, py), which must be on the
// curve. 2P is left in Jacobian form (X, Y, Z); on the isomorphic curve
// (x, y) ↦ (x·Z², y·Z³) it is the affine (X, Y), so the seven additions
// are mixed ones there, and each sum's z times Z is its z on the curve.
// One inversion (Montgomery's trick) brings all eight back.
func (t *oddTable) build(px, py *fe) {
	d := jacobian{*px, *py, fe{1}}
	d.double()
	var acc [tableSize]jacobian
	var zz fe
	zz.sqr(&d.z)
	acc[0].x.mul(px, &zz)
	zz.mul(&zz, &d.z)
	acc[0].y.mul(py, &zz)
	acc[0].z = fe{1}
	for i := 1; i < tableSize; i++ {
		acc[i] = acc[i-1]
		acc[i].addAffine(&d.x, &d.y)
	}
	// prod[i] = z₀·…·zᵢ with the curve's z; invert the whole product,
	// then peel one z off per entry from the top.
	var prod [tableSize]fe
	for i := range acc {
		acc[i].z.mul(&acc[i].z, &d.z)
		prod[i] = acc[i].z
		if i > 0 {
			prod[i].mul(&prod[i-1], &acc[i].z)
		}
	}
	var inv, zi, zi2 fe
	inv.inv(&prod[tableSize-1])
	for i := tableSize - 1; i >= 0; i-- {
		if i > 0 {
			zi.mul(&inv, &prod[i-1]) // zᵢ⁻¹
			inv.mul(&inv, &acc[i].z) // (z₀·…·zᵢ₋₁)⁻¹
		} else {
			zi = inv
		}
		zi2.sqr(&zi)
		t[i].x.mul(&acc[i].x, &zi2)
		zi2.mul(&zi2, &zi)
		t[i].y.mul(&acc[i].y, &zi2)
	}
}

// addDigit adds d·P for a wNAF digit d (odd, |d| < 16, or 0 for
// nothing) from P's table.
func (j *jacobian) addDigit(t *oddTable, d int8) {
	switch {
	case d > 0:
		j.addAffine(&t[d>>1].x, &t[d>>1].y)
	case d < 0:
		var y fe
		y.sub(&y, &t[-d>>1].y)
		j.addAffine(&t[-d>>1].x, &y)
	}
}

var (
	feBeta = fe(limbs(beta))
	// gTable and gLambdaTable are G's and λG's, built once: 1 KiB.
	gTable, gLambdaTable = baseTables()
)

func baseTables() (g, lg oddTable) {
	g.fill(Point{X: Gx, Y: Gy}, &lg)
	return g, lg
}

// fill sets t to p's odd multiples and lt to λp's, (2i+1)·λp being
// (β·xᵢ, yᵢ).
func (t *oddTable) fill(p Point, lt *oddTable) {
	var x, y fe
	x.setBig(p.X)
	y.setBig(p.Y)
	t.build(&x, &y)
	for i := range t {
		lt[i].x.mul(&feBeta, &t[i].x)
		lt[i].y = t[i].y
	}
}

// combine returns a·p + b·q. Each scalar, reduced mod N, splits into
// two halves below 2¹²⁸ (splitScalar), each half recoded as width-5 wNAF
// digits over the odd multiples of p, λp, q or λq — G's tables are built
// once, any other point's per call. One Jacobian accumulator then walks
// the four digit strings from the top: ≈ 129 doublings shared by all
// four, and one mixed addition per nonzero digit (≈ 22 a string). An
// identity operand, or a zero scalar, adds no string. The points enter
// the field as limbs in fill and leave it in affine().
func combine(a *big.Int, p Point, b *big.Int, q Point) Point {
	var (
		digits [4][wnafLen]int8
		tabs   [4]oddTable // p's, λp's, q's and λq's, unless the point is G
		tab    [4]*oddTable
		n, top int
	)
	for _, op := range [2]struct {
		k *big.Int
		p Point
	}{{a, p}, {b, q}} {
		k := op.k
		if k.Sign() < 0 || k.Cmp(N) >= 0 {
			k = new(big.Int).Mod(k, N)
		}
		if op.p.IsInfinity() || k.Sign() == 0 {
			continue
		}
		if op.p.X.Cmp(Gx) == 0 && op.p.Y.Cmp(Gy) == 0 {
			tab[n], tab[n+1] = &gTable, &gLambdaTable
		} else {
			tabs[n].fill(op.p, &tabs[n+1])
			tab[n], tab[n+1] = &tabs[n], &tabs[n+1]
		}
		kl := limbs(k)
		k1, neg1, k2, neg2 := splitScalar(&kl)
		top = max(top, wnaf(&digits[n], k1, neg1), wnaf(&digits[n+1], k2, neg2))
		n += 2
	}
	var acc jacobian
	for i := top - 1; i >= 0; i-- {
		acc.double()
		for s := 0; s < n; s++ {
			acc.addDigit(tab[s], digits[s][i])
		}
	}
	return acc.affine()
}

// ScalarMult returns k·p: the joint ladder with nothing on its second
// input.
func ScalarMult(p Point, k *big.Int) Point {
	return combine(k, p, new(big.Int), Infinity())
}

// ScalarBaseMult returns k·G.
func ScalarBaseMult(k *big.Int) Point {
	return ScalarMult(Point{X: Gx, Y: Gy}, k)
}

// PrivateKey is a secp256k1 private scalar with its public point.
type PrivateKey struct {
	D      *big.Int
	Public Point
}

// GenerateKey creates a key from crypto/rand.
func GenerateKey() (*PrivateKey, error) {
	for {
		var buf [32]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, err
		}
		d := new(big.Int).SetBytes(buf[:])
		if d.Sign() > 0 && d.Cmp(N) < 0 {
			return PrivateKeyFromScalar(d), nil
		}
	}
}

// PrivateKeyFromScalar builds a key from an in-range scalar.
func PrivateKeyFromScalar(d *big.Int) *PrivateKey {
	return &PrivateKey{D: new(big.Int).Set(d), Public: ScalarBaseMult(d)}
}

// PrivateKeyFromBytes parses a 32-byte scalar.
func PrivateKeyFromBytes(b []byte) (*PrivateKey, error) {
	d := new(big.Int).SetBytes(b)
	if d.Sign() == 0 || d.Cmp(N) >= 0 {
		return nil, errors.New("secp256k1: private key out of range")
	}
	return PrivateKeyFromScalar(d), nil
}

// Bytes returns the 32-byte big-endian scalar.
func (k *PrivateKey) Bytes() []byte {
	out := make([]byte, 32)
	k.D.FillBytes(out)
	return out
}

// SerializePublic returns the 65-byte uncompressed encoding 0x04||X||Y.
func SerializePublic(p Point) []byte {
	out := make([]byte, 65)
	out[0] = 0x04
	p.X.FillBytes(out[1:33])
	p.Y.FillBytes(out[33:65])
	return out
}

// Signature is a recoverable ECDSA signature. V is the recovery id (0/1),
// identifying which of the candidate R points was used.
type Signature struct {
	R, S *big.Int
	V    byte
}

// Serialize returns the 65-byte [R||S||V] form used in transactions.
func (sig *Signature) Serialize() []byte {
	out := make([]byte, 65)
	sig.R.FillBytes(out[:32])
	sig.S.FillBytes(out[32:64])
	out[64] = sig.V
	return out
}

// ParseSignature parses the 65-byte [R||S||V] form.
func ParseSignature(b []byte) (*Signature, error) {
	if len(b) != 65 {
		return nil, errors.New("secp256k1: signature must be 65 bytes")
	}
	sig := &Signature{
		R: new(big.Int).SetBytes(b[:32]),
		S: new(big.Int).SetBytes(b[32:64]),
		V: b[64],
	}
	if err := sig.validate(); err != nil {
		return nil, err
	}
	if err := sig.CheckLowS(); err != nil {
		return nil, err
	}
	return sig, nil
}

// validate checks what any recoverable signature must satisfy: r and s
// in [1, N−1] and a recovery id of 0 or 1.
func (sig *Signature) validate() error {
	if sig.R.Sign() <= 0 || sig.R.Cmp(N) >= 0 || sig.S.Sign() <= 0 || sig.S.Cmp(N) >= 0 {
		return errors.New("secp256k1: signature component out of range")
	}
	if sig.V > 1 {
		return errors.New("secp256k1: recovery id must be 0 or 1")
	}
	return nil
}

// CheckLowS refuses s > N/2. That is EIP-2's rule against malleable
// transaction signatures, not a property of ECDSA: ParseSignature and
// ethtypes.Transaction.Sender enforce it, Recover (and so the ecrecover
// precompile, which accepts either s) does not.
func (sig *Signature) CheckLowS() error {
	if sig.S.Cmp(halfN) > 0 {
		return errors.New("secp256k1: signature s not normalized (malleable)")
	}
	return nil
}

// Sign produces a deterministic (RFC 6979, HMAC-SHA256) recoverable
// signature over the 32-byte digest. S is normalized to the low half to
// rule out malleability, as Ethereum requires.
func (k *PrivateKey) Sign(digest []byte) (*Signature, error) {
	if len(digest) != 32 {
		return nil, errors.New("secp256k1: digest must be 32 bytes")
	}
	z := hashToInt(digest)
	z.Mod(z, N)
	for attempt := 0; ; attempt++ {
		kNonce := rfc6979Nonce(k.D, z, attempt)
		if kNonce.Sign() == 0 || kNonce.Cmp(N) >= 0 {
			continue
		}
		rp := ScalarBaseMult(kNonce)
		if rp.IsInfinity() {
			continue
		}
		r := new(big.Int).Mod(rp.X, N)
		if r.Sign() == 0 {
			continue
		}
		// s = k^-1 (z + r d) mod n
		s := new(big.Int).Mul(r, k.D)
		s.Add(s, z)
		s.Mul(s, modInverse(kNonce, N))
		s.Mod(s, N)
		if s.Sign() == 0 {
			continue
		}
		v := byte(rp.Y.Bit(0))
		if rp.X.Cmp(N) >= 0 {
			// r aliased past the group order; the recovery id encoding
			// cannot express this (~2^-127 chance) — retry.
			continue
		}
		if s.Cmp(halfN) > 0 {
			s.Sub(N, s)
			v ^= 1
		}
		return &Signature{R: r, S: s, V: v}, nil
	}
}

// Verify checks a (non-recoverable) signature over digest against pub.
func Verify(pub Point, digest []byte, r, s *big.Int) bool {
	if len(digest) != 32 || pub.IsInfinity() || !pub.OnCurve() {
		return false
	}
	if r.Sign() <= 0 || r.Cmp(N) >= 0 || s.Sign() <= 0 || s.Cmp(N) >= 0 {
		return false
	}
	z := hashToInt(digest)
	w := modInverse(s, N)
	u1 := new(big.Int).Mul(z, w)
	u1.Mod(u1, N)
	u2 := new(big.Int).Mul(r, w)
	u2.Mod(u2, N)
	pt := combine(u1, Point{X: Gx, Y: Gy}, u2, pub)
	if pt.IsInfinity() {
		return false
	}
	return new(big.Int).Mod(pt.X, N).Cmp(r) == 0
}

// Recover returns the public key that produced sig over digest
// (the ecrecover primitive). It accepts any s in [1, N−1]; callers that
// must refuse the malleable twin check CheckLowS first.
func Recover(digest []byte, sig *Signature) (Point, error) {
	if len(digest) != 32 {
		return Point{}, errors.New("secp256k1: digest must be 32 bytes")
	}
	if err := sig.validate(); err != nil {
		return Point{}, err
	}
	// Reconstruct R from x = r and the parity bit v.
	x := new(big.Int).Set(sig.R)
	y, err := liftX(x, sig.V)
	if err != nil {
		return Point{}, err
	}
	rPoint := Point{X: x, Y: y}
	// Q = r⁻¹(s·R − z·G), distributed so that it costs one joint ladder
	// instead of three multiplications: Q = (−z·r⁻¹)·G + (s·r⁻¹)·R.
	z := hashToInt(digest)
	rInv := modInverse(sig.R, N)
	u1 := new(big.Int).Mul(new(big.Int).Neg(z), rInv) // combine reduces mod N
	u2 := new(big.Int).Mul(sig.S, rInv)
	q := combine(u1, Point{X: Gx, Y: Gy}, u2, rPoint)
	if q.IsInfinity() || !q.OnCurve() {
		return Point{}, errors.New("secp256k1: recovery produced invalid point")
	}
	return q, nil
}

// liftX computes the curve y with the requested parity for the given x.
func liftX(x *big.Int, parity byte) (*big.Int, error) {
	if x.Cmp(P) >= 0 {
		return nil, errors.New("secp256k1: x out of field")
	}
	// y² = x³ + 7, then its root if it has one.
	var fx, y2, y fe
	fx.setBig(x)
	y2.sqr(&fx)
	y2.mul(&y2, &fx)
	y2.add(&y2, &fe{7})
	if !y.sqrt(&y2) {
		return nil, errors.New("secp256k1: x has no square root (invalid signature)")
	}
	if byte(y[0]&1) != parity {
		y.sub(&fe{}, &y)
	}
	return y.big(), nil
}

func hashToInt(digest []byte) *big.Int {
	return new(big.Int).SetBytes(digest)
}

// rfc6979Nonce derives the deterministic nonce k for signing from the
// key d and the digest z reduced mod N — RFC 6979's bits2octets(h1)
// (§2.3.4), so digests that differ by N share a nonce as they share a
// signature. The extra counter folds in retry attempts (RFC 6979 §3.2
// step h loop).
func rfc6979Nonce(d, z *big.Int, attempt int) *big.Int {
	x := make([]byte, 32)
	d.FillBytes(x)
	digest := make([]byte, 32)
	z.FillBytes(digest)

	v := make([]byte, 32)
	kk := make([]byte, 32)
	for i := range v {
		v[i] = 0x01
	}

	mac := func(key []byte, chunks ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, c := range chunks {
			m.Write(c)
		}
		return m.Sum(nil)
	}

	kk = mac(kk, v, []byte{0x00}, x, digest)
	v = mac(kk, v)
	kk = mac(kk, v, []byte{0x01}, x, digest)
	v = mac(kk, v)

	for i := 0; ; i++ {
		v = mac(kk, v)
		if i >= attempt {
			return new(big.Int).SetBytes(v)
		}
		kk = mac(kk, v, []byte{0x00})
		v = mac(kk, v)
	}
}
