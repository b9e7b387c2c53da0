package secp256k1

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// Add returns p + q using the affine group law, one field inversion per
// call: the oracle the Jacobian formulas are checked against.
func Add(p, q Point) Point {
	if p.IsInfinity() {
		return q
	}
	if q.IsInfinity() {
		return p
	}
	if p.X.Cmp(q.X) == 0 {
		sum := new(big.Int).Add(p.Y, q.Y)
		sum.Mod(sum, P)
		if sum.Sign() == 0 {
			return Infinity() // p == -q
		}
		return Double(p)
	}
	// lambda = (qy - py) / (qx - px)
	num := new(big.Int).Sub(q.Y, p.Y)
	den := new(big.Int).Sub(q.X, p.X)
	lambda := num.Mul(num, modInverse(den, P))
	lambda.Mod(lambda, P)
	return chord(p, q, lambda)
}

// Double returns 2p.
func Double(p Point) Point {
	if p.IsInfinity() || p.Y.Sign() == 0 {
		return Infinity()
	}
	// lambda = 3x² / 2y
	num := new(big.Int).Mul(p.X, p.X)
	num.Mul(num, big.NewInt(3))
	den := new(big.Int).Lsh(p.Y, 1)
	lambda := num.Mul(num, modInverse(den, P))
	lambda.Mod(lambda, P)
	return chord(p, p, lambda)
}

// chord completes point addition given the slope lambda.
func chord(p, q Point, lambda *big.Int) Point {
	x := new(big.Int).Mul(lambda, lambda)
	x.Sub(x, p.X)
	x.Sub(x, q.X)
	x.Mod(x, P)
	if x.Sign() < 0 {
		x.Add(x, P)
	}
	y := new(big.Int).Sub(p.X, x)
	y.Mul(y, lambda)
	y.Sub(y, p.Y)
	y.Mod(y, P)
	if y.Sign() < 0 {
		y.Add(y, P)
	}
	return Point{X: x, Y: y}
}

// scalarMultAffine is ScalarMult as it was first written — LSB-first
// double-and-add on the affine group law, a field inversion per step —
// kept as the differential oracle for the Jacobian ladder in the build.
func scalarMultAffine(p Point, k *big.Int) Point {
	k = new(big.Int).Mod(k, N)
	result := Infinity()
	addend := p
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			result = Add(result, addend)
		}
		addend = Double(addend)
	}
	return result
}

func samePoint(a, b Point) bool {
	if a.IsInfinity() || b.IsInfinity() {
		return a.IsInfinity() && b.IsInfinity()
	}
	return a.X.Cmp(b.X) == 0 && a.Y.Cmp(b.Y) == 0
}

func negate(p Point) Point {
	return Point{X: p.X, Y: new(big.Int).Sub(P, p.Y)}
}

// pointFromSeed turns 32 bytes into a curve point without any scalar
// multiplication: the first x at or after the seed (mod P) that has a
// square root, the seed's low bit choosing between the two ys.
func pointFromSeed(seed []byte) Point {
	x := new(big.Int).SetBytes(seed)
	for x.Mod(x, P); ; x.Add(x, big.NewInt(1)).Mod(x, P) {
		if y, err := liftX(x, seed[len(seed)-1]&1); err == nil {
			return Point{X: x, Y: y}
		}
	}
}

// edgeScalars are the ladder's boundary cases: nothing to add, the
// shortest ladders, and the reductions mod N at, around and far past it.
func edgeScalars() []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0), one, big.NewInt(2),
		new(big.Int).Sub(N, one), N, new(big.Int).Add(N, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	}
}

func TestBasePointOnCurve(t *testing.T) {
	g := Point{X: Gx, Y: Gy}
	if !g.OnCurve() {
		t.Fatal("base point not on curve")
	}
	// n·G = infinity
	if !ScalarBaseMult(N).IsInfinity() {
		t.Fatal("N*G is not the identity")
	}
	// (n-1)·G = -G
	m := ScalarBaseMult(new(big.Int).Sub(N, big.NewInt(1)))
	if m.X.Cmp(Gx) != 0 {
		t.Fatal("(N-1)*G has wrong x")
	}
	if new(big.Int).Add(m.Y, Gy).Mod(new(big.Int).Add(m.Y, Gy), P).Sign() != 0 {
		t.Fatal("(N-1)*G is not -G")
	}
}

// Known scalar multiples of G (from the canonical secp256k1 test table).
func TestKnownMultiples(t *testing.T) {
	cases := []struct{ k, x, y string }{
		{"1",
			"79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798",
			"483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8"},
		{"2",
			"C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5",
			"1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A"},
		{"3",
			"F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9",
			"388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672"},
		{"20",
			"4CE119C96E2FA357200B559B2F7DD5A5F02D5290AFF74B03F3E471B273211C97",
			"12BA26DCB10EC1625DA61FA10A844C676162948271D96967450288EE9233DC3A"},
		{"112233445566778899",
			"A90CC3D3F3E146DAADFC74CA1372207CB4B725AE708CEF713A98EDD73D99EF29",
			"5A79D6B289610C68BC3B47F3D72F9788A26A06868B4D8E433E1E2AD76FB7DC76"},
	}
	for _, c := range cases {
		k, _ := new(big.Int).SetString(c.k, 10)
		wantX, _ := new(big.Int).SetString(c.x, 16)
		wantY, _ := new(big.Int).SetString(c.y, 16)
		want := Point{X: wantX, Y: wantY}
		if got := ScalarBaseMult(k); !samePoint(got, want) {
			t.Errorf("k=%s: got (%x, %x)", c.k, got.X, got.Y)
		}
		if got := scalarMultAffine(Point{X: Gx, Y: Gy}, k); !samePoint(got, want) {
			t.Errorf("k=%s: affine oracle got (%x, %x)", c.k, got.X, got.Y)
		}
	}
}

// TestJacobianMatchesAffine is the differential test for the ladder:
// seeded random (point, scalar) pairs, then every edge scalar against
// G, −G and the identity.
func TestJacobianMatchesAffine(t *testing.T) {
	check := func(p Point, k *big.Int) {
		t.Helper()
		got, want := ScalarMult(p, k), scalarMultAffine(p, k)
		if !samePoint(got, want) {
			t.Fatalf("k=%x p=(%x, %x): ScalarMult = (%x, %x), affine oracle (%x, %x)", k, p.X, p.Y, got.X, got.Y, want.X, want.Y)
		}
		if !got.OnCurve() {
			t.Fatalf("k=%x p=(%x, %x): result off the curve", k, p.X, p.Y)
		}
	}
	pairs := 500
	if testing.Short() {
		pairs = 48
	}
	rng := rand.New(rand.NewSource(24))
	seed := make([]byte, 32)
	for i := 0; i < pairs; i++ {
		rng.Read(seed)
		k := new(big.Int).Rand(rng, N)
		if i%10 == 0 {
			k.Rsh(k, uint(rng.Intn(256))) // short ladders too
		}
		check(pointFromSeed(seed), k)
	}
	g := Point{X: Gx, Y: Gy}
	for _, k := range edgeScalars() {
		for _, p := range []Point{g, negate(g), Infinity()} {
			check(p, k)
		}
	}
}

// feOf returns x as a field element.
func feOf(x *big.Int) *fe {
	var z fe
	z.setBig(x)
	return &z
}

// TestJacobianSpecialCases drives the branches of addAffine a ladder with
// k < N never takes — the accumulator meeting the addend itself, or its
// negation, at z ≠ 1 — and double on the identity.
func TestJacobianSpecialCases(t *testing.T) {
	g := Point{X: Gx, Y: Gy}
	gx, gy := feOf(g.X), feOf(g.Y)
	five := scalarMultAffine(g, big.NewInt(5))
	fx, fy := feOf(five.X), feOf(five.Y)
	// 5·G the way the ladder reaches it (101b), which leaves z ≠ 1.
	fiveJ := func() *jacobian {
		var j jacobian
		j.addAffine(gx, gy)
		j.double()
		j.double()
		j.addAffine(gx, gy)
		if j.z == (fe{1}) || !samePoint(j.affine(), five) {
			t.Fatal("set-up: accumulator is not 5·G at z ≠ 1")
		}
		return &j
	}

	j := fiveJ()
	j.addAffine(fx, fy)
	if want := scalarMultAffine(g, big.NewInt(10)); !samePoint(j.affine(), want) {
		t.Fatal("accumulator + itself is not its double")
	}

	j = fiveJ()
	neg := negate(five)
	j.addAffine(feOf(neg.X), feOf(neg.Y))
	if !j.affine().IsInfinity() {
		t.Fatal("accumulator + its negation is not the identity")
	}
	// …and the identity it left behind still behaves like one.
	j.double()
	if !j.affine().IsInfinity() {
		t.Fatal("doubling the identity left it")
	}
	j.addAffine(fx, fy)
	if !samePoint(j.affine(), five) {
		t.Fatal("identity + p is not p")
	}

	var zero jacobian
	zero.double()
	if !zero.affine().IsInfinity() {
		t.Fatal("doubling the zero-value accumulator is not the identity")
	}
}

// TestCombineMatchesAffine is the differential test for the joint
// ladder: combine(a, p, b, q) against the sum of two affine-oracle
// multiplications. Seeded random rows, some with q = ±p and some with one
// scalar far shorter than the other, then every pair of edge scalars
// with q ∈ {p, −p, ∞, an unrelated point}, and p = ∞.
func TestCombineMatchesAffine(t *testing.T) {
	check := func(a *big.Int, p Point, b *big.Int, q Point) {
		t.Helper()
		got := combine(a, p, b, q)
		want := Add(scalarMultAffine(p, a), scalarMultAffine(q, b))
		if !samePoint(got, want) {
			t.Fatalf("a=%x p=(%x, %x) b=%x q=(%x, %x): combine = (%x, %x), affine oracle (%x, %x)",
				a, p.X, p.Y, b, q.X, q.Y, got.X, got.Y, want.X, want.Y)
		}
		if !got.OnCurve() {
			t.Fatalf("a=%x b=%x: result off the curve", a, b)
		}
	}
	rows := 500
	if testing.Short() {
		rows = 48
	}
	rng := rand.New(rand.NewSource(30))
	seed := make([]byte, 32)
	for i := 0; i < rows; i++ {
		rng.Read(seed)
		p := pointFromSeed(seed)
		rng.Read(seed)
		q := pointFromSeed(seed)
		switch i % 7 {
		case 3:
			q = p
		case 4:
			q = negate(p)
		}
		a, b := new(big.Int).Rand(rng, N), new(big.Int).Rand(rng, N)
		switch i % 10 {
		case 0:
			a.Rsh(a, uint(128+rng.Intn(128)))
		case 5:
			b.Rsh(b, uint(128+rng.Intn(128)))
		}
		check(a, p, b, q)
	}

	one := big.NewInt(1)
	edges := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(N, one), N}
	g := Point{X: Gx, Y: Gy}
	other := pointFromSeed(bytes.Repeat([]byte{0x3c}, 32))
	for _, a := range edges {
		for _, b := range edges {
			for _, q := range []Point{g, negate(g), Infinity(), other} {
				check(a, g, b, q)
			}
			check(a, Infinity(), b, g)
		}
	}
}

// checkField compares mul, sqr, add, sub and inv on x, y with big.Int mod P,
// each result also read back as exactly its value (so in [0, P)).
func checkField(t *testing.T, x, y *big.Int) {
	t.Helper()
	fx, fy := feOf(x), feOf(y)
	for _, c := range []struct {
		op   string
		got  func(z *fe)
		want *big.Int
	}{
		{"mul", func(z *fe) { z.mul(fx, fy) }, new(big.Int).Mul(x, y)},
		{"sqr", func(z *fe) { z.sqr(fx) }, new(big.Int).Mul(x, x)},
		{"add", func(z *fe) { z.add(fx, fy) }, new(big.Int).Add(x, y)},
		{"sub", func(z *fe) { z.sub(fx, fy) }, new(big.Int).Sub(x, y)},
		{"inv", func(z *fe) { z.inv(fx) }, modInverseOrZero(x)},
	} {
		var z fe
		c.got(&z)
		if want := c.want.Mod(c.want, P); z.big().Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", c.op, x, y, z.big(), want)
		}
	}
}

// modInverseOrZero is x⁻¹ mod P, and 0 for x ≡ 0, which is what inv's
// x^(P−2) gives there.
func modInverseOrZero(x *big.Int) *big.Int {
	if inv := new(big.Int).ModInverse(x, P); inv != nil {
		return inv
	}
	return new(big.Int)
}

// TestFieldMatchesBig is the field's oracle: every pair of edge operands
// — 0, 1, 2³²+977 (2²⁵⁶ mod P), P−2, P−1 and values made of all-ones
// limbs — then a seeded sweep, a quarter of it just below P. (P−1)²
// reaches the second fold and ends in the subtraction of P;
// (P−1)·(2²⁵⁶−2⁶⁴) is an edge pair whose second fold carries out of
// 2²⁵⁶; (P−1)+(P−1) carries out of the sum.
func TestFieldMatchesBig(t *testing.T) {
	one := big.NewInt(1)
	limbs := func(l ...uint64) *big.Int {
		x := new(big.Int)
		for i := len(l) - 1; i >= 0; i-- {
			x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(l[i]))
		}
		return x
	}
	const ones = ^uint64(0)
	edges := []*big.Int{
		big.NewInt(0), one, big.NewInt(foldC),
		new(big.Int).Sub(P, big.NewInt(2)), new(big.Int).Sub(P, one),
		limbs(ones), limbs(ones, ones), limbs(ones, ones, ones),
		limbs(0, ones, ones, ones), limbs(0, 0, ones, ones), limbs(0, 0, 0, ones),
		limbs(ones, 0, ones, 0), limbs(0, ones, 0, ones),
	}
	for _, x := range edges {
		for _, y := range edges {
			checkField(t, x, y)
		}
	}

	rng := rand.New(rand.NewSource(32))
	near := new(big.Int).Lsh(one, 40)
	for i := 0; i < 20000; i++ {
		x, y := new(big.Int).Rand(rng, P), new(big.Int).Rand(rng, P)
		switch i % 4 {
		case 1: // just below P
			x.Sub(P, x.Rand(rng, near).Add(x, one))
		case 2: // short operands
			y.Rsh(y, uint(rng.Intn(256)))
		}
		checkField(t, x, y)
	}

	// sqrt against big.Int.Exp by (P+1)/4, on the edges and a sweep that
	// is half squares, so both answers of sqrt are reached.
	sqrtExp := new(big.Int).Rsh(new(big.Int).Add(P, one), 2)
	checkSqrt := func(x *big.Int) {
		t.Helper()
		var z fe
		ok := z.sqrt(feOf(x))
		want := new(big.Int).Exp(x, sqrtExp, P)
		root := new(big.Int).Mul(want, want)
		if wantOK := root.Mod(root, P).Cmp(x) == 0; ok != wantOK || z.big().Cmp(want) != 0 {
			t.Fatalf("sqrt(%x) = %x, %v; want %x, %v", x, z.big(), ok, want, wantOK)
		}
	}
	for _, x := range edges {
		checkSqrt(x)
	}
	for i := 0; i < 2000; i++ {
		x := new(big.Int).Rand(rng, P)
		if i%2 == 0 {
			x.Mul(x, x).Mod(x, P)
		}
		checkSqrt(x)
	}
}

// FuzzField compares the field operations with big.Int mod P on two
// fuzzer-chosen operands, each cut or zero-extended to 32 bytes and
// reduced mod P.
func FuzzField(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ab, bb [32]byte
		copy(ab[:], a)
		copy(bb[:], b)
		x := new(big.Int).SetBytes(ab[:])
		y := new(big.Int).SetBytes(bb[:])
		checkField(t, x.Mod(x, P), y.Mod(y, P))
	})
}

// limbsOf returns the non-negative x < 2²⁵⁶ in limbs, by masks and
// shifts in big.Int rather than through limbs().
func limbsOf(x *big.Int) (l [4]uint64) {
	w := new(big.Int).Set(x)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := range l {
		l[i] = new(big.Int).And(w, mask).Uint64()
		w.Rsh(w, 64)
	}
	return l
}

// bigOf returns the limbs l as a big.Int, negated when neg.
func bigOf(l [4]uint64, neg bool) *big.Int {
	x := new(big.Int)
	for i := len(l) - 1; i >= 0; i-- {
		x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(l[i]))
	}
	if neg {
		x.Neg(x)
	}
	return x
}

// TestSplitScalar is the oracle for the GLV split: for each k, k₁ and k₂
// must be exactly what the fixed-point formula gives in big.Int —
// c = ⌊(k·g + 2³⁸³) / 2³⁸⁴⌋ with g₁, g₂ rounded from the basis here, not
// taken from the package — and so satisfy k₁ + k₂·λ ≡ k (mod N), each
// below 2¹²⁸ in magnitude. The scalars: 0, 1, λ, N−1, N−λ, the basis
// vectors' multiples and the points where round(k·b₂/N) or
// round(k·(−b₁)/N) changes, each ±2, and a seeded sweep.
func TestSplitScalar(t *testing.T) {
	one := big.NewInt(1)
	half := new(big.Int).Lsh(one, 383)
	roundG := func(x *big.Int) *big.Int {
		q, r := new(big.Int).DivMod(new(big.Int).Lsh(x, 384), N, new(big.Int))
		if r.Lsh(r, 1).Cmp(N) >= 0 {
			q.Add(q, one)
		}
		return q
	}
	negB1 := new(big.Int).Neg(lattB1)
	g1, g2 := roundG(lattB2), roundG(negB1)
	bound := new(big.Int).Lsh(one, 128)
	check := func(k *big.Int) {
		t.Helper()
		kl := limbsOf(k)
		l1, neg1, l2, neg2 := splitScalar(&kl)
		k1, k2 := bigOf(l1, neg1), bigOf(l2, neg2)
		c1 := new(big.Int).Mul(k, g1)
		c1.Add(c1, half).Rsh(c1, 384)
		c2 := new(big.Int).Mul(k, g2)
		c2.Add(c2, half).Rsh(c2, 384)
		want1 := new(big.Int).Sub(k, new(big.Int).Mul(c1, lattA1))
		want1.Sub(want1, new(big.Int).Mul(c2, lattA2))
		want2 := new(big.Int).Mul(c1, negB1)
		want2.Sub(want2, new(big.Int).Mul(c2, lattB2))
		if k1.Cmp(want1) != 0 || k2.Cmp(want2) != 0 {
			t.Fatalf("k=%x: split (%x, %x), want (%x, %x)", k, k1, k2, want1, want2)
		}
		sum := new(big.Int).Mul(k2, lambda)
		if sum.Add(sum, k1).Sub(sum, k).Mod(sum, N).Sign() != 0 {
			t.Fatalf("k=%x: k₁ + k₂·λ = k + %x (mod N)", k, sum)
		}
		if new(big.Int).Abs(k1).Cmp(bound) >= 0 || new(big.Int).Abs(k2).Cmp(bound) >= 0 {
			t.Fatalf("k=%x: split (%x, %x) not below 2¹²⁸", k, k1, k2)
		}
	}
	ks := []*big.Int{big.NewInt(0), one, lambda, new(big.Int).Sub(N, one), new(big.Int).Sub(N, lambda)}
	// k at which k·b/N crosses m + ½: ⌈(2m+1)·N / 2b⌉. The last such k
	// below N has m = b − 1.
	boundary := func(m, b *big.Int) *big.Int {
		x := new(big.Int).Lsh(m, 1)
		x.Add(x, one).Mul(x, N)
		d := new(big.Int).Lsh(b, 1)
		return x.Add(x, d).Sub(x, one).Div(x, d)
	}
	for _, b := range []*big.Int{lattB2, negB1} {
		ms := []*big.Int{new(big.Int).Sub(b, one), new(big.Int).Sub(b, big.NewInt(2)), new(big.Int).Rsh(b, 1)}
		for _, m := range []int64{0, 1, 2, 3, 1 << 20, 1<<40 + 7} {
			ms = append(ms, big.NewInt(m))
		}
		for _, m := range ms {
			for d := int64(-2); d <= 2; d++ {
				ks = append(ks, new(big.Int).Add(boundary(m, b), big.NewInt(d)))
			}
		}
	}
	for _, m := range []int64{1, 2, 3, 4, 1 << 20, 1<<40 + 7, 1<<62 + 11} {
		for _, a := range []*big.Int{lattA1, lattA2} {
			for d := int64(-2); d <= 2; d++ {
				ks = append(ks, new(big.Int).Add(new(big.Int).Mul(big.NewInt(m), a), big.NewInt(d)))
			}
		}
	}
	for _, k := range ks {
		check(k.Mod(k, N))
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 10000; i++ {
		check(new(big.Int).Rand(rng, N))
	}
}

// TestWNAF is the oracle for the recoding: on edge and seeded values
// below 2¹²⁸, both signs, the digits sum back to ±k, every nonzero digit
// is odd and below 16 in magnitude, any five consecutive digits hold at
// most one nonzero, and the length ends at the top nonzero digit.
func TestWNAF(t *testing.T) {
	one := big.NewInt(1)
	top := new(big.Int).Lsh(one, 128)
	check := func(k *big.Int, neg bool) {
		t.Helper()
		var d [wnafLen]int8
		for i := range d {
			d[i] = 99 // wnaf must clear what it does not set
		}
		n := wnaf(&d, limbsOf(k), neg)
		sum, last := new(big.Int), -5
		for i := len(d) - 1; i >= 0; i-- {
			sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(d[i])))
			if d[i] == 0 {
				continue
			}
			if d[i]%2 == 0 || d[i] >= 16 || d[i] <= -16 {
				t.Fatalf("k=%x: digit %d at %d", k, d[i], i)
			}
			if last >= 0 && last-i < wnafWidth {
				t.Fatalf("k=%x: nonzero digits at %d and %d", k, i, last)
			}
			if last < 0 && n != i+1 {
				t.Fatalf("k=%x: length %d, top digit at %d", k, n, i)
			}
			last = i
		}
		if last < 0 && n != 0 {
			t.Fatalf("k=0: length %d", n)
		}
		if neg {
			sum.Neg(sum)
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("k=%x neg=%v: digits sum to %x", k, neg, sum)
		}
	}
	ks := []*big.Int{
		big.NewInt(0), one, big.NewInt(15), big.NewInt(16), big.NewInt(17), big.NewInt(31), big.NewInt(0x5555),
		new(big.Int).Sub(top, one), new(big.Int).Rsh(top, 1), new(big.Int).Sub(new(big.Int).Rsh(top, 1), one),
		new(big.Int).Lsh(big.NewInt(0xffff), 60), new(big.Int).Lsh(big.NewInt(0xbbbb), 120-16),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		k := new(big.Int).Rand(rng, top)
		if i%8 == 0 {
			k.Rsh(k, uint(rng.Intn(128)))
		}
		ks = append(ks, k)
	}
	for _, k := range ks {
		check(k, false)
		check(k, true)
	}
}

// TestEndomorphism checks the endomorphism's constants, λ·(x, y) =
// (β·x, y) against the affine oracle for G and seeded points, and each
// odd-multiple table — G's, λG's, and ones built per call — entry by
// entry against the oracle.
func TestEndomorphism(t *testing.T) {
	one := big.NewInt(1)
	three := big.NewInt(3)
	if new(big.Int).Exp(lambda, three, N).Cmp(one) != 0 || new(big.Int).Exp(beta, three, P).Cmp(one) != 0 {
		t.Fatal("λ or β is not a cube root of unity")
	}
	for _, v := range [][2]*big.Int{{lattA1, lattB1}, {lattA2, lattB2}} {
		if x := new(big.Int).Mul(v[1], lambda); x.Add(x, v[0]).Mod(x, N).Sign() != 0 {
			t.Fatalf("(%x, %x) is not in the lattice", v[0], v[1])
		}
	}
	checkTable := func(tab *oddTable, p Point) {
		t.Helper()
		for i := range tab {
			want := scalarMultAffine(p, big.NewInt(int64(2*i+1)))
			if got := (Point{X: tab[i].x.big(), Y: tab[i].y.big()}); !samePoint(got, want) {
				t.Fatalf("p=(%x, %x): entry %d is not %d·p", p.X, p.Y, i, 2*i+1)
			}
		}
	}
	g := Point{X: Gx, Y: Gy}
	points := []Point{g}
	rng := rand.New(rand.NewSource(3))
	seed := make([]byte, 32)
	for i := 0; i < 8; i++ {
		rng.Read(seed)
		points = append(points, pointFromSeed(seed))
	}
	for i, p := range points {
		want := scalarMultAffine(p, lambda)
		bx := new(big.Int).Mul(beta, p.X)
		if !samePoint(Point{X: bx.Mod(bx, P), Y: p.Y}, want) {
			t.Fatalf("p=(%x, %x): (β·x, y) is not λ·p", p.X, p.Y)
		}
		var tab, ltab oddTable
		tab.fill(p, &ltab)
		checkTable(&tab, p)
		checkTable(&ltab, want)
		if i == 0 {
			checkTable(&gTable, g)
			checkTable(&gLambdaTable, want)
		}
	}
}

// TestLadderAllocations pins the allocation floor. The field elements,
// the odd-multiple tables, the wNAF digits and the inversions are limb
// arrays on the stack, so what a multiplication allocates is its
// result's two big.Ints; the rest of a signature or a recovery is its
// mod-N big.Int arithmetic and RFC 6979's HMACs. With the Jacobian
// ladder paying two inversions through big.Int.ModInverse, a
// multiplication allocated 22 times, a signature 85 and a recovery 75;
// with the field in math/big, 33, 95 and 111; with big.Int.Mod
// allocating a quotient per reduction, a multiplication ≈ 3.9k times
// and a recovery ≈ 7.6k.
func TestLadderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops the sync.Pool entries big.Int's division reuses")
	}
	p := pointFromSeed(bytes.Repeat([]byte{0x5a}, 32))
	k := new(big.Int).Rand(rand.New(rand.NewSource(24)), N)
	key := PrivateKeyFromScalar(big.NewInt(0xabcdef))
	digest := sha256.Sum256([]byte("bench"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"ScalarMult", 4, func() { sinkPoint = ScalarMult(p, k) }},
		{"ScalarBaseMult", 4, func() { sinkPoint = ScalarBaseMult(k) }},
		{"Sign", 72, func() { _, err = key.Sign(digest[:]) }},
		{"Recover", 41, func() { sinkPoint, err = Recover(digest[:], sig) }},
		{"Verify", 38, func() {
			if !Verify(key.Public, digest[:], sig.R, sig.S) {
				err = errors.New("signature did not verify")
			}
		}},
	} {
		n := testing.AllocsPerRun(20, c.run)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %.0f allocs per call", c.name, n)
		if n > c.ceiling {
			t.Errorf("%s allocates %.0f times per call, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
}

func TestGroupLaws(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		a := new(big.Int).Rand(r, N)
		b := new(big.Int).Rand(r, N)
		pa, pb := ScalarBaseMult(a), ScalarBaseMult(b)
		// (a+b)G == aG + bG
		sum := ScalarBaseMult(new(big.Int).Mod(new(big.Int).Add(a, b), N))
		got := Add(pa, pb)
		if (sum.IsInfinity()) != (got.IsInfinity()) {
			t.Fatal("infinity mismatch")
		}
		if !sum.IsInfinity() && (sum.X.Cmp(got.X) != 0 || sum.Y.Cmp(got.Y) != 0) {
			t.Fatalf("distributivity failed at i=%d", i)
		}
		// Commutativity
		ba := Add(pb, pa)
		if !got.IsInfinity() && (ba.X.Cmp(got.X) != 0 || ba.Y.Cmp(got.Y) != 0) {
			t.Fatal("addition not commutative")
		}
		// Identity
		idl := Add(pa, Infinity())
		if idl.X.Cmp(pa.X) != 0 {
			t.Fatal("identity law failed")
		}
	}
}

func TestSignVerifyRecover(t *testing.T) {
	key := PrivateKeyFromScalar(big.NewInt(0x1337))
	for i := 0; i < 10; i++ {
		digest := sha256.Sum256([]byte{byte(i), 0xaa})
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(key.Public, digest[:], sig.R, sig.S) {
			t.Fatal("verification failed")
		}
		// Deterministic: same digest ⇒ same signature.
		sig2, _ := key.Sign(digest[:])
		if sig.R.Cmp(sig2.R) != 0 || sig.S.Cmp(sig2.S) != 0 || sig.V != sig2.V {
			t.Fatal("signing is not deterministic")
		}
		// Recovery returns the signing key.
		rec, err := Recover(digest[:], sig)
		if err != nil {
			t.Fatal(err)
		}
		if rec.X.Cmp(key.Public.X) != 0 || rec.Y.Cmp(key.Public.Y) != 0 {
			t.Fatal("recovered wrong public key")
		}
		// Low-s normalization.
		if sig.S.Cmp(halfN) > 0 {
			t.Fatal("signature s not normalized")
		}
	}
}

// TestSignReducesDigestModN pins RFC 6979's bits2octets: the nonce is
// derived from the digest reduced mod N, so a digest d ≥ N signs exactly
// as d − N does — the two already share z mod N.
func TestSignReducesDigestModN(t *testing.T) {
	key := PrivateKeyFromScalar(big.NewInt(0x1337))
	one := big.NewInt(1)
	for _, d := range []*big.Int{N, new(big.Int).Add(N, one), new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)} {
		var hi, lo [32]byte
		d.FillBytes(hi[:])
		new(big.Int).Sub(d, N).FillBytes(lo[:])
		a, err := key.Sign(hi[:])
		if err != nil {
			t.Fatal(err)
		}
		b, err := key.Sign(lo[:])
		if err != nil {
			t.Fatal(err)
		}
		if a.R.Cmp(b.R) != 0 || a.S.Cmp(b.S) != 0 || a.V != b.V {
			t.Fatalf("d=%x: Sign(d) = (%x, %x, %d), Sign(d−N) = (%x, %x, %d)", d, a.R, a.S, a.V, b.R, b.S, b.V)
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key := PrivateKeyFromScalar(big.NewInt(42))
	digest := sha256.Sum256([]byte("pay rent"))
	sig, _ := key.Sign(digest[:])

	other := sha256.Sum256([]byte("pay rent twice"))
	if Verify(key.Public, other[:], sig.R, sig.S) {
		t.Fatal("signature verified against wrong digest")
	}
	wrongKey := PrivateKeyFromScalar(big.NewInt(43))
	if Verify(wrongKey.Public, digest[:], sig.R, sig.S) {
		t.Fatal("signature verified against wrong key")
	}
	badS := new(big.Int).Add(sig.S, big.NewInt(1))
	if Verify(key.Public, digest[:], sig.R, badS) {
		t.Fatal("tampered s accepted")
	}
	if _, err := Recover(other[:], sig); err == nil {
		rec, _ := Recover(other[:], sig)
		if rec.X.Cmp(key.Public.X) == 0 {
			t.Fatal("recovery returned original key for wrong digest")
		}
	}
}

func TestSignatureSerialization(t *testing.T) {
	key := PrivateKeyFromScalar(big.NewInt(7777))
	digest := sha256.Sum256([]byte("serialize me"))
	sig, _ := key.Sign(digest[:])
	raw := sig.Serialize()
	if len(raw) != 65 {
		t.Fatal("signature must be 65 bytes")
	}
	back, err := ParseSignature(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.R.Cmp(sig.R) != 0 || back.S.Cmp(sig.S) != 0 || back.V != sig.V {
		t.Fatal("round trip mismatch")
	}
	// High-s must be rejected on parse.
	high := &Signature{R: sig.R, S: new(big.Int).Sub(N, big.NewInt(1)), V: 0}
	if _, err := ParseSignature(high.Serialize()); err == nil {
		t.Fatal("malleable signature accepted")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	raw := SerializePublic(key.Public)
	if len(raw) != 65 || raw[0] != 0x04 {
		t.Fatal("bad uncompressed encoding")
	}
	if new(big.Int).SetBytes(raw[1:33]).Cmp(key.Public.X) != 0 || new(big.Int).SetBytes(raw[33:]).Cmp(key.Public.Y) != 0 {
		t.Fatal("encoding is not X || Y")
	}
}

func TestPrivateKeyRange(t *testing.T) {
	if _, err := PrivateKeyFromBytes(make([]byte, 32)); err == nil {
		t.Fatal("zero key accepted")
	}
	nBytes := make([]byte, 32)
	N.FillBytes(nBytes)
	if _, err := PrivateKeyFromBytes(nBytes); err == nil {
		t.Fatal("key == N accepted")
	}
	k, err := PrivateKeyFromBytes(bytes.Repeat([]byte{0x11}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.Bytes(), bytes.Repeat([]byte{0x11}, 32)) {
		t.Fatal("Bytes round trip")
	}
}

func TestRecoverDistinctKeys(t *testing.T) {
	// Two different keys signing the same digest recover to themselves.
	digest := sha256.Sum256([]byte("shared message"))
	for _, d := range []int64{2, 3, 99999, 123456789} {
		key := PrivateKeyFromScalar(big.NewInt(d))
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(digest[:], sig)
		if err != nil {
			t.Fatal(err)
		}
		if rec.X.Cmp(key.Public.X) != 0 {
			t.Fatalf("key %d: wrong recovery", d)
		}
	}
}

var sinkPoint Point

func BenchmarkScalarMult(b *testing.B) {
	p := pointFromSeed(bytes.Repeat([]byte{0x5a}, 32))
	k := new(big.Int).Rand(rand.New(rand.NewSource(24)), N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = ScalarMult(p, k)
	}
}

func BenchmarkScalarBaseMult(b *testing.B) {
	k := new(big.Int).Rand(rand.New(rand.NewSource(24)), N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = ScalarBaseMult(k)
	}
}

func BenchmarkSign(b *testing.B) {
	key := PrivateKeyFromScalar(big.NewInt(0xabcdef))
	digest := sha256.Sum256([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Sign(digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	key := PrivateKeyFromScalar(big.NewInt(0xabcdef))
	digest := sha256.Sum256([]byte("bench"))
	sig, _ := key.Sign(digest[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(key.Public, digest[:], sig.R, sig.S) {
			b.Fatal("signature did not verify")
		}
	}
}

var sinkFe fe

func BenchmarkFieldMul(b *testing.B) {
	x, y := feOf(Gx), feOf(Gy)
	for i := 0; i < b.N; i++ {
		sinkFe.mul(x, y)
	}
}

func BenchmarkFieldSqr(b *testing.B) {
	x := feOf(Gx)
	for i := 0; i < b.N; i++ {
		sinkFe.sqr(x)
	}
}

func BenchmarkFieldInv(b *testing.B) {
	x := feOf(Gx)
	for i := 0; i < b.N; i++ {
		sinkFe.inv(x)
	}
}

var sinkLimbs [4]uint64

func BenchmarkSplitScalar(b *testing.B) {
	k := limbsOf(new(big.Int).Rand(rand.New(rand.NewSource(24)), N))
	for i := 0; i < b.N; i++ {
		sinkLimbs, _, _, _ = splitScalar(&k)
	}
}

func BenchmarkRecover(b *testing.B) {
	key := PrivateKeyFromScalar(big.NewInt(0xabcdef))
	digest := sha256.Sum256([]byte("bench"))
	sig, _ := key.Sign(digest[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(digest[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRandomKeysSignVerifyRecover is the end-to-end property over fresh
// random keys: sign/verify/recover agree, and signatures never verify
// under a different key.
func TestRandomKeysSignVerifyRecover(t *testing.T) {
	var prev *PrivateKey
	for i := 0; i < 6; i++ {
		key, err := GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		digest := sha256.Sum256([]byte{byte(i), 0x55, byte(i * 7)})
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(key.Public, digest[:], sig.R, sig.S) {
			t.Fatal("self-verify failed")
		}
		rec, err := Recover(digest[:], sig)
		if err != nil || rec.X.Cmp(key.Public.X) != 0 || rec.Y.Cmp(key.Public.Y) != 0 {
			t.Fatal("recovery mismatch")
		}
		if prev != nil && Verify(prev.Public, digest[:], sig.R, sig.S) {
			t.Fatal("signature verified under unrelated key")
		}
		prev = key
	}
}

// recoverThreeMult is Recover in the form it was first written,
// Q = r⁻¹·(s·R − z·G) with three scalar multiplications, kept as the
// differential oracle for the joint-ladder form in the build. Its
// multiplications are the affine oracle's, so it shares no ladder with
// Recover either.
func recoverThreeMult(digest []byte, sig *Signature) (Point, error) {
	if len(digest) != 32 {
		return Point{}, errors.New("secp256k1: digest must be 32 bytes")
	}
	if err := sig.validate(); err != nil {
		return Point{}, err
	}
	x := new(big.Int).Set(sig.R)
	y, err := liftX(x, sig.V)
	if err != nil {
		return Point{}, err
	}
	z := hashToInt(digest)
	sR := scalarMultAffine(Point{X: x, Y: y}, sig.S)
	zG := scalarMultAffine(Point{X: Gx, Y: Gy}, new(big.Int).Neg(z))
	q := scalarMultAffine(Add(sR, zG), modInverse(sig.R, N))
	if q.IsInfinity() || !q.OnCurve() {
		return Point{}, errors.New("secp256k1: recovery produced invalid point")
	}
	return q, nil
}

// checkRecoverAgainstOracle demands the same point, or the same refusal,
// from Recover and the oracle for both recovery ids of sig.
func checkRecoverAgainstOracle(t *testing.T, key *PrivateKey, digest []byte, sig *Signature) {
	t.Helper()
	for _, v := range []byte{sig.V, sig.V ^ 1} {
		s := &Signature{R: sig.R, S: sig.S, V: v}
		got, gotErr := Recover(digest, s)
		want, wantErr := recoverThreeMult(digest, s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("d=%x digest=%x v=%d: Recover err %v, oracle err %v", key.D, digest, v, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.X.Cmp(want.X) != 0 || got.Y.Cmp(want.Y) != 0 {
			t.Fatalf("d=%x digest=%x v=%d: Recover disagrees with the three-multiplication oracle", key.D, digest, v)
		}
		if v == sig.V && (got.X.Cmp(key.Public.X) != 0 || got.Y.Cmp(key.Public.Y) != 0) {
			t.Fatalf("d=%x digest=%x: recovered a key other than the signer's", key.D, digest)
		}
	}
}

// TestRecoverMatchesThreeMultOracle is the differential test for the
// joint-ladder Recover: random key/digest pairs (seeded, so a
// failure reproduces) plus the fixed pairs the other suites sign —
// this file's and the evm ecrecover precompile test's.
func TestRecoverMatchesThreeMultOracle(t *testing.T) {
	pairs := 500
	if testing.Short() {
		pairs = 48
	}
	// Sharded so the ~20 ms a pair costs spreads over the host's cores.
	const shards = 4
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("random/%d", shard), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(14 + int64(shard)))
			for i := 0; i < pairs/shards; i++ {
				d := new(big.Int).Rand(rng, new(big.Int).Sub(N, big.NewInt(1)))
				key := PrivateKeyFromScalar(d.Add(d, big.NewInt(1))) // [1, N)
				digest := make([]byte, 32)
				rng.Read(digest)
				if i%25 == 0 {
					// Digests at and above the group order: z is reduced mod N.
					copy(digest, bytes.Repeat([]byte{0xff}, 31))
				}
				sig, err := key.Sign(digest)
				if err != nil {
					t.Fatal(err)
				}
				checkRecoverAgainstOracle(t, key, digest, sig)
			}
		})
	}

	// keccak256("signed message"), the digest TestEcrecoverPrecompile signs.
	precompileDigest, _ := hex.DecodeString("930965fd4d7b0be40ca32a08b65391608d31d7b14fe53e2079d4f660675f9c54")
	shared := sha256.Sum256([]byte("shared message"))
	bench := sha256.Sum256([]byte("bench"))
	fixed := []struct {
		d      int64
		digest []byte
	}{
		{0x5eed, precompileDigest},
		{0xabcdef, bench[:]},
		{2, shared[:]}, {3, shared[:]}, {99999, shared[:]}, {123456789, shared[:]},
	}
	for i := 0; i < 10; i++ {
		digest := sha256.Sum256([]byte{byte(i), 0xaa})
		fixed = append(fixed, struct {
			d      int64
			digest []byte
		}{0x1337, digest[:]})
	}
	for _, f := range fixed {
		key := PrivateKeyFromScalar(big.NewInt(f.d))
		sig, err := key.Sign(f.digest)
		if err != nil {
			t.Fatal(err)
		}
		checkRecoverAgainstOracle(t, key, f.digest, sig)
	}
}

// FuzzScalarMult compares the Jacobian ladder with the affine oracle on a
// fuzzer-chosen scalar and point, then signs the point seed with the
// scalar as the key and compares Recover with the three-multiplication
// oracle. Inputs are cut or zero-extended to 32 bytes.
func FuzzScalarMult(f *testing.F) {
	f.Fuzz(func(t *testing.T, scalar, pointSeed []byte) {
		var kb, seed [32]byte
		copy(kb[:], scalar)
		copy(seed[:], pointSeed)
		k := new(big.Int).SetBytes(kb[:])
		p := pointFromSeed(seed[:])
		if got, want := ScalarMult(p, k), scalarMultAffine(p, k); !samePoint(got, want) {
			t.Fatalf("k=%x p=(%x, %x): ScalarMult disagrees with the affine oracle", k, p.X, p.Y)
		}
		key, err := PrivateKeyFromBytes(kb[:])
		if err != nil {
			return // 0 or ≥ N: not a key
		}
		if !samePoint(key.Public, scalarMultAffine(Point{X: Gx, Y: Gy}, k)) {
			t.Fatalf("d=%x: public key disagrees with the affine oracle", k)
		}
		sig, err := key.Sign(seed[:])
		if err != nil {
			t.Fatal(err)
		}
		checkRecoverAgainstOracle(t, key, seed[:], sig)
	})
}

// FuzzRecover feeds Recover what the ecrecover precompile passes it: a
// digest and an [R‖S‖V] signature the caller chose, cut or zero-extended
// to 32 and 65 bytes. Recover must not panic, must agree with the
// three-multiplication oracle on refusal or point, and must return only
// points on the curve.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, digestIn, sigIn []byte) {
		var digest [32]byte
		var raw [65]byte
		copy(digest[:], digestIn)
		copy(raw[:], sigIn)
		sig := &Signature{R: new(big.Int).SetBytes(raw[:32]), S: new(big.Int).SetBytes(raw[32:64]), V: raw[64]}
		got, gotErr := Recover(digest[:], sig)
		want, wantErr := recoverThreeMult(digest[:], sig)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("digest=%x sig=%x: Recover err %v, oracle err %v", digest, raw, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !samePoint(got, want) {
			t.Fatalf("digest=%x sig=%x: Recover disagrees with the three-multiplication oracle", digest, raw)
		}
		if got.IsInfinity() || !got.OnCurve() {
			t.Fatalf("digest=%x sig=%x: recovered point off the curve", digest, raw)
		}
	})
}
