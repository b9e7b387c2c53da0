package uint256

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// randInt produces a structurally interesting random Int: sometimes
// small, sometimes dense, sometimes near the extremes.
func randInt(r *rand.Rand) Int {
	switch r.Intn(5) {
	case 0:
		return NewUint64(r.Uint64() % 1000)
	case 1:
		return Max.Sub(NewUint64(r.Uint64() % 1000))
	case 2:
		return Int{r.Uint64(), 0, 0, r.Uint64()}
	default:
		return Int{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
}

func mod256(b *big.Int) *big.Int { return new(big.Int).And(b, maxBig) }

// TestArithmeticAgainstBig cross-checks every arithmetic op against a
// math/big oracle on a randomized corpus.
func TestArithmeticAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		x, y := randInt(r), randInt(r)
		bx, by := x.ToBig(), y.ToBig()

		if got, want := x.Add(y).ToBig(), mod256(new(big.Int).Add(bx, by)); got.Cmp(want) != 0 {
			t.Fatalf("Add(%s,%s) = %s want %s", x, y, got, want)
		}
		if got, want := x.Sub(y).ToBig(), mod256(new(big.Int).Sub(bx, by)); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%s,%s) = %s want %s", x, y, got, want)
		}
		if got, want := x.Mul(y).ToBig(), mod256(new(big.Int).Mul(bx, by)); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%s,%s) = %s want %s", x, y, got, want)
		}
		if !y.IsZero() {
			if got, want := x.Div(y).ToBig(), new(big.Int).Div(bx, by); got.Cmp(want) != 0 {
				t.Fatalf("Div(%s,%s) = %s want %s", x, y, got, want)
			}
			if got, want := x.Mod(y).ToBig(), new(big.Int).Mod(bx, by); got.Cmp(want) != 0 {
				t.Fatalf("Mod(%s,%s) = %s want %s", x, y, got, want)
			}
		}
		if got, want := x.Lt(y), bx.Cmp(by) < 0; got != want {
			t.Fatalf("Lt(%s,%s) = %v", x, y, got)
		}
		if got, want := x.Cmp(y), bx.Cmp(by); got != want {
			t.Fatalf("Cmp(%s,%s) = %d want %d", x, y, got, want)
		}
	}
}

func TestShiftsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		n := uint(r.Intn(300))
		nI := NewUint64(uint64(n))
		wantShl := mod256(new(big.Int).Lsh(x.ToBig(), n))
		if got := x.Shl(nI).ToBig(); got.Cmp(wantShl) != 0 {
			t.Fatalf("Shl(%s, %d) = %s want %s", x, n, got, wantShl)
		}
		wantShr := new(big.Int).Rsh(x.ToBig(), n)
		if got := x.Shr(nI).ToBig(); got.Cmp(wantShr) != 0 {
			t.Fatalf("Shr(%s, %d) = %s want %s", x, n, got, wantShr)
		}
		// Sar oracle: signed shift then wrap.
		signed := x.toSigned()
		wantSar := mod256(new(big.Int).Rsh(signed, min(n, 256)))
		if signed.Sign() < 0 {
			// big.Rsh on negative numbers floors, which matches SAR.
			wantSar = mod256(new(big.Int).Rsh(signed, min(n, 256)))
		}
		if got := x.Sar(nI).ToBig(); got.Cmp(wantSar) != 0 {
			t.Fatalf("Sar(%s, %d) = %s want %s", x, n, got, wantSar)
		}
	}
}

func min(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

func TestSignedOpsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		x, y := randInt(r), randInt(r)
		if !y.IsZero() {
			sx, sy := x.toSigned(), y.toSigned()
			if got, want := x.SDiv(y).ToBig(), mod256(new(big.Int).Quo(sx, sy)); got.Cmp(want) != 0 {
				t.Fatalf("SDiv(%s,%s) = %s want %s", x, y, got, want)
			}
			if got, want := x.SMod(y).ToBig(), mod256(new(big.Int).Rem(sx, sy)); got.Cmp(want) != 0 {
				t.Fatalf("SMod(%s,%s)", x, y)
			}
			if got, want := x.Slt(y), sx.Cmp(sy) < 0; got != want {
				t.Fatalf("Slt(%s,%s) = %v", x, y, got)
			}
		}
		m := randInt(r)
		if !m.IsZero() {
			s := new(big.Int).Add(x.ToBig(), y.ToBig())
			if got, want := x.AddMod(y, m).ToBig(), s.Mod(s, m.ToBig()); got.Cmp(want) != 0 {
				t.Fatalf("AddMod")
			}
			p := new(big.Int).Mul(x.ToBig(), y.ToBig())
			if got, want := x.MulMod(y, m).ToBig(), p.Mod(p, m.ToBig()); got.Cmp(want) != 0 {
				t.Fatalf("MulMod")
			}
		}
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct{ in, k, want Int }{
		{NewUint64(0xff), NewUint64(0), Max},
		{NewUint64(0x7f), NewUint64(0), NewUint64(0x7f)},
		{NewUint64(0xff7f), NewUint64(0), NewUint64(0x7f)},
		{NewUint64(0x8000), NewUint64(1), Max.Sub(NewUint64(0x7fff))},
		{NewUint64(0x1234), NewUint64(31), NewUint64(0x1234)},
		{NewUint64(0x1234), NewUint64(200), NewUint64(0x1234)},
	}
	for _, c := range cases {
		if got := c.in.SignExtend(c.k); got != c.want {
			t.Errorf("SignExtend(%s, %s) = %s want %s", c.in.Hex(), c.k, got.Hex(), c.want.Hex())
		}
	}
}

func TestDivModByZero(t *testing.T) {
	x := NewUint64(1234)
	for _, got := range []Int{x.Div(Zero), x.Mod(Zero), x.SDiv(Zero), x.SMod(Zero), x.AddMod(x, Zero), x.MulMod(x, Zero)} {
		if !got.IsZero() {
			t.Fatal("EVM zero-divisor semantics violated")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(raw [32]byte) bool {
		x := SetBytes(raw[:])
		out := x.Bytes32()
		return bytes.Equal(out[:], raw[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Minimal encoding strips leading zeros.
	if got := NewUint64(0x1234).Bytes(); !bytes.Equal(got, []byte{0x12, 0x34}) {
		t.Fatalf("Bytes() = %x", got)
	}
	if len(Zero.Bytes()) != 0 {
		t.Fatal("Zero.Bytes() must be empty")
	}
}

func TestSetBytesLong(t *testing.T) {
	// >32 bytes keeps the rightmost 32.
	in := append(bytes.Repeat([]byte{0xaa}, 8), make([]byte, 31)...)
	in = append(in, 0x05)
	got := SetBytes(in)
	want := SetBytes(in[len(in)-32:])
	if got != want {
		t.Fatalf("SetBytes long: %s vs %s", got.Hex(), want.Hex())
	}
}

func TestByteOpcode(t *testing.T) {
	x := SetBytes([]byte{0xde, 0xad, 0xbe, 0xef})
	// Big-endian index from MSB of the 32-byte value: 0xde is at index 28.
	if got := x.Byte(NewUint64(28)); got.Uint64() != 0xde {
		t.Fatalf("Byte(28) = %s", got)
	}
	if got := x.Byte(NewUint64(31)); got.Uint64() != 0xef {
		t.Fatalf("Byte(31) = %s", got)
	}
	if got := x.Byte(NewUint64(32)); !got.IsZero() {
		t.Fatal("Byte(32) must be zero")
	}
}

// Ring laws as quick properties.
func TestQuickRingLaws(t *testing.T) {
	gen := func(vals [8]uint64) (Int, Int) {
		return Int{vals[0], vals[1], vals[2], vals[3]}, Int{vals[4], vals[5], vals[6], vals[7]}
	}
	comm := func(vals [8]uint64) bool {
		x, y := gen(vals)
		return x.Add(y) == y.Add(x) && x.Mul(y) == y.Mul(x)
	}
	inverse := func(vals [8]uint64) bool {
		x, y := gen(vals)
		return x.Add(y).Sub(y) == x
	}
	identity := func(vals [8]uint64) bool {
		x, _ := gen(vals)
		return x.Add(Zero) == x && x.Mul(One) == x && x.Mul(Zero) == Zero
	}
	notNot := func(vals [8]uint64) bool {
		x, _ := gen(vals)
		return x.Not().Not() == x && x.Xor(x) == Zero
	}
	for _, f := range []interface{}{comm, inverse, identity, notNot} {
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestOverflowFlags(t *testing.T) {
	if _, un := Zero.SubUnderflow(One); !un {
		t.Fatal("0-1 must underflow")
	}
	if _, un := One.SubUnderflow(One); un {
		t.Fatal("1-1 must not underflow")
	}
}

func TestExp(t *testing.T) {
	if got := NewUint64(2).Exp(NewUint64(10)); got.Uint64() != 1024 {
		t.Fatalf("2^10 = %s", got)
	}
	// 2^256 wraps to 0.
	if got := NewUint64(2).Exp(NewUint64(256)); !got.IsZero() {
		t.Fatalf("2^256 = %s", got)
	}
	if got := Zero.Exp(Zero); got != One {
		t.Fatalf("0^0 = %s, want 1 (EVM)", got)
	}
}

func TestBitLenSignString(t *testing.T) {
	if Zero.BitLen() != 0 || One.BitLen() != 1 || Max.BitLen() != 256 {
		t.Fatal("BitLen")
	}
	if NewUint64(255).String() != "255" {
		t.Fatal("String")
	}
	if NewUint64(255).Hex() != "0xff" {
		t.Fatal("Hex")
	}
}

func TestFromBigNegative(t *testing.T) {
	// -1 wraps to Max.
	if got := FromBig(big.NewInt(-1)); got != Max {
		t.Fatalf("FromBig(-1) = %s", got.Hex())
	}
	if got := FromBig(big.NewInt(-2)); got != Max.Sub(One) {
		t.Fatalf("FromBig(-2) = %s", got.Hex())
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := Max.Sub(NewUint64(12345)), NewUint64(98765)
	for i := 0; i < b.N; i++ {
		x = x.Add(y)
	}
	_ = x
}

func BenchmarkMul(b *testing.B) {
	x := Int{0xdeadbeef, 0xcafebabe, 0x12345678, 0x0}
	y := Int{0x1111, 0x2222, 0, 0}
	var z Int
	for i := 0; i < b.N; i++ {
		z = x.Mul(y)
	}
	_ = z
}

// FuzzWordIO checks the word-at-a-time byte I/O against math/big: the
// fuzzer's bytes fill a 40-byte buffer and every prefix length 0…40 of
// it (short, exact and over-long inputs) goes through SetBytes, Bytes32
// and Bytes beside big.Int's SetBytes, FillBytes and Bytes.
func FuzzWordIO(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [40]byte
		copy(buf[:], data)
		for n := 0; n <= len(buf); n++ {
			in := buf[:n]
			want := mod256(new(big.Int).SetBytes(in))
			got := SetBytes(in)
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("SetBytes(%x) = %s, want %s", in, got, want)
			}
			word := got.Bytes32()
			if !bytes.Equal(word[:], want.FillBytes(make([]byte, 32))) {
				t.Fatalf("Bytes32 of %s = %x", want, word)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("Bytes of %s = %x", want, got.Bytes())
			}
		}
	})
}

var (
	sinkInt  Int
	sinkWord [32]byte
)

func BenchmarkSetBytes32(b *testing.B) {
	word := Max.Sub(NewUint64(0xdeadbeef)).Bytes32()
	for i := 0; i < b.N; i++ {
		sinkInt = SetBytes(word[:])
	}
}

func BenchmarkBytes32(b *testing.B) {
	x := Max.Sub(NewUint64(0xdeadbeef))
	for i := 0; i < b.N; i++ {
		sinkWord = x.Bytes32()
	}
}
