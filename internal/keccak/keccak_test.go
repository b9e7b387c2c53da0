package keccak

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// The differential oracle: Keccak-f[1600] as the specification writes
// it, loops over a[x][y] with %5 index arithmetic and the ρ offsets in a
// table. It was the build's implementation until the unrolled form
// replaced it; it shares only the round constants with permute.

// rotation offsets for the rho step, indexed [x][y].
var rotc = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

func rotl(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }

// permuteLoop applies Keccak-f[1600] to a, indexed a[x][y].
func permuteLoop(a *[5][5]uint64) {
	var b [5][5]uint64
	var c, d [5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x][y] ^= d[x]
			}
		}
		// rho and pi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y][(2*x+3*y)%5] = rotl(a[x][y], rotc[x][y])
			}
		}
		// chi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x][y] = b[x][y] ^ (^b[(x+1)%5][y] & b[(x+2)%5][y])
			}
		}
		// iota
		a[0][0] ^= roundConstants[round]
	}
}

// sumLoop is a byte-at-a-time sponge over permuteLoop: every input byte
// is XORed into its lane on its own and the state is permuted whenever
// rate bytes have gone in. outSize must not exceed rate.
func sumLoop(data []byte, rate, outSize int) []byte {
	var a [5][5]uint64
	xorByte := func(pos int, b byte) {
		lane := pos / 8
		a[lane%5][lane/5] ^= uint64(b) << (8 * uint(pos%8))
	}
	pos := 0
	for _, b := range data {
		xorByte(pos, b)
		if pos++; pos == rate {
			permuteLoop(&a)
			pos = 0
		}
	}
	xorByte(pos, 0x01)
	xorByte(rate-1, 0x80)
	permuteLoop(&a)
	out := make([]byte, outSize)
	for i := range out {
		lane := i / 8
		out[i] = byte(a[lane%5][lane/5] >> (8 * uint(i%8)))
	}
	return out
}

// TestPermuteMatchesLoopForm runs the unrolled permutation and the loop
// form over 1000 seeded random states and compares all 25 lanes.
func TestPermuteMatchesLoopForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1600))
	for n := 0; n < 1000; n++ {
		var flat state
		var grid [5][5]uint64
		for i := range flat {
			flat[i] = rng.Uint64()
			grid[i%5][i/5] = flat[i]
		}
		permute(&flat)
		permuteLoop(&grid)
		for i := range flat {
			if flat[i] != grid[i%5][i/5] {
				t.Fatalf("state %d lane %d (x=%d y=%d): unrolled %016x, loop form %016x",
					n, i, i%5, i/5, flat[i], grid[i%5][i/5])
			}
		}
	}
}

// FuzzSum256 checks the sponge against the loop-form oracle on arbitrary
// input, one-shot and with the input written in three pieces cut at
// fuzzer-chosen offsets. Seeds (empty, 71–73, 135–137 and 272 bytes)
// are in testdata/fuzz/FuzzSum256.
func FuzzSum256(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		i, j := int(cut1), int(cut2)
		if i > len(data) {
			i = len(data)
		}
		if j < i {
			j = i
		}
		if j > len(data) {
			j = len(data)
		}
		want := sumLoop(data, rate, 32)
		if one := Sum256(data); !bytes.Equal(one[:], want) {
			t.Fatalf("%d bytes: one-shot %x, oracle %x", len(data), one, want)
		}
		h := New256()
		h.Write(data[:i])
		h.Write(data[i:j])
		h.Write(data[j:])
		if got := h.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes cut at %d,%d: incremental %x, oracle %x", len(data), i, j, got, want)
		}
	})
}

// Published Keccak-256 test vectors (legacy padding, as used by Ethereum).
var vectors256 = []struct {
	in  string
	out string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	// keccak256("hello world")
	{"hello world", "47173285a8d7341e5e972fc677286384f802f8ef42a5ec5f03bbfa254cb01fad"},
	// keccak256 of the canonical transfer event signature
	{"Transfer(address,address,uint256)", "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"},
	// Function selector source for ERC-20 transfer.
	{"transfer(address,uint256)", "a9059cbb2ab09eb219583f4a59a5d0623ade346d962bcd4e46b11da047c9049b"},
	{"The quick brown fox jumps over the lazy dog", "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
}

func TestSum256Vectors(t *testing.T) {
	for _, v := range vectors256 {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("Sum256(%q) = %x, want %s", v.in, got, v.out)
		}
	}
}

// TestIncrementalWrite checks that chunked writes agree with one-shot
// hashing for a range of chunk sizes straddling the sponge rate.
func TestIncrementalWrite(t *testing.T) {
	msg := bytes.Repeat([]byte("legalchain"), 100) // 1000 bytes, > 7 blocks
	want := Sum256(msg)
	for _, chunk := range []int{1, 3, 7, 31, 135, 136, 137, 271, 1000} {
		h := New256()
		for off := 0; off < len(msg); off += chunk {
			end := off + chunk
			if end > len(msg) {
				end = len(msg)
			}
			h.Write(msg[off:end])
		}
		if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Errorf("chunk=%d: got %x want %x", chunk, got, want)
		}
	}
}

// TestSumIdempotent checks Sum does not consume or alter the running state.
func TestSumIdempotent(t *testing.T) {
	h := New256()
	h.Write([]byte("part one "))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("Sum not idempotent: %x vs %x", first, second)
	}
	h.Write([]byte("part two"))
	want := Sum256([]byte("part one part two"))
	if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatalf("continuing after Sum diverged: got %x want %x", got, want)
	}
}

func TestReset(t *testing.T) {
	h := New256()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	want := Sum256([]byte("abc"))
	if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatalf("Reset did not clear state")
	}
}

func TestSizes(t *testing.T) {
	if New256().Size() != 32 {
		t.Fatal("wrong output size")
	}
	if New256().BlockSize() != 136 {
		t.Fatal("wrong block size")
	}
}

// Property: one-shot == incremental for arbitrary inputs and split points.
func TestQuickIncrementalAgreement(t *testing.T) {
	f := func(data []byte, split uint16) bool {
		s := int(split)
		if s > len(data) {
			s = len(data)
		}
		h := New256()
		h.Write(data[:s])
		h.Write(data[s:])
		want := Sum256(data)
		return bytes.Equal(h.Sum(nil), want[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct short inputs give distinct digests (collision
// resistance smoke test on a small corpus).
func TestNoTrivialCollisions(t *testing.T) {
	seen := map[[32]byte]string{}
	for _, s := range []string{"", "a", "b", "ab", "ba", "aa", "bb", "abc", "acb"} {
		d := Sum256([]byte(s))
		if prev, ok := seen[d]; ok {
			t.Fatalf("collision between %q and %q", prev, s)
		}
		seen[d] = s
	}
}

func TestLongInput(t *testing.T) {
	// Hash 1 MiB; mostly a crash/accounting test for the sponge loop.
	msg := []byte(strings.Repeat("0123456789abcdef", 65536))
	d1 := Sum256(msg)
	h := New256()
	h.Write(msg)
	if got := h.Sum(nil); !bytes.Equal(got, d1[:]) {
		t.Fatal("mismatch on 1MiB input")
	}
}

var sink [32]byte

func BenchmarkPermute(b *testing.B) {
	var a state
	for i := range a {
		a[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := 0; i < b.N; i++ {
		permute(&a)
	}
	sink[0] = byte(a[0])
}

// BenchmarkSum256_64 is one mapping-slot hash: keccak256(key ‖ slot).
func BenchmarkSum256_64(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		sink = Sum256(data)
	}
}

func BenchmarkSum256_1KiB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
