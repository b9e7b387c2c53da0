package rlp

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Canonical examples from the Ethereum yellow-paper / wiki RLP spec.
func TestSpecVectors(t *testing.T) {
	cases := []struct {
		item *Item
		hex  string
	}{
		{String("dog"), "83646f67"},
		{List(String("cat"), String("dog")), "c88363617483646f67"},
		{String(""), "80"},
		{List(), "c0"},
		{Uint(0), "80"},
		{Bytes([]byte{0x00}), "00"},
		{Uint(15), "0f"},
		{Uint(1024), "820400"},
		// [ [], [[]], [ [], [[]] ] ] — the set-theoretic three.
		{List(List(), List(List()), List(List(), List(List()))), "c7c0c1c0c3c0c1c0"},
		{String("Lorem ipsum dolor sit amet, consectetur adipisicing elit"),
			"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974"},
	}
	for _, c := range cases {
		got := Encode(c.item)
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("Encode = %x, want %s", got, c.hex)
		}
		back, err := Decode(got)
		if err != nil {
			t.Errorf("Decode(%s): %v", c.hex, err)
			continue
		}
		if !Equal(back, c.item) {
			t.Errorf("round trip mismatch for %s", c.hex)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		it, err := Decode(Encode(Uint(v)))
		if err != nil {
			return false
		}
		got, err := it.AsUint64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigIntRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1", "255", "256", "1000000000000000000", "115792089237316195423570985008687907853269984665640564039457584007913129639935"} {
		v, _ := new(big.Int).SetString(s, 10)
		it, err := Decode(Encode(BigInt(v)))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		got, err := it.AsBigInt()
		if err != nil || got.Cmp(v) != 0 {
			t.Fatalf("BigInt round trip %s -> %v (%v)", s, got, err)
		}
	}
}

// randomItem builds a random tree with bounded depth/width.
func randomItem(r *rand.Rand, depth int) *Item {
	if depth == 0 || r.Intn(3) > 0 {
		n := r.Intn(80)
		b := make([]byte, n)
		r.Read(b)
		return Bytes(b)
	}
	n := r.Intn(6)
	kids := make([]*Item, n)
	for i := range kids {
		kids[i] = randomItem(r, depth-1)
	}
	return List(kids...)
}

// Property: Decode(Encode(x)) == x for random trees.
func TestRandomTreeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		it := randomItem(r, 4)
		enc := Encode(it)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		if !Equal(back, it) {
			t.Fatalf("round trip mismatch at iteration %d", i)
		}
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	bad := []string{
		"8100",                         // single byte 0x00 must encode as "00"
		"817f",                         // single byte 0x7f must encode as "7f"
		"b800",                         // long-form string with length 0
		"b837" + repeatHex("61", 0x37), // long form for a 55-byte string
		"f800",                         // long-form list with short length
		"8261",                         // truncated: says 2 bytes, has 1
		"",                             // empty input
		"c883646f67",                   // list header longer than payload
		"83646f6700",                   // trailing garbage
	}
	for _, h := range bad {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("bad test vector %q", h)
		}
		if _, err := Decode(raw); err == nil {
			t.Errorf("Decode(%s) accepted non-canonical/invalid input", h)
		}
	}
}

func repeatHex(unit string, n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.WriteString(unit)
	}
	return b.String()
}

func TestLongString(t *testing.T) {
	payload := bytes.Repeat([]byte{0x61}, 1024)
	enc := Encode(Bytes(payload))
	// header: 0xb9 (0xb7+2), 0x04, 0x00
	if enc[0] != 0xb9 || enc[1] != 0x04 || enc[2] != 0x00 {
		t.Fatalf("long string header = %x", enc[:3])
	}
	back, err := Decode(enc)
	if err != nil || !bytes.Equal(back.Str(), payload) {
		t.Fatal("long string round trip failed")
	}
}

func TestLongList(t *testing.T) {
	var kids []*Item
	for i := 0; i < 100; i++ {
		kids = append(kids, Uint(uint64(i)))
	}
	enc := Encode(List(kids...))
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 100 {
		t.Fatalf("list length = %d", back.Len())
	}
	v, err := back.At(99).AsUint64()
	if err != nil || v != 99 {
		t.Fatalf("At(99) = %d, %v", v, err)
	}
}

// TestDecodePrefixStreaming: decodeOne returns the first value and the
// bytes after it, which is how a list's payload is walked child by child.
func TestDecodePrefixStreaming(t *testing.T) {
	enc := append(Encode(String("one")), Encode(String("two"))...)
	first, rest, err := decodeOne(enc)
	if err != nil || string(first.Str()) != "one" {
		t.Fatal("first value")
	}
	second, rest, err := decodeOne(rest)
	if err != nil || string(second.Str()) != "two" || len(rest) != 0 {
		t.Fatal("second value")
	}
}

func TestAsUint64Errors(t *testing.T) {
	if _, err := Bytes([]byte{0, 1}).AsUint64(); err == nil {
		t.Error("leading zero accepted")
	}
	if _, err := Bytes(bytes.Repeat([]byte{0xff}, 9)).AsUint64(); err == nil {
		t.Error("9-byte uint accepted")
	}
	if _, err := List().AsUint64(); err == nil {
		t.Error("list accepted as uint")
	}
}

func BenchmarkEncodeTxShape(b *testing.B) {
	// Roughly a legacy transaction shape.
	item := List(Uint(7), BigInt(big.NewInt(1e9)), Uint(21000),
		Bytes(make([]byte, 20)), BigInt(big.NewInt(1e18)), Bytes(make([]byte, 68)),
		Uint(27), Bytes(make([]byte, 32)), Bytes(make([]byte, 32)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(item)
	}
}

func BenchmarkDecodeTxShape(b *testing.B) {
	item := List(Uint(7), BigInt(big.NewInt(1e9)), Uint(21000),
		Bytes(make([]byte, 20)), BigInt(big.NewInt(1e18)), Bytes(make([]byte, 68)),
		Uint(27), Bytes(make([]byte, 32)), Bytes(make([]byte, 32)))
	enc := Encode(item)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeRandomNeverPanics: arbitrary bytes must decode or error,
// never panic.
func TestDecodeRandomNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, r.Intn(300))
		r.Read(buf)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %x: %v", buf, p)
				}
			}()
			if it, err := Decode(buf); err == nil {
				// A successful decode must re-encode to the same bytes
				// (canonical form property).
				if enc := Encode(it); !bytes.Equal(enc, buf) {
					t.Fatalf("decode/encode not canonical: %x -> %x", buf, enc)
				}
			}
		}()
	}
}

// FuzzDecode: hostile bytes decode or fail, never panic, and a decode
// that succeeds re-encodes to exactly its input (only canonical
// encodings are accepted). The committed corpus (testdata/fuzz/FuzzDecode)
// holds the non-canonical forms: leading zeros in a length, a long form
// for a length ≤ 55, and single bytes under 0x80 in the 0x81 form.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(List(String("cat"), List(Uint(1024), Bytes(nil)), Bytes(bytes.Repeat([]byte{0x61}, 56)))))
	f.Add(Encode(List(List(), List(List()), List(List(), List(List())))))
	f.Fuzz(func(t *testing.T, raw []byte) {
		it, err := Decode(raw)
		if err != nil {
			return
		}
		if enc := Encode(it); !bytes.Equal(enc, raw) {
			t.Fatalf("decoded %x, which re-encodes to %x", raw, enc)
		}
	})
}
