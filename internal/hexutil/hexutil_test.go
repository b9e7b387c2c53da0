package hexutil

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		dec, err := Decode(Encode(b))
		return err == nil && bytes.Equal(dec, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Encode(nil) != "0x" {
		t.Fatal("Encode(nil)")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]error{
		"":     ErrEmpty,
		"1234": ErrMissingPrefix,
		"0x1":  ErrOddLength,
		"0xzz": ErrSyntax,
	}
	for in, want := range cases {
		if _, err := Decode(in); !errors.Is(err, want) {
			t.Errorf("Decode(%q) = %v, want %v", in, err, want)
		}
	}
	// 0X prefix accepted.
	if b, err := Decode("0Xff"); err != nil || b[0] != 0xff {
		t.Error("uppercase prefix rejected")
	}
}

func TestMustDecodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustDecode("garbage")
}

func TestUint64Quantities(t *testing.T) {
	f := func(v uint64) bool {
		got, err := DecodeUint64(EncodeUint64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if EncodeUint64(0) != "0x0" {
		t.Fatal("zero quantity")
	}
	// Leading zeros rejected per the JSON-RPC spec.
	if _, err := DecodeUint64("0x01"); !errors.Is(err, ErrLeadingZero) {
		t.Fatal("leading zero accepted")
	}
	if _, err := DecodeUint64("0x"); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty quantity accepted")
	}
	if _, err := DecodeUint64("0x10000000000000000"); !errors.Is(err, ErrRange) {
		t.Fatal("overflow accepted")
	}
}

func TestBigQuantities(t *testing.T) {
	v, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	got, err := DecodeBig(EncodeBig(v))
	if err != nil || got.Cmp(v) != 0 {
		t.Fatalf("big round trip: %v %v", got, err)
	}
	if EncodeBig(nil) != "0x0" {
		t.Fatal("nil big")
	}
	if EncodeBig(big.NewInt(-255)) != "-0xff" {
		t.Fatal("negative big")
	}
}

func TestPadding(t *testing.T) {
	if got := LeftPad([]byte{1, 2}, 4); !bytes.Equal(got, []byte{0, 0, 1, 2}) {
		t.Fatalf("LeftPad = %v", got)
	}
	if got := LeftPad([]byte{1, 2, 3, 4, 5}, 4); !bytes.Equal(got, []byte{2, 3, 4, 5}) {
		t.Fatalf("LeftPad truncate = %v", got)
	}
	if got := RightPad([]byte{1, 2}, 4); !bytes.Equal(got, []byte{1, 2, 0, 0}) {
		t.Fatalf("RightPad = %v", got)
	}
	// Original not aliased.
	src := []byte{9}
	out := LeftPad(src, 2)
	out[1] = 7
	if src[0] != 9 {
		t.Fatal("LeftPad aliases input")
	}
}
