// Package hexutil implements 0x-prefixed hexadecimal encoding used
// throughout the Ethereum wire formats (JSON-RPC quantities and
// unformatted data).
//
// Quantities ("0x41", "0x0") are encoded without leading zero digits;
// unformatted data ("0x0f00") is encoded as two hex digits per byte.
// These are the conventions of the Ethereum JSON-RPC specification.
package hexutil

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"strconv"
)

// Errors returned by the decoding functions.
var (
	ErrEmpty         = errors.New("hexutil: empty input")
	ErrMissingPrefix = errors.New("hexutil: missing 0x prefix")
	ErrOddLength     = errors.New("hexutil: odd length hex string")
	ErrLeadingZero   = errors.New("hexutil: quantity has leading zero digits")
	ErrSyntax        = errors.New("hexutil: invalid hex digit")
	ErrRange         = errors.New("hexutil: value out of range")
)

// Encode returns the 0x-prefixed hex encoding of b. Encode(nil) == "0x".
func Encode(b []byte) string {
	return "0x" + hex.EncodeToString(b)
}

// Decode parses a 0x-prefixed hex string into bytes.
func Decode(s string) ([]byte, error) {
	if s == "" {
		return nil, ErrEmpty
	}
	if !has0xPrefix(s) {
		return nil, ErrMissingPrefix
	}
	body := s[2:]
	if len(body)%2 != 0 {
		return nil, ErrOddLength
	}
	b, err := hex.DecodeString(body)
	if err != nil {
		return nil, ErrSyntax
	}
	return b, nil
}

// MustDecode is Decode but panics on malformed input. Use only for
// compile-time constants.
func MustDecode(s string) []byte {
	b, err := Decode(s)
	if err != nil {
		panic(fmt.Sprintf("hexutil: MustDecode(%q): %v", s, err))
	}
	return b
}

// EncodeUint64 encodes v as a hex quantity ("0x0" for zero).
func EncodeUint64(v uint64) string {
	return "0x" + strconv.FormatUint(v, 16)
}

// DecodeUint64 parses a hex quantity into a uint64.
func DecodeUint64(s string) (uint64, error) {
	raw, err := quantityBody(s)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(raw, 16, 64)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return 0, ErrRange
		}
		return 0, ErrSyntax
	}
	return v, nil
}

// EncodeBig encodes v as a hex quantity. Negative values are rejected by
// DecodeBig, but EncodeBig tolerates them with a sign for debugging.
func EncodeBig(v *big.Int) string {
	if v == nil {
		return "0x0"
	}
	if v.Sign() < 0 {
		return "-0x" + new(big.Int).Neg(v).Text(16)
	}
	return "0x" + v.Text(16)
}

// DecodeBig parses a hex quantity into a big integer.
func DecodeBig(s string) (*big.Int, error) {
	raw, err := quantityBody(s)
	if err != nil {
		return nil, err
	}
	v, ok := new(big.Int).SetString(raw, 16)
	if !ok {
		return nil, ErrSyntax
	}
	return v, nil
}

func quantityBody(s string) (string, error) {
	if s == "" {
		return "", ErrEmpty
	}
	if !has0xPrefix(s) {
		return "", ErrMissingPrefix
	}
	body := s[2:]
	if body == "" {
		return "", ErrEmpty
	}
	if len(body) > 1 && body[0] == '0' {
		return "", ErrLeadingZero
	}
	return body, nil
}

func has0xPrefix(s string) bool {
	return len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')
}

// LeftPad returns b left-padded with zeroes to length n. If b is longer
// than n the rightmost n bytes are returned (a copy in either case).
func LeftPad(b []byte, n int) []byte {
	out := make([]byte, n)
	if len(b) > n {
		b = b[len(b)-n:]
	}
	copy(out[n-len(b):], b)
	return out
}

// RightPad returns b right-padded with zeroes to length n.
func RightPad(b []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, b)
	return out
}
