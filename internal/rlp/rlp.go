// Package rlp implements Recursive Length Prefix serialisation, the
// canonical encoding for Ethereum data structures (transactions, blocks,
// trie nodes).
//
// The package works on an explicit Item tree rather than reflection:
// an Item is either a byte string or a list of Items. Callers build the
// tree with Bytes/Uint/List and serialise with Encode; Decode parses a
// canonical encoding back into the tree and rejects non-canonical forms
// (leading zeros in lengths, single bytes encoded long-form), matching
// the consensus rules.
package rlp

import (
	"errors"
	"fmt"
	"math/big"
)

// Kind discriminates the two RLP item shapes.
type Kind int

const (
	// KindString is a byte-string item.
	KindString Kind = iota
	// KindList is a heterogeneous list item.
	KindList
)

// Item is a node of an RLP value tree.
type Item struct {
	kind Kind
	str  []byte
	list []*Item
}

// Bytes returns a string item holding b (not copied).
func Bytes(b []byte) *Item { return &Item{kind: KindString, str: b} }

// String returns a string item holding s.
func String(s string) *Item { return Bytes([]byte(s)) }

// Uint returns a string item holding the minimal big-endian encoding of v.
// Zero encodes as the empty string, per the Ethereum convention.
func Uint(v uint64) *Item {
	if v == 0 {
		return Bytes(nil)
	}
	var buf [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		buf[n] = byte(v >> (8 * i))
		if n > 0 || buf[n] != 0 {
			n++
		}
	}
	return Bytes(append([]byte(nil), buf[:n]...))
}

// BigInt returns a string item holding the minimal big-endian encoding
// of non-negative v.
func BigInt(v *big.Int) *Item {
	if v == nil || v.Sign() == 0 {
		return Bytes(nil)
	}
	return Bytes(v.Bytes())
}

// List returns a list item with the given children.
func List(items ...*Item) *Item { return &Item{kind: KindList, list: items} }

// Kind reports whether the item is a string or a list.
func (it *Item) Kind() Kind { return it.kind }

// Str returns the payload of a string item. It panics on lists; use Kind
// to discriminate first.
func (it *Item) Str() []byte {
	if it.kind != KindString {
		panic("rlp: Str called on list item")
	}
	return it.str
}

// Len returns the number of children of a list item, or the byte length
// of a string item.
func (it *Item) Len() int {
	if it.kind == KindList {
		return len(it.list)
	}
	return len(it.str)
}

// At returns the i-th child of a list item.
func (it *Item) At(i int) *Item {
	if it.kind != KindList {
		panic("rlp: At called on string item")
	}
	return it.list[i]
}

// AsUint64 interprets a string item as a big-endian unsigned integer.
func (it *Item) AsUint64() (uint64, error) {
	if it.kind != KindString {
		return 0, errors.New("rlp: expected string item for uint")
	}
	if len(it.str) > 8 {
		return 0, errors.New("rlp: uint overflows 64 bits")
	}
	if len(it.str) > 0 && it.str[0] == 0 {
		return 0, errors.New("rlp: non-canonical uint (leading zero)")
	}
	var v uint64
	for _, b := range it.str {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// AsBigInt interprets a string item as a big-endian unsigned integer.
func (it *Item) AsBigInt() (*big.Int, error) {
	if it.kind != KindString {
		return nil, errors.New("rlp: expected string item for big int")
	}
	if len(it.str) > 0 && it.str[0] == 0 {
		return nil, errors.New("rlp: non-canonical big int (leading zero)")
	}
	return new(big.Int).SetBytes(it.str), nil
}

// Encode serialises the item tree to its canonical RLP encoding.
func Encode(it *Item) []byte {
	return appendItem(nil, it)
}

func appendItem(dst []byte, it *Item) []byte {
	if it.kind == KindString {
		return appendString(dst, it.str)
	}
	var payload []byte
	for _, child := range it.list {
		payload = appendItem(payload, child)
	}
	dst = appendLength(dst, 0xc0, len(payload))
	return append(dst, payload...)
}

func appendString(dst, s []byte) []byte {
	if len(s) == 1 && s[0] <= 0x7f {
		return append(dst, s[0])
	}
	dst = appendLength(dst, 0x80, len(s))
	return append(dst, s...)
}

// appendLength writes the RLP header for a payload of length n with the
// given base offset (0x80 for strings, 0xc0 for lists).
func appendLength(dst []byte, base byte, n int) []byte {
	if n <= 55 {
		return append(dst, base+byte(n))
	}
	var lenBytes [8]byte
	i := 8
	for v := uint64(n); v > 0; v >>= 8 {
		i--
		lenBytes[i] = byte(v)
	}
	dst = append(dst, base+55+byte(8-i))
	return append(dst, lenBytes[i:]...)
}

// Decode parses a single canonical RLP value occupying all of data.
func Decode(data []byte) (*Item, error) {
	it, rest, err := decodeOne(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("rlp: %d trailing bytes after value", len(rest))
	}
	return it, nil
}

var errTruncated = errors.New("rlp: input truncated")

func decodeOne(data []byte) (*Item, []byte, error) {
	if len(data) == 0 {
		return nil, nil, errTruncated
	}
	b := data[0]
	switch {
	case b <= 0x7f:
		return Bytes(data[:1]), data[1:], nil

	case b <= 0xb7: // short string
		n := int(b - 0x80)
		if len(data) < 1+n {
			return nil, nil, errTruncated
		}
		s := data[1 : 1+n]
		if n == 1 && s[0] <= 0x7f {
			return nil, nil, errors.New("rlp: non-canonical single byte")
		}
		return Bytes(s), data[1+n:], nil

	case b <= 0xbf: // long string
		n, rest, err := decodeLongLength(data, b-0xb7)
		if err != nil {
			return nil, nil, err
		}
		if n <= 55 {
			return nil, nil, errors.New("rlp: non-canonical long string length")
		}
		if len(rest) < n {
			return nil, nil, errTruncated
		}
		return Bytes(rest[:n]), rest[n:], nil

	case b <= 0xf7: // short list
		n := int(b - 0xc0)
		if len(data) < 1+n {
			return nil, nil, errTruncated
		}
		return decodeListPayload(data[1:1+n], data[1+n:])

	default: // long list
		n, rest, err := decodeLongLength(data, b-0xf7)
		if err != nil {
			return nil, nil, err
		}
		if n <= 55 {
			return nil, nil, errors.New("rlp: non-canonical long list length")
		}
		if len(rest) < n {
			return nil, nil, errTruncated
		}
		return decodeListPayload(rest[:n], rest[n:])
	}
}

func decodeLongLength(data []byte, lenOfLen byte) (int, []byte, error) {
	ll := int(lenOfLen)
	if len(data) < 1+ll {
		return 0, nil, errTruncated
	}
	lb := data[1 : 1+ll]
	if lb[0] == 0 {
		return 0, nil, errors.New("rlp: length has leading zero")
	}
	if ll > 8 {
		return 0, nil, errors.New("rlp: length too large")
	}
	var n uint64
	for _, c := range lb {
		n = n<<8 | uint64(c)
	}
	if n > uint64(len(data)) { // cheap sanity bound before int conversion
		return 0, nil, errTruncated
	}
	return int(n), data[1+ll:], nil
}

func decodeListPayload(payload, rest []byte) (*Item, []byte, error) {
	var children []*Item
	for len(payload) > 0 {
		child, remain, err := decodeOne(payload)
		if err != nil {
			return nil, nil, err
		}
		children = append(children, child)
		payload = remain
	}
	return &Item{kind: KindList, list: children}, rest, nil
}

// Equal reports deep equality of two item trees.
func Equal(a, b *Item) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind == KindString {
		if len(a.str) != len(b.str) {
			return false
		}
		for i := range a.str {
			if a.str[i] != b.str[i] {
				return false
			}
		}
		return true
	}
	if len(a.list) != len(b.list) {
		return false
	}
	for i := range a.list {
		if !Equal(a.list[i], b.list[i]) {
			return false
		}
	}
	return true
}
