package abi

import (
	"fmt"
	"math/big"

	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/uint256"
)

// EncodeArgs encodes values according to args using the standard
// head/tail layout.
func EncodeArgs(args []Arg, values []interface{}) ([]byte, error) {
	if len(args) != len(values) {
		return nil, fmt.Errorf("abi: argument count mismatch: %d args, %d values", len(args), len(values))
	}
	types := make([]Type, len(args))
	for i, a := range args {
		types[i] = a.Type
	}
	return encodeTuple(types, values)
}

// encodeTuple lays out a sequence of typed values: static heads inline,
// dynamic values as offsets into a shared tail.
func encodeTuple(types []Type, values []interface{}) ([]byte, error) {
	headSize := 0
	for _, t := range types {
		headSize += t.HeadSize()
	}
	var head, tail []byte
	for i, t := range types {
		enc, err := encodeValue(t, values[i])
		if err != nil {
			return nil, fmt.Errorf("abi: argument %d (%s): %w", i, t, err)
		}
		if t.IsDynamic() {
			offset := uint256.NewUint64(uint64(headSize + len(tail))).Bytes32()
			head = append(head, offset[:]...)
			tail = append(tail, enc...)
		} else {
			head = append(head, enc...)
		}
	}
	return append(head, tail...), nil
}

// encodeValue encodes one value of type t (without head/tail framing for
// dynamic members — the caller places it).
func encodeValue(t Type, v interface{}) ([]byte, error) {
	switch t.Kind {
	case KindUint, KindInt:
		n, err := toUint256(v)
		if err != nil {
			return nil, err
		}
		b := n.Bytes32()
		return b[:], nil
	case KindAddress:
		a, err := toAddress(v)
		if err != nil {
			return nil, err
		}
		return hexutil.LeftPad(a[:], 32), nil
	case KindBool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %T", v)
		}
		out := make([]byte, 32)
		if b {
			out[31] = 1
		}
		return out, nil
	case KindFixedBytes:
		raw, err := toBytes(v)
		if err != nil {
			return nil, err
		}
		if len(raw) != t.Size {
			return nil, fmt.Errorf("want %d bytes, got %d", t.Size, len(raw))
		}
		return hexutil.RightPad(raw, 32), nil
	case KindBytes:
		raw, err := toBytes(v)
		if err != nil {
			return nil, err
		}
		return encodeLengthPrefixed(raw), nil
	case KindString:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", v)
		}
		return encodeLengthPrefixed([]byte(s)), nil
	case KindSlice:
		items, ok := v.([]interface{})
		if !ok {
			return nil, fmt.Errorf("want []interface{}, got %T", v)
		}
		lenWord := uint256.NewUint64(uint64(len(items))).Bytes32()
		types := make([]Type, len(items))
		for i := range types {
			types[i] = *t.Elem
		}
		body, err := encodeTuple(types, items)
		if err != nil {
			return nil, err
		}
		return append(lenWord[:], body...), nil
	case KindTuple:
		items, ok := v.([]interface{})
		if !ok {
			return nil, fmt.Errorf("want []interface{} for tuple, got %T", v)
		}
		if len(items) != len(t.Components) {
			return nil, fmt.Errorf("tuple arity mismatch: want %d, got %d", len(t.Components), len(items))
		}
		types := make([]Type, len(items))
		for i, c := range t.Components {
			types[i] = c.Type
		}
		return encodeTuple(types, items)
	default:
		return nil, fmt.Errorf("unsupported kind %d", t.Kind)
	}
}

func encodeLengthPrefixed(raw []byte) []byte {
	lenWord := uint256.NewUint64(uint64(len(raw))).Bytes32()
	out := append([]byte(nil), lenWord[:]...)
	out = append(out, raw...)
	if pad := len(raw) % 32; pad != 0 {
		out = append(out, make([]byte, 32-pad)...)
	}
	return out
}

// toUint256 normalizes the numeric representations callers may pass.
func toUint256(v interface{}) (uint256.Int, error) {
	switch n := v.(type) {
	case uint256.Int:
		return n, nil
	case *big.Int:
		return uint256.FromBig(n), nil
	case uint64:
		return uint256.NewUint64(n), nil
	case int:
		if n < 0 {
			return uint256.FromBig(big.NewInt(int64(n))), nil
		}
		return uint256.NewUint64(uint64(n)), nil
	case int64:
		return uint256.FromBig(big.NewInt(n)), nil
	default:
		return uint256.Zero, fmt.Errorf("want integer, got %T", v)
	}
}

func toAddress(v interface{}) (ethtypes.Address, error) {
	switch a := v.(type) {
	case ethtypes.Address:
		return a, nil
	case string:
		addr, err := ethtypes.ParseAddress(a)
		if err != nil {
			return addr, fmt.Errorf("bad address string %q", a)
		}
		return addr, nil
	default:
		return ethtypes.Address{}, fmt.Errorf("want address, got %T", v)
	}
}

func toBytes(v interface{}) ([]byte, error) {
	switch b := v.(type) {
	case []byte:
		return b, nil
	case [32]byte:
		return b[:], nil
	case ethtypes.Hash:
		return b[:], nil
	case string:
		if raw, err := hexutil.Decode(b); err == nil {
			return raw, nil
		}
		return []byte(b), nil
	default:
		return nil, fmt.Errorf("want bytes, got %T", v)
	}
}

// DecodeArgs decodes data into the values described by args.
func DecodeArgs(args []Arg, data []byte) ([]interface{}, error) {
	types := make([]Type, len(args))
	for i, a := range args {
		types[i] = a.Type
	}
	return decodeTuple(types, data)
}

func decodeTuple(types []Type, data []byte) ([]interface{}, error) {
	out := make([]interface{}, len(types))
	offset := 0
	for i, t := range types {
		if t.IsDynamic() {
			if offset+32 > len(data) {
				return nil, fmt.Errorf("abi: truncated head at arg %d", i)
			}
			tailOff := uint256.SetBytes(data[offset : offset+32])
			if !tailOff.IsUint64() || tailOff.Uint64() > uint64(len(data)) {
				return nil, fmt.Errorf("abi: offset out of range at arg %d", i)
			}
			v, err := decodeValue(t, data[tailOff.Uint64():])
			if err != nil {
				return nil, fmt.Errorf("abi: arg %d (%s): %w", i, t, err)
			}
			out[i] = v
			offset += 32
		} else {
			sz := t.HeadSize()
			if offset+sz > len(data) {
				return nil, fmt.Errorf("abi: truncated static arg %d", i)
			}
			v, err := decodeValue(t, data[offset:offset+sz])
			if err != nil {
				return nil, fmt.Errorf("abi: arg %d (%s): %w", i, t, err)
			}
			out[i] = v
			offset += sz
		}
	}
	return out, nil
}

// decodeValue decodes one value whose encoding begins at data[0].
func decodeValue(t Type, data []byte) (interface{}, error) {
	switch t.Kind {
	case KindUint, KindInt:
		if len(data) < 32 {
			return nil, fmt.Errorf("truncated word")
		}
		return uint256.SetBytes(data[:32]), nil
	case KindAddress:
		if len(data) < 32 {
			return nil, fmt.Errorf("truncated word")
		}
		return ethtypes.BytesToAddress(data[12:32]), nil
	case KindBool:
		if len(data) < 32 {
			return nil, fmt.Errorf("truncated word")
		}
		return data[31] != 0, nil
	case KindFixedBytes:
		if len(data) < 32 {
			return nil, fmt.Errorf("truncated word")
		}
		return append([]byte(nil), data[:t.Size]...), nil
	case KindBytes:
		raw, err := decodeLengthPrefixed(data)
		if err != nil {
			return nil, err
		}
		return raw, nil
	case KindString:
		raw, err := decodeLengthPrefixed(data)
		if err != nil {
			return nil, err
		}
		return string(raw), nil
	case KindSlice:
		if len(data) < 32 {
			return nil, fmt.Errorf("truncated slice length")
		}
		// Every element takes at least one 32-byte head word after the
		// length word.
		n := uint256.SetBytes(data[:32])
		if !n.IsUint64() || n.Uint64() > uint64(len(data)-32)/32 {
			return nil, fmt.Errorf("slice length out of range")
		}
		count := int(n.Uint64())
		types := make([]Type, count)
		for i := range types {
			types[i] = *t.Elem
		}
		return decodeTuple(types, data[32:])
	case KindTuple:
		types := make([]Type, len(t.Components))
		for i, c := range t.Components {
			types[i] = c.Type
		}
		return decodeTuple(types, data)
	default:
		return nil, fmt.Errorf("unsupported kind %d", t.Kind)
	}
}

func decodeLengthPrefixed(data []byte) ([]byte, error) {
	if len(data) < 32 {
		return nil, fmt.Errorf("truncated length")
	}
	// Compared against the bytes left, not as 32+n: that sum wraps for a
	// length near 2⁶⁴ and would pass.
	n := uint256.SetBytes(data[:32])
	if !n.IsUint64() || n.Uint64() > uint64(len(data)-32) {
		return nil, fmt.Errorf("length out of range")
	}
	return append([]byte(nil), data[32:32+n.Uint64()]...), nil
}
