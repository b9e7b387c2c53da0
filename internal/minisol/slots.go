package minisol

// Storage addressing in Go: the slot arithmetic and string encoding the
// generated code uses (emitMappingSlot, emitArraySlot, emitMapString,
// emitStoreString, emitLoadString), so that a reader holding only a
// contract's storage finds the words a compiled getter would have read.

import (
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// maxStoredStringWords bounds the data words LoadString reads. A stored
// string's length word can only come from emitStoreString, whose input
// fits in a transaction; a longer length means the storage was not
// written by compiled code, and reading it would not end.
const maxStoredStringWords = 1 << 16

// StorageSlot is the declaration slot n as a storage key.
func StorageSlot(n int) ethtypes.Hash {
	return ethtypes.Hash(uint256.NewUint64(uint64(n)).Bytes32())
}

// MappingSlot is the slot of m[key] for a mapping m at slot:
// keccak256(key ‖ slot). A value-type key is its 32-byte word (WordKey,
// AddressKey); a string key is its bytes, unpadded.
func MappingSlot(slot ethtypes.Hash, key []byte) ethtypes.Hash {
	var buf [96]byte // one contiguous input takes Keccak256's one-shot path
	return ethtypes.Keccak256(append(append(buf[:0], key...), slot[:]...))
}

// ArraySlot is the first slot of element i of a dynamic array declared
// at slot, whose elements occupy stride slots each:
// keccak256(slot) + i·stride, as emitArraySlot computes it. The array's
// length is the word at slot itself.
func ArraySlot(slot ethtypes.Hash, i, stride uint64) ethtypes.Hash {
	base := ethtypes.Keccak256(slot[:])
	off := uint256.NewUint64(i).Mul(uint256.NewUint64(stride))
	return ethtypes.Hash(uint256.SetBytes(base[:]).Add(off).Bytes32())
}

// WordKey is a uint mapping key as MappingSlot hashes it.
func WordKey(n uint64) []byte {
	w := uint256.NewUint64(n).Bytes32()
	return w[:]
}

// AddressKey is an address mapping key as MappingSlot hashes it: the
// address left-padded to a word.
func AddressKey(a ethtypes.Address) []byte {
	var w [32]byte
	copy(w[12:], a[:])
	return w[:]
}

// WordAddress is the address held in a storage word.
func WordAddress(w ethtypes.Hash) ethtypes.Address {
	return ethtypes.BytesToAddress(w[12:])
}

// LoadString decodes the string stored at slot, reading each word
// through read, as emitLoadString does. Short form (low bit clear): the
// bytes are left-aligned in the slot and its low byte is twice the
// length. Long form (low bit set): the slot holds twice the length plus
// one, and the bytes fill consecutive words from keccak256(slot).
func LoadString(slot ethtypes.Hash, read func(ethtypes.Hash) (ethtypes.Hash, error)) (string, error) {
	head, err := read(slot)
	if err != nil {
		return "", err
	}
	if head[31]&1 == 0 {
		n := int(head[31] >> 1)
		if n > 31 {
			return "", fmt.Errorf("minisol: string at %s: short form of %d bytes", slot, n)
		}
		return string(head[:n]), nil
	}
	length := uint256.SetBytes(head[:]).Shr(uint256.One)
	if !length.IsUint64() || length.Uint64() > maxStoredStringWords*32 {
		return "", fmt.Errorf("minisol: string at %s: long form of %s bytes", slot, length)
	}
	n := int(length.Uint64())
	out := make([]byte, 0, n+31)
	base := ethtypes.Keccak256(slot[:])
	data := uint256.SetBytes(base[:])
	for len(out) < n {
		w, err := read(ethtypes.Hash(data.Bytes32()))
		if err != nil {
			return "", err
		}
		out = append(out, w[:]...)
		data = data.Add(uint256.One)
	}
	return string(out[:n]), nil
}
