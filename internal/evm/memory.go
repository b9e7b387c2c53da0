package evm

import "legalchain/internal/uint256"

// Memory is the byte-addressed scratch memory of a call frame. It grows
// in 32-byte words; expansion cost is charged by the interpreter before
// the grow happens.
type Memory struct {
	data []byte
}

// Len returns the current size in bytes (always a multiple of 32).
func (m *Memory) Len() int { return len(m.data) }

// grow ensures memory covers [0, size) rounded up to a word boundary.
func (m *Memory) grow(size uint64) {
	if size == 0 {
		return
	}
	words := (size + 31) / 32
	need := int(words * 32)
	if need > len(m.data) {
		m.data = append(m.data, make([]byte, need-len(m.data))...)
	}
}

// Set writes value at [offset, offset+len(value)).
func (m *Memory) Set(offset uint64, value []byte) {
	if len(value) == 0 {
		return
	}
	m.grow(offset + uint64(len(value)))
	copy(m.data[offset:], value)
}

// SetWord writes a 32-byte big-endian word at offset.
func (m *Memory) SetWord(offset uint64, v uint256.Int) {
	w := v.Bytes32()
	m.Set(offset, w[:])
}

// SetByte writes one byte at offset.
func (m *Memory) SetByte(offset uint64, b byte) {
	m.grow(offset + 1)
	m.data[offset] = b
}

// GetWord reads the 32-byte word at offset (zero-extending).
func (m *Memory) GetWord(offset uint64) uint256.Int {
	m.grow(offset + 32)
	return uint256.SetBytes(m.data[offset : offset+32])
}

// GetCopy returns a copy of [offset, offset+size).
func (m *Memory) GetCopy(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	m.grow(offset + size)
	out := make([]byte, size)
	copy(out, m.data[offset:offset+size])
	return out
}

// View returns the live slice [offset, offset+size) after growing; the
// caller must not retain it across further writes.
func (m *Memory) View(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	m.grow(offset + size)
	return m.data[offset : offset+size]
}
