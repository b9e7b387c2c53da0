package core

import (
	"errors"
	"fmt"
	"strings"

	"legalchain/internal/abi"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
)

// ErrNoField is a read of a field the version's published layout does
// not declare as a public variable of the type asked for: the case in
// which the variable's getter would not have answered. A version
// without a published layout (a raw ABI and bytecode upload) has no
// fields.
var ErrNoField = errors.New("core: version has no such public field")

// publicVar is the declaration of the public variable name in the
// published layout of version addr, when typeOK accepts its type and it
// fills one slot.
func (m *Manager) publicVar(addr ethtypes.Address, name string, typeOK func(string) bool) (minisol.LayoutVar, error) {
	layout, err := m.ResolveLayout(addr)
	if err != nil {
		return minisol.LayoutVar{}, err
	}
	if layout != nil {
		if v, ok := layout.Var(name); ok && v.Public && v.Slots == 1 && typeOK(v.Type) {
			return v, nil
		}
	}
	return minisol.LayoutVar{}, fmt.Errorf("%w: %s of %s", ErrNoField, name, addr)
}

func isWordType(t string) bool    { return strings.HasPrefix(t, "uint") || strings.HasPrefix(t, "enum ") }
func isAddressType(t string) bool { return t == "address" || t == "address payable" }
func isStringType(t string) bool  { return t == "string" }
func isArrayType(t string) bool   { return strings.HasSuffix(t, "[]") }

// fieldWord is the storage word of a one-word public variable.
func (m *Manager) fieldWord(addr ethtypes.Address, name string, typeOK func(string) bool) (ethtypes.Hash, error) {
	v, err := m.publicVar(addr, name, typeOK)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	return m.Client.Backend().StorageAt(addr, minisol.StorageSlot(v.Slot))
}

// FieldUint reads a public uint or enum variable of version addr: the
// word at its declaration slot, which is what its getter returns. No
// getter runs, so a contract whose getter answers other than its
// storage is read by its storage.
func (m *Manager) FieldUint(addr ethtypes.Address, name string) (uint256.Int, error) {
	w, err := m.fieldWord(addr, name, isWordType)
	return uint256.SetBytes(w[:]), err
}

// FieldAddress reads a public address variable of version addr, as
// FieldUint reads a word.
func (m *Manager) FieldAddress(addr ethtypes.Address, name string) (ethtypes.Address, error) {
	w, err := m.fieldWord(addr, name, isAddressType)
	return minisol.WordAddress(w), err
}

// FieldString reads a public string variable of version addr, in
// either of its storage forms (minisol.LoadString).
func (m *Manager) FieldString(addr ethtypes.Address, name string) (string, error) {
	v, err := m.publicVar(addr, name, isStringType)
	if err != nil {
		return "", err
	}
	node := m.Client.Backend()
	return minisol.LoadString(minisol.StorageSlot(v.Slot), func(slot ethtypes.Hash) (ethtypes.Hash, error) {
		return node.StorageAt(addr, slot)
	})
}

// fieldText reads a public uint/enum, address or string variable of
// version addr as text: a word decimal, an address as hex, a string
// verbatim.
func (m *Manager) fieldText(addr ethtypes.Address, name string) (string, error) {
	v, err := m.publicVar(addr, name, func(t string) bool { return isWordType(t) || isAddressType(t) || isStringType(t) })
	switch {
	case err != nil:
		return "", err
	case isStringType(v.Type):
		return m.FieldString(addr, name)
	case isAddressType(v.Type):
		a, err := m.FieldAddress(addr, name)
		return a.Hex(), err
	}
	w, err := m.FieldUint(addr, name)
	return w.String(), err
}

// payments reads the executed payments of one rental version from
// storage: monthCounter, the paidrents length word, then paidrents[i]
// for each i below monthCounter. An element is the words at
// minisol.ArraySlot(slot, i, n) onwards, where n is the count of the
// paidrents(uint256) getter's outputs (one word per struct field); the
// first two are the month and the amount. A version whose layout or
// ABI declares no such pair is ErrNoField. A monthCounter past the
// length word is an error, as the getter's bounds check reverted.
func (m *Manager) payments(addr ethtypes.Address) ([]PaymentRecord, error) {
	count, err := m.FieldUint(addr, "monthCounter")
	if err != nil {
		return nil, err
	}
	arr, err := m.publicVar(addr, "paidrents", isArrayType)
	if err != nil {
		return nil, err
	}
	parsed, err := m.ResolveABI(addr)
	if err != nil {
		return nil, err
	}
	outs := parsed.Methods["paidrents"].Outputs
	if len(outs) < 2 || outs[0].Type.Kind != abi.KindUint || outs[1].Type.Kind != abi.KindUint {
		return nil, fmt.Errorf("%w: paidrents(uint256) returning (month, amount) of %s", ErrNoField, addr)
	}
	node := m.Client.Backend()
	slot := minisol.StorageSlot(arr.Slot)
	w, err := node.StorageAt(addr, slot)
	if err != nil {
		return nil, err
	}
	if length := uint256.SetBytes(w[:]); count.Gt(length) {
		return nil, fmt.Errorf("core: %s: monthCounter %s is past the %s paidrents", addr, count, length)
	}
	var out []PaymentRecord
	for i := uint64(0); i < count.Uint64(); i++ {
		elem := minisol.ArraySlot(slot, i, uint64(len(outs)))
		month, err := node.StorageAt(addr, elem)
		if err != nil {
			return nil, err
		}
		next := uint256.SetBytes(elem[:]).Add(uint256.One)
		amount, err := node.StorageAt(addr, ethtypes.Hash(next.Bytes32()))
		if err != nil {
			return nil, err
		}
		out = append(out, PaymentRecord{
			Month:  uint256.SetBytes(month[:]).Uint64(),
			Amount: uint256.SetBytes(amount[:]),
		})
	}
	return out, nil
}
