package state

import (
	"fmt"
	"sync/atomic"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// Pre-images (disk mode). The store holds only its newest commit, and a
// frozen generation reads through it for whatever its index does not
// hold, so without more a commit made after the generation would show
// through it. Before each commit the live state links an undo record of
// what the commit overwrites to the record of the commit before: the
// header of every account written since that commit and the value of
// every slot, as the store held them, and the whole storage of an
// account the commit wipes. A generation that reads through the store
// walks the records linked after it was frozen and takes the first
// pre-image it meets — the value the store held when the generation was
// frozen; the head generation walks none. It reads the store before the
// walk, so a commit racing the read is either not seen or seen together
// with its record.

// undo is one commit's pre-images; immutable once linked. wiped names
// the accounts whose storage the commit replaces whole: their slots
// hold all they had, and a slot they lack was zero.
type undo struct {
	next     atomic.Pointer[undo]
	accounts map[ethtypes.Address]*stateObject // nil: the account did not exist
	slots    map[slotRef]uint256.Int
	wiped    map[ethtypes.Address]bool
}

type slotRef struct {
	addr ethtypes.Address
	slot ethtypes.Hash
}

// later returns the record linked after u (nil for a nil u).
func (u *undo) later() *undo {
	if u == nil {
		return nil
	}
	return u.next.Load()
}

// recording returns the record the live state fills until the next
// commit, nil when it keeps none (memory mode, overlays).
func (s *StateDB) recording() *undo {
	if s.undoTail == nil {
		return nil
	}
	if s.preImages == nil {
		s.preImages = &undo{accounts: map[ethtypes.Address]*stateObject{}, slots: map[slotRef]uint256.Int{}, wiped: map[ethtypes.Address]bool{}}
	}
	return s.preImages
}

// noteAccount records addr's header (o, nil when absent) before the
// first write to it since the last commit, when the store still holds
// it.
func (s *StateDB) noteAccount(addr ethtypes.Address, o *stateObject) {
	u := s.recording()
	if u == nil {
		return
	}
	if _, ok := u.accounts[addr]; ok {
		return
	}
	var pre *stateObject
	if o != nil {
		pre = &stateObject{
			nonce:       o.nonce,
			balance:     o.balance,
			code:        o.code,
			codeHash:    o.codeHash,
			storageRoot: s.storageRootOf(addr, o),
			partial:     true,
		}
	}
	u.accounts[addr] = pre
}

// noteSlot records slot's value before its first write since the last
// commit.
func (s *StateDB) noteSlot(addr ethtypes.Address, slot ethtypes.Hash, prev uint256.Int) {
	if u := s.recording(); u != nil {
		k := slotRef{addr, slot}
		if _, ok := u.slots[k]; !ok {
			u.slots[k] = prev
		}
	}
}

// linkPreImages is called as the pending batch leaves for the store:
// it adds the slots of the accounts whose storage the batch wipes, then
// links the record.
func (s *StateDB) linkPreImages(wiped []ethtypes.Address) {
	if s.undoTail == nil {
		return
	}
	for _, addr := range wiped {
		slots, err := s.disk.Slots(addr)
		if err != nil {
			panic(fmt.Errorf("state: disk slots of %s: %w", addr, err))
		}
		for slot, val := range slots {
			s.noteSlot(addr, slot, uint256.SetBytes(val))
		}
		s.recording().wiped[addr] = true
	}
	if s.preImages != nil {
		s.undoTail.next.Store(s.preImages)
		s.undoTail, s.preImages = s.preImages, nil
	}
}

// undoneAccount is the pre-image of addr a generation takes in place of
// the store's record, if a later commit overwrote it.
func (s *StateDB) undoneAccount(addr ethtypes.Address) (*stateObject, bool) {
	for u := s.undoAfter.later(); u != nil; u = u.later() {
		if pre, ok := u.accounts[addr]; ok {
			return pre, true
		}
	}
	return nil, false
}

// undoneSlot is undoneAccount for one slot.
func (s *StateDB) undoneSlot(addr ethtypes.Address, slot ethtypes.Hash) (uint256.Int, bool) {
	k := slotRef{addr, slot}
	for u := s.undoAfter.later(); u != nil; u = u.later() {
		if pre, ok := u.slots[k]; ok {
			return pre, true
		}
		if u.wiped[addr] {
			return uint256.Zero, true
		}
	}
	return uint256.Zero, false
}
