package state

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/uint256"
)

// State snapshot codec: a deterministic RLP capture of every live
// account (nonce, balance, code, storage) used by the chain's durable
// persistence layer to bound crash-recovery replay. The encoding is
// canonical — accounts sorted by address, slots sorted by key — so the
// same world state always produces identical bytes, which lets tests
// compare snapshots directly.
//
// Layout: [version, [[addr, nonce, balance, code, [[slot, value]...]]...]]

// snapshotVersion guards the on-disk layout; bump when the account
// encoding changes.
const snapshotVersion = 1

// EncodeSnapshot serialises the committed world state. It must be
// called on finalised state (no pending journal); the chain takes
// snapshots only at block boundaries where that holds.
func (s *StateDB) EncodeSnapshot() []byte {
	addrs := s.Accounts()
	accItems := make([]*rlp.Item, 0, len(addrs))
	for _, addr := range addrs {
		o := s.objects[addr]
		if o == nil {
			continue
		}
		storage, _ := merged(o)
		if o.empty() && len(storage) == 0 {
			continue
		}
		slots := make([]ethtypes.Hash, 0, len(storage))
		for slot := range storage {
			slots = append(slots, slot)
		}
		sort.Slice(slots, func(i, j int) bool {
			return bytes.Compare(slots[i][:], slots[j][:]) < 0
		})
		slotItems := make([]*rlp.Item, len(slots))
		for i, slot := range slots {
			val := storage[slot]
			slotItems[i] = rlp.List(rlp.Bytes(slot[:]), rlp.Bytes(val.Bytes()))
		}
		accItems = append(accItems, rlp.List(
			rlp.Bytes(addr[:]),
			rlp.Uint(o.nonce),
			rlp.BigInt(o.balance.ToBig()),
			rlp.Bytes(o.code),
			rlp.List(slotItems...),
		))
	}
	return rlp.Encode(rlp.List(
		rlp.Uint(snapshotVersion),
		rlp.List(accItems...),
	))
}

// DecodeSnapshot rebuilds a StateDB from an EncodeSnapshot payload. The
// returned state is finalised (empty journal) and ready to execute the
// next block; Root() recomputes from scratch, so callers can verify it
// against a stored header before trusting the snapshot.
func DecodeSnapshot(data []byte) (*StateDB, error) {
	it, err := rlp.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("state: snapshot: %w", err)
	}
	if it.Kind() != rlp.KindList || it.Len() != 2 {
		return nil, errors.New("state: snapshot must be a 2-item list")
	}
	ver, err := it.At(0).AsUint64()
	if err != nil {
		return nil, fmt.Errorf("state: snapshot version: %w", err)
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("state: unsupported snapshot version %d", ver)
	}
	accs := it.At(1)
	if accs.Kind() != rlp.KindList {
		return nil, errors.New("state: snapshot accounts must be a list")
	}
	st := New()
	for i := 0; i < accs.Len(); i++ {
		acc := accs.At(i)
		if acc.Kind() != rlp.KindList || acc.Len() != 5 {
			return nil, errors.New("state: snapshot account must be a 5-item list")
		}
		if acc.At(0).Kind() != rlp.KindString || acc.At(0).Len() != ethtypes.AddressLength {
			return nil, errors.New("state: snapshot account address must be 20 bytes")
		}
		addr := ethtypes.BytesToAddress(acc.At(0).Str())
		nonce, err := acc.At(1).AsUint64()
		if err != nil {
			return nil, fmt.Errorf("state: snapshot nonce: %w", err)
		}
		bal, err := acc.At(2).AsBigInt()
		if err != nil {
			return nil, fmt.Errorf("state: snapshot balance: %w", err)
		}
		if acc.At(3).Kind() != rlp.KindString {
			return nil, errors.New("state: snapshot code must be a string item")
		}
		code := acc.At(3).Str()
		slots := acc.At(4)
		if slots.Kind() != rlp.KindList {
			return nil, errors.New("state: snapshot storage must be a list")
		}
		if nonce != 0 {
			st.SetNonce(addr, nonce)
		}
		if bal.Sign() != 0 {
			st.AddBalance(addr, uint256.FromBig(bal))
		}
		if len(code) > 0 {
			st.SetCode(addr, code)
		}
		for j := 0; j < slots.Len(); j++ {
			kv := slots.At(j)
			if kv.Kind() != rlp.KindList || kv.Len() != 2 {
				return nil, errors.New("state: snapshot slot must be a 2-item list")
			}
			if kv.At(0).Kind() != rlp.KindString || kv.At(0).Len() != ethtypes.HashLength {
				return nil, errors.New("state: snapshot slot key must be 32 bytes")
			}
			slot := ethtypes.BytesToHash(kv.At(0).Str())
			valBig, err := kv.At(1).AsBigInt()
			if err != nil {
				return nil, fmt.Errorf("state: snapshot slot value: %w", err)
			}
			val := uint256.FromBig(valBig)
			if val.IsZero() {
				return nil, errors.New("state: snapshot stores a zero slot")
			}
			st.SetState(addr, slot, val)
		}
	}
	st.Finalise()
	return st, nil
}
