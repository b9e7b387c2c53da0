package core

import (
	"fmt"
	"sort"

	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
)

// The data bridge realises the paper's data/logic separation (Fig. 3):
// contract state worth carrying across versions lives as key/value
// strings in the shared DataStorage contract, namespaced by contract
// address. A modification snapshots its predecessor's fields with one
// setValues transaction and imports the predecessor's data in place: one
// adoptNamespace transaction makes the predecessor's namespace visible
// under the new address (the FlexiContracts model). MigrateData, which
// copies every pair to the new namespace (~96k gas per pair), is not on
// that path; the data-separation ablation calls it directly. Carried
// data is read through the alias chain, resolved off chain newest
// first: a version's own keys shadow adopted ones. Per-version evidence
// (rejection reports, the history commitment) is read from the
// version's own namespace only and is never inherited. Writes deploy
// the shared contract on first use, from the writing landlord, and are
// sent from its owner whoever writes; reads never deploy it. Reads go to
// DataStorage's storage slots (contracts.DataStorageState), not through
// its getters: the words are the same, and no getter runs, so the from
// of a read (GetValue, LoadSnapshot, Rejections) names no sender.

// SetValue writes one key/value pair under the contract's namespace, in
// a transaction of its own. from deploys DataStorage if none exists yet;
// the write is sent from its owner.
func (m *Manager) SetValue(from, contractAddr ethtypes.Address, key, value string) (uint64, error) {
	ds, owner, err := m.dataWriter(from)
	if err != nil {
		return 0, err
	}
	rcpt, err := ds.Transact(owner, "setValue", contractAddr, key, value)
	if err != nil {
		return 0, fmt.Errorf("core: setValue(%s): %w", key, err)
	}
	return rcpt.GasUsed, nil
}

// eachNamespace visits addr's namespace and then each adopted
// ancestor's, newest first, resolving the next alias only while visit
// has not reported done. It is bounded like the version walk so a
// (maliciously) cyclic alias chain terminates.
func eachNamespace(ds *contracts.DataStorageState, addr ethtypes.Address, visit func(ethtypes.Address) (bool, error)) error {
	seen := map[ethtypes.Address]bool{}
	for cur := addr; ; {
		if len(seen) == maxChainLength {
			return fmt.Errorf("core: alias chain from %s exceeds %d", addr, maxChainLength)
		}
		seen[cur] = true
		if done, err := visit(cur); done || err != nil {
			return err
		}
		next, err := ds.AliasOf(cur)
		if err != nil {
			return fmt.Errorf("core: resolving alias of %s: %w", cur, err)
		}
		if next.IsZero() || seen[next] {
			return nil
		}
		cur = next
	}
}

// GetValue reads one key of the contract's carried data (Fig. 3),
// falling back through adopted predecessor namespaces: the version's
// own value wins, an ancestor's value surfaces when the version never
// overrode the key. An alias is followed only on a miss. Before any
// DataStorage exists every key reads empty.
func (m *Manager) GetValue(from, contractAddr ethtypes.Address, key string) (string, error) {
	ds := m.dataState()
	if ds == nil {
		return "", nil
	}
	var val string
	err := eachNamespace(ds, contractAddr, func(ns ethtypes.Address) (bool, error) {
		has, err := ds.HasKey(ns, key)
		if err != nil || !has {
			return false, err
		}
		val, err = ds.Value(ns, key)
		return true, err
	})
	return val, err
}

// ownValue reads one key from the contract's own namespace only, never
// through an adopted one: per-version evidence (rejection reports, the
// history commitment) is not inherited. An absent key reads "".
func (m *Manager) ownValue(contractAddr ethtypes.Address, key string) (string, error) {
	ds := m.dataState()
	if ds == nil {
		return "", nil
	}
	return ds.Value(contractAddr, key)
}

// LoadSnapshot reads the whole key/value namespace of a contract using
// the on-chain key enumeration, merged across adopted predecessor
// namespaces. It reads newest first: every key is enumerated, but a
// value is read only for a key no newer namespace already set, so the
// version's own keys win and each key's value is read once. Before any
// DataStorage exists the namespace is empty.
func (m *Manager) LoadSnapshot(from, contractAddr ethtypes.Address) (map[string]string, error) {
	out := map[string]string{}
	ds := m.dataState()
	if ds == nil {
		return out, nil
	}
	err := eachNamespace(ds, contractAddr, func(ns ethtypes.Address) (bool, error) {
		count, err := ds.KeyCount(ns)
		if err != nil {
			return false, err
		}
		for j := uint64(0); j < count; j++ {
			key, err := ds.KeyAt(ns, j)
			if err != nil {
				return false, err
			}
			if _, ok := out[key]; ok {
				continue
			}
			if out[key], err = ds.Value(ns, key); err != nil {
				return false, err
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AdoptNamespace performs the in-place data migration: one transaction
// makes oldAddr's whole namespace readable under newAddr, instead of
// re-importing N pairs at ~96k gas each. Returns the gas spent (constant
// in the pair count).
func (m *Manager) AdoptNamespace(from, newAddr, oldAddr ethtypes.Address) (uint64, error) {
	ds, owner, err := m.dataWriter(from)
	if err != nil {
		return 0, err
	}
	rcpt, err := ds.Transact(owner, "adoptNamespace", newAddr, oldAddr)
	if err != nil {
		return 0, fmt.Errorf("core: adoptNamespace(%s <- %s): %w", newAddr, oldAddr, err)
	}
	return rcpt.GasUsed, nil
}

// MigrateData copies every key/value pair from the old contract's
// namespace to the new one in key order, so the same data always yields
// the same transactions and state root; it returns the pair count and
// gas spent.
func (m *Manager) MigrateData(from, oldAddr, newAddr ethtypes.Address) (int, uint64, error) {
	snapshot, err := m.LoadSnapshot(from, oldAddr)
	if err != nil {
		return 0, 0, err
	}
	keys := make([]string, 0, len(snapshot))
	for key := range snapshot {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var gas uint64
	for _, key := range keys {
		g, err := m.SetValue(from, newAddr, key, snapshot[key])
		if err != nil {
			return 0, gas, err
		}
		gas += g
	}
	return len(snapshot), gas, nil
}

// SnapshotContract writes the named public fields of a live contract
// version into DataStorage under its address, so the data survives the
// version's retirement. Each field is read from storage as FieldUint,
// FieldAddress and FieldString read it, which is what its getter
// returns; words are rendered decimal, addresses as hex, strings
// verbatim. A key that is not a public uint/enum, address or string
// field of the version's published layout is ErrNoField. Every field
// is read before anything is written, and the pairs go out in one
// setValues transaction, in keys order: a snapshot lands whole or not
// at all.
func (m *Manager) SnapshotContract(from, addr ethtypes.Address, keys []string) (uint64, error) {
	names := make([]interface{}, len(keys))
	values := make([]interface{}, len(keys))
	for i, key := range keys {
		value, err := m.fieldText(addr, key)
		if err != nil {
			return 0, err
		}
		names[i], values[i] = key, value
	}
	ds, owner, err := m.dataWriter(from)
	if err != nil {
		return 0, err
	}
	rcpt, err := ds.Transact(owner, "setValues", addr, names, values)
	if err != nil {
		return 0, fmt.Errorf("core: setValues(%d pairs): %w", len(keys), err)
	}
	return rcpt.GasUsed, nil
}
