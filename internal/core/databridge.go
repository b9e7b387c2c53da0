package core

import (
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// The data bridge realises the paper's data/logic separation (Fig. 3):
// contract state worth carrying across versions lives as key/value
// strings in the shared DataStorage contract, namespaced by contract
// address. A modification imports its predecessor's data in place: one
// adoptNamespace transaction makes the predecessor's namespace visible
// under the new address (the FlexiContracts model). MigrateData, which
// copies every pair to the new namespace (~96k gas per pair), is not on
// that path; the data-separation ablation calls it directly. Reads
// resolve the alias chain off chain: a version's own keys shadow
// adopted ones. Writes deploy the shared contract on first use; reads
// never do.

// SetValue writes one key/value pair under the contract's namespace.
func (m *Manager) SetValue(from, contractAddr ethtypes.Address, key, value string) (uint64, error) {
	ds, err := m.EnsureDataStorage(from)
	if err != nil {
		return 0, err
	}
	rcpt, err := ds.Transact(web3.TxOpts{From: from}, "setValue", contractAddr, key, value)
	if err != nil {
		return 0, fmt.Errorf("core: setValue(%s): %w", key, err)
	}
	return rcpt.GasUsed, nil
}

// aliasChain resolves the namespace-adoption chain starting at addr:
// addr first, then each adopted ancestor, bounded like the version walk
// so a (maliciously) cyclic alias chain terminates.
func aliasChain(ds *web3.BoundContract, from, addr ethtypes.Address) ([]ethtypes.Address, error) {
	chain := []ethtypes.Address{addr}
	seen := map[ethtypes.Address]bool{addr: true}
	cur := addr
	for len(chain) <= maxChainLength {
		next, err := ds.CallAddress(from, "aliasOf", cur)
		if err != nil {
			return nil, fmt.Errorf("core: resolving alias of %s: %w", cur, err)
		}
		if next.IsZero() || seen[next] {
			return chain, nil
		}
		chain = append(chain, next)
		seen[next] = true
		cur = next
	}
	return nil, fmt.Errorf("core: alias chain from %s exceeds %d", addr, maxChainLength)
}

// GetValue reads one key from the contract's namespace, falling back
// through adopted predecessor namespaces: the version's own value wins,
// an ancestor's value surfaces when the version never overrode the key.
// Before any DataStorage exists every key reads empty.
func (m *Manager) GetValue(from, contractAddr ethtypes.Address, key string) (string, error) {
	ds := m.boundDataStorage()
	if ds == nil {
		return "", nil
	}
	chain, err := aliasChain(ds, from, contractAddr)
	if err != nil {
		return "", err
	}
	for _, addr := range chain {
		has, err := ds.CallBool(from, "hasKey", addr, key)
		if err != nil {
			return "", err
		}
		if has {
			return ds.CallString(from, "getValue", addr, key)
		}
	}
	return "", nil
}

// LoadSnapshot reads the whole key/value namespace of a contract using
// the on-chain key enumeration, merged across adopted predecessor
// namespaces (deepest ancestor first, so the version's own keys win).
// Before any DataStorage exists the namespace is empty.
func (m *Manager) LoadSnapshot(from, contractAddr ethtypes.Address) (map[string]string, error) {
	out := map[string]string{}
	ds := m.boundDataStorage()
	if ds == nil {
		return out, nil
	}
	chain, err := aliasChain(ds, from, contractAddr)
	if err != nil {
		return nil, err
	}
	for i := len(chain) - 1; i >= 0; i-- {
		addr := chain[i]
		count, err := ds.CallUint(from, "keyCount", addr)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < count.Uint64(); j++ {
			key, err := ds.CallString(from, "keyAt", addr, j)
			if err != nil {
				return nil, err
			}
			val, err := ds.CallString(from, "getValue", addr, key)
			if err != nil {
				return nil, err
			}
			out[key] = val
		}
	}
	return out, nil
}

// AdoptNamespace performs the in-place data migration: one transaction
// makes oldAddr's whole namespace readable under newAddr, instead of
// re-importing N pairs at ~96k gas each. Returns the gas spent (constant
// in the pair count).
func (m *Manager) AdoptNamespace(from, newAddr, oldAddr ethtypes.Address) (uint64, error) {
	ds, err := m.EnsureDataStorage(from)
	if err != nil {
		return 0, err
	}
	rcpt, err := ds.Transact(web3.TxOpts{From: from}, "adoptNamespace", newAddr, oldAddr)
	if err != nil {
		return 0, fmt.Errorf("core: adoptNamespace(%s <- %s): %w", newAddr, oldAddr, err)
	}
	return rcpt.GasUsed, nil
}

// MigrateData copies every key/value pair from the old contract's
// namespace to the new one, returning the pair count and gas spent.
func (m *Manager) MigrateData(from, oldAddr, newAddr ethtypes.Address) (int, uint64, error) {
	snapshot, err := m.LoadSnapshot(from, oldAddr)
	if err != nil {
		return 0, 0, err
	}
	var gas uint64
	for key, val := range snapshot {
		g, err := m.SetValue(from, newAddr, key, val)
		if err != nil {
			return 0, gas, err
		}
		gas += g
	}
	return len(snapshot), gas, nil
}

// SnapshotContract reads the named public getters of a live contract
// version and writes their values into DataStorage under its address, so
// the data survives the version's retirement. Word values are rendered
// decimal, addresses as hex, strings verbatim.
func (m *Manager) SnapshotContract(from ethtypes.Address, bound *web3.BoundContract, keys []string) (uint64, error) {
	var gas uint64
	for _, key := range keys {
		method, ok := bound.ABI.Methods[key]
		if !ok {
			return gas, fmt.Errorf("core: contract has no getter %q", key)
		}
		if len(method.Inputs) != 0 {
			return gas, fmt.Errorf("core: getter %q takes arguments; snapshot only plain values", key)
		}
		out, err := bound.Call(from, key)
		if err != nil {
			return gas, fmt.Errorf("core: reading %q: %w", key, err)
		}
		if len(out) != 1 {
			return gas, fmt.Errorf("core: getter %q returned %d values", key, len(out))
		}
		rendered, err := renderValue(out[0])
		if err != nil {
			return gas, fmt.Errorf("core: %q: %w", key, err)
		}
		g, err := m.SetValue(from, bound.Address, key, rendered)
		if err != nil {
			return gas, err
		}
		gas += g
	}
	return gas, nil
}

func renderValue(v interface{}) (string, error) {
	switch x := v.(type) {
	case uint256.Int:
		return x.String(), nil
	case ethtypes.Address:
		return x.Hex(), nil
	case string:
		return x, nil
	case bool:
		if x {
			return "true", nil
		}
		return "false", nil
	default:
		return "", fmt.Errorf("unsupported snapshot value type %T", v)
	}
}
