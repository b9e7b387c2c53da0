package contracts

import (
	"fmt"
	"sync"

	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
)

// StorageReader reads one storage word of a contract at the node's
// head. web3.Backend is one.
type StorageReader interface {
	StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error)
}

// DataStorageState reads a deployed DataStorage's carried data from its
// storage slots: the words its public getters (owner, aliasOf, hasKey,
// keyCount, keyAt, getValue) would return, without running them. Each
// method reads only the words its answer is made of. A state remembers
// the slot arithmetic it has done, never a word it has read: a read of
// many keys hashes each namespace's mapping slots once, not once per
// key, and no answer comes from an older head. One goroutine uses a
// state at a time.
type DataStorageState struct {
	Addr ethtypes.Address
	Node StorageReader

	bases map[nsMapping]ethtypes.Hash
}

// nsMapping names one namespace's entry in one of the address-keyed
// mappings.
type nsMapping struct {
	mapping int
	ns      ethtypes.Address
}

// The variables the reader reads, indexing dsSlots: the address-keyed
// mappings, then owner.
const (
	keyValuePairs = iota
	hasKey
	keyCount
	keyAt
	aliasOf
	owner
)

// dsSlots are the declaration slots of those variables, taken from
// DataStorage's compiled layout.
var dsSlots = sync.OnceValue(func() (decl [6]ethtypes.Hash) {
	layout := MustArtifact("DataStorage").Layout
	for i, name := range []string{"keyValuePairs", "hasKey", "keyCount", "keyAt", "aliasOf", "owner"} {
		v, ok := layout.Var(name)
		if !ok {
			panic(fmt.Sprintf("contracts: DataStorage layout has no %q", name))
		}
		decl[i] = minisol.StorageSlot(v.Slot)
	}
	return decl
})

func (d *DataStorageState) word(slot ethtypes.Hash) (ethtypes.Hash, error) {
	return d.Node.StorageAt(d.Addr, slot)
}

// base is the slot of mapping[ns], computed once per state.
func (d *DataStorageState) base(mapping int, ns ethtypes.Address) ethtypes.Hash {
	k := nsMapping{mapping, ns}
	if slot, ok := d.bases[k]; ok {
		return slot
	}
	if d.bases == nil {
		d.bases = map[nsMapping]ethtypes.Hash{}
	}
	slot := minisol.MappingSlot(dsSlots()[mapping], minisol.AddressKey(ns))
	d.bases[k] = slot
	return slot
}

// Owner is owner(): the account DataStorage lets write, its deployer.
func (d *DataStorageState) Owner() (ethtypes.Address, error) {
	w, err := d.word(dsSlots()[owner])
	return minisol.WordAddress(w), err
}

// AliasOf is aliasOf(ns): the namespace ns adopted, zero if none.
func (d *DataStorageState) AliasOf(ns ethtypes.Address) (ethtypes.Address, error) {
	w, err := d.word(d.base(aliasOf, ns))
	return minisol.WordAddress(w), err
}

// HasKey is hasKey(ns, key): whether ns itself ever set key.
func (d *DataStorageState) HasKey(ns ethtypes.Address, key string) (bool, error) {
	w, err := d.word(minisol.MappingSlot(d.base(hasKey, ns), []byte(key)))
	return !w.IsZero(), err
}

// Value is getValue(ns, key): ns's own value of key, "" if unset.
func (d *DataStorageState) Value(ns ethtypes.Address, key string) (string, error) {
	return minisol.LoadString(minisol.MappingSlot(d.base(keyValuePairs, ns), []byte(key)), d.word)
}

// KeyCount is keyCount(ns): how many keys ns has set.
func (d *DataStorageState) KeyCount(ns ethtypes.Address) (uint64, error) {
	w, err := d.word(d.base(keyCount, ns))
	if err != nil {
		return 0, err
	}
	n := uint256.SetBytes(w[:])
	if !n.IsUint64() {
		return 0, fmt.Errorf("contracts: keyCount(%s) = %s", ns, n)
	}
	return n.Uint64(), nil
}

// KeyAt is keyAt(ns, i): the i-th key ns set, in first-write order.
func (d *DataStorageState) KeyAt(ns ethtypes.Address, i uint64) (string, error) {
	return minisol.LoadString(minisol.MappingSlot(d.base(keyAt, ns), minisol.WordKey(i)), d.word)
}
