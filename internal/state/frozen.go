package state

import (
	"maps"

	"legalchain/internal/ethtypes"
	"legalchain/internal/statestore"
	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

// Frozen generations. Freeze publishes the live state as an immutable
// generation that any number of goroutines may read without a lock (the
// chain's head views), and it costs what was written since the previous
// Freeze, not the world:
//
//   - A generation's accounts are an accountIndex: a persistent radix
//     map over the first twelve bits of the address whose 4 096 leaves
//     are small maps. Freeze path-copies the leaves (and their parent)
//     that hold an account written since the previous generation; every
//     other leaf is shared with it.
//   - An account's entry is an immutable version: its header, and the
//     storage slots written since its previous version. A slot the
//     version does not hold reads through the older version, down to a
//     complete bottom in memory mode or to the store in disk mode.
//   - The live object is itself a layer over its newest version: after
//     Freeze its storage holds only what is written since, and a slot it
//     does not hold reads through the version. So Freeze hands the live
//     map to the version and gives the object a fresh one: no map is
//     copied, and no map is shared between the live state and a
//     generation.
//   - Every StorageLayers-th version of an account merges its layers
//     into one map, so a slot read walks at most StorageLayers maps and
//     an account's storage is copied once per StorageLayers blocks that
//     write it; an account of at most smallStorage slots merges in every
//     version, so reading it walks nothing.
//
// In disk mode a version holds what the live object held, and
// everything else reads through the store, as the live state does,
// corrected by the pre-images of the commits made since (undo.go). An
// account the live state evicts, or a deletion the store has caught up
// with, leaves the index at the next Freeze (dropped), so the index
// stays as small as the resident set.

// StorageLayers bounds the versions a slot read walks. Reads cost up to
// StorageLayers small-map lookups; every StorageLayers-th version of an
// account copies its whole storage (BenchmarkHeadViewReadAtDepth reads
// at the deepest version).
const StorageLayers = 8

// Freeze returns the state as it is now as an immutable generation:
// every read answers what s answers at the call, however s changes
// afterwards, and every mutator panics. s stays mutable and shares no
// map with the generation. The journal must be empty (the sealing paths
// Finalise before freezing); the world root is computed here, so the
// generation's Root is a cached read. Overlays of the generation are
// how speculative execution (eth_call, the upgrade guard's forks) runs
// against it.
//
// Each Freeze builds on the previous generation of s and costs the
// accounts and slots written since (see above), not the accounts of the
// world.
func (s *StateDB) Freeze() *StateDB {
	s.mustMutable("Freeze")
	if len(s.journal) > 0 {
		panic("state: Freeze with pending journal (Finalise first)")
	}
	root := s.Root()
	w := indexWriter{t: &accountIndex{}}
	if s.published != nil {
		*w.t = *s.published
	}
	for addr := range s.unpublished {
		o := s.objects[addr]
		switch {
		case o != nil:
			v := s.version(addr, o)
			w.put(addr, v)
			o.storage, o.partial, o.older, o.storageRoot = make(map[ethtypes.Hash]uint256.Int), true, v, v.storageRoot
		case s.disk != nil:
			// A deletion the store may not have caught up with: held as
			// absent until EvictCold prunes the marker.
			w.put(addr, nil)
		default:
			w.del(addr)
		}
	}
	for addr := range s.dropped {
		w.del(addr)
	}
	// Fresh maps, not cleared ones: clearing or ranging over a map costs
	// its capacity, and the first Freeze of a state may have seen the
	// whole world.
	s.unpublished, s.dropped = make(map[ethtypes.Address]struct{}), nil
	s.published = w.t
	return &StateDB{frozen: true, accounts: w.t, disk: s.disk, undoAfter: s.undoTail, worldRoot: root, rootValid: true}
}

// publishLater hands the accounts Root has just synced to the next
// Freeze and leaves Root a fresh dirty set (see Freeze on why fresh).
func (s *StateDB) publishLater() {
	for addr := range s.dirties {
		s.unpublished[addr] = struct{}{}
	}
	s.dirties = make(map[ethtypes.Address]*dirtyEntry)
}

// version is the frozen version of live object o: its header, and its
// storage map, which holds what was written since its older version
// (all of its storage when it has none, in memory mode).
func (s *StateDB) version(addr ethtypes.Address, o *stateObject) *stateObject {
	v := &stateObject{
		nonce:       o.nonce,
		balance:     o.balance,
		code:        o.code,
		codeHash:    o.codeHash,
		storageRoot: s.storageRootOf(addr, o),
		storage:     o.storage,
		partial:     o.partial,
		older:       o.older,
	}
	switch below := o.older; {
	case below == nil:
	case len(o.storage) == 0:
		// Only the header changed: keep the older version's storage.
		v.storage, v.partial, v.older = below.storage, below.partial, below.older
	default:
		if layers, slots := layersOf(o); layers > StorageLayers || slots <= smallStorage {
			v.storage, v.partial = merged(o)
			v.older = nil
		}
	}
	return v
}

// smallStorage is the storage size up to which a version merges its
// layers every time: copying that many slots costs less than the reads
// that would walk the layers.
const smallStorage = 64

// layersOf counts the maps a slot read of o may walk and the slots they
// hold, an upper bound on the size of its storage.
func layersOf(o *stateObject) (layers, slots int) {
	for ; o != nil; o = o.older {
		layers++
		slots += len(o.storage)
	}
	return layers, slots
}

// merged is o's storage with the storage of every older version below
// it, newest first: the account's whole storage when the last version
// is complete (partial false; zeros dropped), else what it holds over
// the store (partial; zero tombstones kept).
func merged(o *stateObject) (map[ethtypes.Hash]uint256.Int, bool) {
	var layers []*stateObject
	for v := o; v != nil; v = v.older {
		layers = append(layers, v)
	}
	bottom := layers[len(layers)-1]
	m := make(map[ethtypes.Hash]uint256.Int, len(bottom.storage))
	for i := len(layers) - 1; i >= 0; i-- {
		maps.Copy(m, layers[i].storage)
	}
	if !bottom.partial {
		maps.DeleteFunc(m, func(_ ethtypes.Hash, v uint256.Int) bool { return v.IsZero() })
	}
	return m, bottom.partial
}

// storageRootOf is o's storage root: a frozen version carries it, a
// live account has it in rootCache once synced, and otherwise it is the
// committed root of a disk-backed object or the empty root.
func (s *StateDB) storageRootOf(addr ethtypes.Address, o *stateObject) ethtypes.Hash {
	if s.frozen {
		return o.storageRoot
	}
	if r, ok := s.rootCache[addr]; ok {
		return r
	}
	if o.partial {
		return o.storageRoot
	}
	return trie.EmptyRoot
}

// frozenObject is a generation's read of addr: its newest version, or
// in disk mode a transient object read from the store (never cached:
// generations are read by many goroutines; the store's LRU absorbs the
// repeats). nil when the account does not exist.
func (s *StateDB) frozenObject(addr ethtypes.Address) *stateObject {
	if o, held := s.accounts.get(addr); held {
		return o
	}
	if s.disk == nil {
		return nil
	}
	o := loadDiskObject(s.disk, addr)
	if pre, undone := s.undoneAccount(addr); undone {
		return pre
	}
	return o
}

// forEachFrozen is forEachAccount of a generation: its index, then in
// disk mode the store's records as the pre-images restore them.
func (s *StateDB) forEachFrozen(fn func(ethtypes.Address, uint256.Int)) {
	s.accounts.forEach(func(a ethtypes.Address, o *stateObject) {
		if o != nil {
			fn(a, o.balance)
		}
	})
	if s.disk == nil {
		return
	}
	// The store's records, as the pre-images restore them.
	stored := map[ethtypes.Address]uint256.Int{}
	s.disk.ForEachAccount(func(addr ethtypes.Address, rec *statestore.AccountRecord) bool {
		stored[addr] = uint256.SetBytes(rec.Balance)
		return true
	})
	restored := map[ethtypes.Address]bool{}
	for u := s.undoAfter.later(); u != nil; u = u.later() {
		for a, pre := range u.accounts {
			if restored[a] {
				continue // the first record after the freeze wins
			}
			restored[a] = true
			if pre == nil {
				delete(stored, a)
			} else {
				stored[a] = pre.balance
			}
		}
	}
	for a, b := range stored {
		if _, held := s.accounts.get(a); !held {
			fn(a, b)
		}
	}
}

// indexFan is the fan-out of each of accountIndex's two levels.
const indexFan = 64

// accountIndex is a persistent map from address to frozen account
// version: two radix levels over the address's first twelve bits, then
// a leaf map. Immutable once a generation holds it.
type accountIndex struct{ mids [indexFan]*indexMid }

type indexMid struct {
	leaves [indexFan]map[ethtypes.Address]*stateObject
}

func indexOf(a ethtypes.Address) (int, int) {
	return int(a[0] >> 2), int(a[0]&3)<<4 | int(a[1]>>4)
}

// get returns addr's version. A held nil version is a deletion (disk
// mode).
func (t *accountIndex) get(a ethtypes.Address) (*stateObject, bool) {
	if t == nil {
		return nil, false
	}
	i, j := indexOf(a)
	if m := t.mids[i]; m != nil {
		o, ok := m.leaves[j][a]
		return o, ok
	}
	return nil, false
}

func (t *accountIndex) forEach(fn func(ethtypes.Address, *stateObject)) {
	if t == nil {
		return
	}
	for _, m := range t.mids {
		if m == nil {
			continue
		}
		for _, leaf := range m.leaves {
			for a, o := range leaf {
				fn(a, o)
			}
		}
	}
}

// indexWriter builds the next accountIndex from a copy of the previous
// one's root: the first write under a mid or a leaf copies it, and
// later writes go to the copy.
type indexWriter struct {
	t          *accountIndex
	ownedMids  [indexFan]bool
	ownedLeafs [indexFan]uint64 // bit j of [i]: leaf j of mid i is a copy
}

func (w *indexWriter) leaf(a ethtypes.Address) map[ethtypes.Address]*stateObject {
	i, j := indexOf(a)
	if !w.ownedMids[i] {
		m := &indexMid{}
		if old := w.t.mids[i]; old != nil {
			*m = *old
		}
		w.t.mids[i], w.ownedMids[i] = m, true
	}
	m := w.t.mids[i]
	if w.ownedLeafs[i]&(1<<j) == 0 {
		leaf := make(map[ethtypes.Address]*stateObject, len(m.leaves[j])+1)
		maps.Copy(leaf, m.leaves[j])
		m.leaves[j] = leaf
		w.ownedLeafs[i] |= 1 << j
	}
	return m.leaves[j]
}

func (w *indexWriter) put(a ethtypes.Address, o *stateObject) { w.leaf(a)[a] = o }

func (w *indexWriter) del(a ethtypes.Address) {
	if _, held := w.t.get(a); held {
		delete(w.leaf(a), a)
	}
}
