package state

import (
	"maps"

	"legalchain/internal/ethtypes"
	"legalchain/internal/trie"
)

// Copy returns an independent mutable copy of s (journal not carried
// over): account objects and their maps are cloned, the persistent
// tries are shared through trie snapshots, which path-copy on write.
// It is the oracle the tries' sharing and the frozen generations are
// tested against; nothing outside the tests copies a state.
func (s *StateDB) Copy() *StateDB {
	cp := &StateDB{
		objects:      make(map[ethtypes.Address]*stateObject, len(s.objects)),
		accountTrie:  s.accountTrie.Snapshot(),
		storageTries: make(map[ethtypes.Address]*trie.Secure, len(s.storageTries)),
		rootCache:    maps.Clone(s.rootCache),
		dirties:      cloneDirt(s.dirties),
		worldRoot:    s.worldRoot,
		rootValid:    s.rootValid,
		unpublished:  maps.Clone(s.unpublished),
		dropped:      maps.Clone(s.dropped),
		published:    s.published,
		disk:         s.disk,
		deleted:      maps.Clone(s.deleted),
	}
	for addr, o := range s.objects {
		c := *o
		c.storage, c.origin = maps.Clone(o.storage), maps.Clone(o.origin)
		cp.objects[addr] = &c
	}
	for addr, tr := range s.storageTries {
		cp.storageTries[addr] = tr.Snapshot()
	}
	return cp
}

func cloneDirt(m map[ethtypes.Address]*dirtyEntry) map[ethtypes.Address]*dirtyEntry {
	out := make(map[ethtypes.Address]*dirtyEntry, len(m))
	for addr, e := range m {
		out[addr] = &dirtyEntry{reset: e.reset, slots: maps.Clone(e.slots)}
	}
	return out
}
