package state

import (
	"errors"
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/statestore"
	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

// Disk-backed state. A StateDB constructed with NewWithDisk keeps only
// the touched part of the world resident: the account trie is a lazy
// trie rooted at the committed world root (nodes fault in through the
// store's cache), accounts materialise on first access as *partial*
// objects carrying their flat record (nonce, balance, code hash,
// committed storage root) but not their storage, and storage slots are
// read through individually. Every Root() computation streams its
// fresh trie nodes and flat-record changes into a pending
// statestore.Batch that the chain commits per block, so the store and
// the in-memory state never diverge by more than one uncommitted
// batch.
//
// Partial-object invariants:
//
//   - o.storage holds the resident subset of the account's slots,
//     *including zero values*: a resident zero is a tombstone shadowing
//     whatever the disk may hold, which is what keeps deleted slots
//     deleted. (Fully in-memory objects never store zeros.)
//   - o.storageRoot is the account's committed storage root — the lazy
//     trie's anchor and the fallback when no fresher root is cached.
//   - SetState materialises the committed value before the first write
//     to a slot so journaling, origin tracking and diff extraction see
//     the true previous value.
//   - reads on a frozen generation never cache: they return transient
//     objects so published head views stay immutable and lock-free.
//     The store's LRU absorbs the re-reads.
//
// Known divergence (accepted, documented): an account with storage but
// no code, nonce or balance — impossible through the EVM, storage
// implies code — is swept from a fully in-memory state the moment its
// resident slots hit zero, while a disk-backed state keeps the account
// object resident until its *recomputed* storage root is empty. The
// world roots still agree; only Exist() on that synthetic account can
// differ between modes within a block.

// DiskStore is what the state layer needs from a disk-backed store.
// *statestore.Store implements it; the indirection keeps tests free to
// fake it.
type DiskStore interface {
	trie.Resolver
	Account(addr ethtypes.Address) (*statestore.AccountRecord, error)
	Slot(addr ethtypes.Address, slot ethtypes.Hash) ([]byte, error)
	Slots(addr ethtypes.Address) (map[ethtypes.Hash][]byte, error)
	Code(h ethtypes.Hash) ([]byte, error)
	ForEachAccount(fn func(addr ethtypes.Address, rec *statestore.AccountRecord) bool) error
}

// NewWithDisk returns a state anchored at the committed world root,
// reading through disk. A zero root yields an empty state (fresh
// store).
func NewWithDisk(disk DiskStore, root ethtypes.Hash) *StateDB {
	s := New()
	s.disk = disk
	s.undoTail = &undo{}
	if root == (ethtypes.Hash{}) {
		root = trie.EmptyRoot
	}
	s.accountTrie = trie.NewSecureFromRoot(root, disk)
	s.worldRoot = root
	s.rootValid = true
	return s
}

// diskStore returns the store this state (or its overlay base) reads
// through.
func (s *StateDB) diskStore() DiskStore {
	if s.disk != nil {
		return s.disk
	}
	if s.base != nil {
		return s.base.disk
	}
	return nil
}

// loadDiskObject materialises addr's flat record as a partial object,
// or nil when the account does not exist. Code stays unloaded (lazy).
// Disk read failures panic: the store verified itself at open, so a
// failure here is I/O-level corruption the node cannot reason past —
// the same contract as trie.mustResolve.
func loadDiskObject(d DiskStore, addr ethtypes.Address) *stateObject {
	rec, err := d.Account(addr)
	if err != nil {
		if errors.Is(err, statestore.ErrNotFound) {
			return nil
		}
		panic(fmt.Errorf("state: disk account %s: %w", addr, err))
	}
	o := newStateObject()
	o.nonce = rec.Nonce
	o.balance = uint256.SetBytes(rec.Balance)
	o.codeHash = rec.CodeHash
	o.storageRoot = rec.StorageRoot
	o.partial = true
	return o
}

// slotBelow reads a slot no object holds: through the base for an
// overlay, through the store for a disk-backed state, zero otherwise.
func (s *StateDB) slotBelow(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	if s.base != nil {
		return s.base.GetState(addr, slot)
	}
	if s.disk == nil {
		return uint256.Zero
	}
	val, err := s.disk.Slot(addr, slot)
	if err != nil && !errors.Is(err, statestore.ErrNotFound) {
		panic(fmt.Errorf("state: disk slot %s/%s: %w", addr, slot, err))
	}
	if pre, undone := s.undoneSlot(addr, slot); undone {
		return pre
	}
	return uint256.SetBytes(val)
}

// codeOf returns o's code, faulting it in from disk for partial
// objects. Memoisation is skipped on frozen states (lock-free readers
// may share o) — the store's LRU absorbs repeats.
func (s *StateDB) codeOf(o *stateObject) []byte {
	if o.code != nil || o.codeHash == EmptyCodeHash || !o.partial {
		return o.code
	}
	d := s.diskStore()
	if d == nil {
		return nil
	}
	code, err := d.Code(o.codeHash)
	if err != nil {
		panic(fmt.Errorf("state: disk code %s: %w", o.codeHash, err))
	}
	if !s.frozen {
		o.code = code
	}
	return code
}

// materialiseSlot makes a slot resident with its committed value
// before the first write, so journal undo and origin tracking restore
// the true previous value (not a spurious zero).
func (s *StateDB) materialiseSlot(o *stateObject, addr ethtypes.Address, slot ethtypes.Hash) {
	if !o.partial {
		return
	}
	if _, resident := o.storage[slot]; resident {
		return
	}
	o.storage[slot] = s.slotOf(o, addr, slot)
}

// newStorageTrie builds an empty storage trie for a full rebuild. In
// disk mode the store is attached as its resolver: the trie's nodes
// are persisted by the pending batch at the next Root, so EvictCold
// may later Unload it and inserts must be able to resolve collapsed
// subtrees back in.
func (s *StateDB) newStorageTrie() *trie.Secure {
	tr := trie.NewSecure()
	if d := s.diskStore(); d != nil {
		tr.SetResolver(d)
	}
	return tr
}

// hasNonZeroResident reports whether any resident slot is non-zero
// (tombstones don't count).
func (o *stateObject) hasNonZeroResident() bool {
	for _, v := range o.storage {
		if !v.IsZero() {
			return true
		}
	}
	return false
}

// deletable is the EIP-161 sweep criterion at Finalise time. For
// partial objects the committed storage must be provably empty — see
// the divergence note in the package comment.
func (o *stateObject) deletable() bool {
	if o.selfdestructed {
		return true
	}
	if !o.empty() {
		return false
	}
	if o.partial {
		return o.storageRoot == trie.EmptyRoot && !o.hasNonZeroResident()
	}
	return len(o.storage) == 0
}

// pendingBatch lazily creates the batch accumulating this state's
// uncommitted changes.
func (s *StateDB) pendingBatch() *statestore.Batch {
	if s.pending == nil {
		s.pending = &statestore.Batch{}
	}
	return s.pending
}

// stageClear stages a full storage wipe: earlier staged slot writes
// for addr are purged so the wipe (applied first at commit) cannot be
// shadowed by them, while writes staged after re-land on top.
func (s *StateDB) stageClear(addr ethtypes.Address) {
	p := s.pendingBatch()
	p.Clear(addr)
	delete(p.Slots, addr)
}

// TakePending hands off the accumulated batch (nil when clean). The
// chain layer commits it to the store together with the block's
// anchor; Root() must have been called so the batch covers the full
// block. It links the pre-images of what the batch overwrites first
// (undo.go).
func (s *StateDB) TakePending() *statestore.Batch {
	b := s.pending
	s.pending = nil
	var wiped []ethtypes.Address
	if b != nil {
		wiped = b.Clears
	}
	s.linkPreImages(wiped)
	return b
}

// EvictCold drops clean resident accounts (and their materialised
// storage tries) down to keepResident, then unloads the tries so
// everything evicted reads back through the store's cache. Only safe
// between transactions with the pending batch committed; accounts with
// uncommitted dirt are skipped. Returns the number of accounts evicted.
func (s *StateDB) EvictCold(keepResident int) int {
	if s.disk == nil || s.frozen || len(s.journal) > 0 {
		return 0
	}
	if s.pending != nil && !s.pending.Empty() {
		return 0
	}
	// Prune deleted-since-commit markers the store now agrees with
	// (the record is gone, so a read-through cannot resurrect it).
	for addr := range s.deleted {
		if _, err := s.disk.Account(addr); errors.Is(err, statestore.ErrNotFound) {
			delete(s.deleted, addr)
			s.drop(addr)
		}
	}
	if len(s.objects) <= keepResident {
		return 0
	}
	evicted := 0
	for addr := range s.objects {
		if len(s.objects) <= keepResident {
			break
		}
		if _, dirty := s.dirties[addr]; dirty {
			continue
		}
		delete(s.objects, addr)
		delete(s.storageTries, addr)
		delete(s.rootCache, addr)
		s.drop(addr)
		evicted++
	}
	if evicted > 0 {
		// The tries are fully hashed (every Root in disk mode hashes
		// through HashCollect with its sink before the batch commits), so
		// Unload is a pure release: resident nodes collapse to hash
		// references that re-resolve through the store.
		s.accountTrie.Unload()
		for _, tr := range s.storageTries {
			tr.Unload()
		}
	}
	return evicted
}

// drop tells the next Freeze that the store answers for addr again.
func (s *StateDB) drop(addr ethtypes.Address) {
	if s.dropped == nil {
		s.dropped = make(map[ethtypes.Address]struct{})
	}
	s.dropped[addr] = struct{}{}
}

// ResidentAccounts returns how many account objects are resident.
func (s *StateDB) ResidentAccounts() int { return len(s.objects) }
