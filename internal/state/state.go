// Package state implements the journaled world state of the chain: the
// account model (nonce, balance, code, storage) with snapshot/revert
// semantics required by the EVM's nested call frames, plus Merkle root
// computation over the account and storage tries.
//
// Root computation is incremental: the StateDB keeps a persistent
// account trie and per-account storage tries that are *updated* from
// dirty-tracked accounts and slots on each Root() call, rather than
// rebuilt from scratch. Storage tries of distinct dirty accounts are
// independent, so their roots are recomputed in parallel on a bounded
// worker pool. RebuildRoot keeps the original from-scratch computation
// as a test oracle.
package state

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/statestore"
	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

// EmptyCodeHash is keccak256 of empty code — the code hash of every
// externally-owned account.
var EmptyCodeHash = ethtypes.Keccak256(nil)

// stateObject is the in-memory representation of one account, and, in
// a frozen generation, one immutable version of it (see frozen.go).
type stateObject struct {
	nonce    uint64
	balance  uint256.Int
	code     []byte
	codeHash ethtypes.Hash

	// storage holds the live storage values. origin holds the value each
	// slot had when the current transaction began, used for SSTORE gas
	// metering and refunds. Either may be nil on an overlay's object
	// until its first write.
	storage map[ethtypes.Hash]uint256.Int
	origin  map[ethtypes.Hash]uint256.Int

	// partial marks an object whose storage holds only a subset of the
	// account's slots (including zero-valued tombstones); the rest reads
	// below it: through the older version when there is one, else
	// through the store for a disk-backed object (disk.go) or through
	// the base for an overlay's object. storageRoot is the storage root
	// as of the older version (or of the last commit, anchoring a
	// disk-backed account's lazy trie).
	partial     bool
	storageRoot ethtypes.Hash

	selfdestructed bool

	// older is the version a slot this object does not hold reads
	// through: the previous version of a frozen account, the newest one
	// of a live account once frozen (frozen.go), the base's version of
	// an overlay's account.
	older *stateObject
}

func newStateObject() *stateObject {
	return &stateObject{
		codeHash: EmptyCodeHash,
		storage:  make(map[ethtypes.Hash]uint256.Int),
		origin:   make(map[ethtypes.Hash]uint256.Int),
	}
}

// empty reports whether the account is empty per EIP-161
// (nonce == 0, balance == 0, no code). Code presence is judged by the
// hash: partial objects may hold real code on disk without it being
// resident.
func (o *stateObject) empty() bool {
	return o.nonce == 0 && o.balance.IsZero() && o.codeHash == EmptyCodeHash
}

// dirtyEntry records what changed for one account since the tries were
// last synced. Presence of an entry means the account-trie leaf is stale;
// slots lists the storage slots whose trie values need refreshing; reset
// means the whole storage trie must be rebuilt (the account was deleted,
// so per-slot tracking is no longer sufficient).
type dirtyEntry struct {
	reset bool
	slots map[ethtypes.Hash]struct{}
}

// StateDB is the mutable world state with journaling.
type StateDB struct {
	objects map[ethtypes.Address]*stateObject
	journal []func()
	refund  uint64
	logs    []*ethtypes.Log

	// frozen marks a generation returned by Freeze: its accounts are the
	// immutable index, it is safe for lock-free concurrent reads, and
	// every mutator panics.
	frozen   bool
	accounts *accountIndex

	// Incremental commit pipeline: persistent tries, synced from the
	// dirty set on Root().
	accountTrie  *trie.Secure
	storageTries map[ethtypes.Address]*trie.Secure
	// rootCache holds each account's storage root as of its last sync.
	rootCache map[ethtypes.Address]ethtypes.Hash
	dirties   map[ethtypes.Address]*dirtyEntry
	worldRoot ethtypes.Hash
	rootValid bool

	// What the next Freeze publishes: unpublished gathers the dirty set
	// of every Root since the last Freeze, dropped the accounts the disk
	// answers for again (EvictCold), and published is the account index
	// of the last generation, which the next one path-copies.
	unpublished map[ethtypes.Address]struct{}
	dropped     map[ethtypes.Address]struct{}
	published   *accountIndex

	// Disk mode's pre-images (undo.go): undoTail is the record linked by
	// the last commit, preImages the one filled until the next; a frozen
	// generation walks the records linked after undoAfter.
	undoTail  *undo
	preImages *undo
	undoAfter *undo

	// disk, when non-nil, makes this state disk-backed: accounts and
	// slots absent from objects read through the store, and Root()
	// streams changes into pending for the chain to commit. See disk.go.
	disk    DiskStore
	pending *statestore.Batch

	// deleted marks accounts removed since the last store commit, so a
	// read cannot resurrect them from not-yet-updated disk records.
	// Markers are cleared on explicit recreation and pruned (against
	// the store) during EvictCold; a stale marker for a truly absent
	// account is harmless. Only populated in disk mode.
	deleted map[ethtypes.Address]struct{}

	// base, when non-nil, makes this state an Overlay: getObject
	// materialises private copies of base accounts on first touch
	// instead of requiring an up-front whole-world copy. See Overlay.
	base *StateDB

	// On an overlay from CreditedOverlay: credit is added to creditTo's
	// balance when getObject first materialises creditTo, and
	// creditPending clears once it has been. pooled marks the overlay as
	// one Release may return to the pool.
	creditTo      ethtypes.Address
	credit        uint256.Int
	creditPending bool
	pooled        bool
}

// New returns an empty world state.
func New() *StateDB {
	return &StateDB{
		objects:      make(map[ethtypes.Address]*stateObject),
		accountTrie:  trie.NewSecure(),
		storageTries: make(map[ethtypes.Address]*trie.Secure),
		rootCache:    make(map[ethtypes.Address]ethtypes.Hash),
		dirties:      make(map[ethtypes.Address]*dirtyEntry),
		unpublished:  make(map[ethtypes.Address]struct{}),
	}
}

// mustMutable guards every mutator against writes to a frozen state.
func (s *StateDB) mustMutable(op string) {
	if s.frozen {
		panic("state: " + op + " on frozen state")
	}
}

func (s *StateDB) getObject(addr ethtypes.Address) *stateObject {
	if s.frozen {
		return s.frozenObject(addr)
	}
	if o := s.objects[addr]; o != nil {
		return o
	}
	if s.base != nil {
		o := s.fromBase(addr)
		if s.creditPending && addr == s.creditTo {
			// The credit lands on the account exactly as an AddBalance
			// made before the message would have left it, but with no
			// journal entry (nothing reverts below the message) and no
			// dirty mark (an overlay has no root).
			s.creditPending = false
			if o == nil {
				o = newStateObject()
			}
			o.balance = o.balance.Add(s.credit)
		}
		if o != nil {
			s.objects[addr] = o
		}
		return o
	}
	if s.disk != nil && !s.isDeleted(addr) {
		o := loadDiskObject(s.disk, addr)
		if o != nil {
			s.objects[addr] = o
		}
		return o
	}
	return nil
}

// fromBase is an overlay's copy-on-read: a private copy of the base
// account's header, or nil when the base has none. Its storage starts
// empty and partial, so a slot it has not written reads through the
// base's version of the account or the base itself (slotBelow). Nothing
// the base writes is shared, so every caller that mutates the returned
// object (SelfDestruct, SetState after a getObject hit) stays isolated
// from it. No journal entry: the copy is indistinguishable from having
// copied up front.
func (s *StateDB) fromBase(addr ethtypes.Address) *stateObject {
	if s.isDeleted(addr) {
		return nil
	}
	var bo *stateObject
	switch b := s.base; {
	case b.frozen:
		bo = b.frozenObject(addr)
	case b.objects[addr] != nil:
		bo = b.objects[addr]
	case b.disk != nil && !b.isDeleted(addr):
		bo = loadDiskObject(b.disk, addr)
	}
	if bo == nil {
		return nil
	}
	o := &stateObject{
		nonce:       bo.nonce,
		balance:     bo.balance,
		code:        bo.code,
		codeHash:    bo.codeHash,
		partial:     true,
		storageRoot: s.base.storageRootOf(addr, bo),
	}
	if s.base.frozen {
		// An immutable version: read its slots straight through it.
		o.older = bo
	}
	return o
}

func (s *StateDB) isDeleted(addr ethtypes.Address) bool {
	_, ok := s.deleted[addr]
	return ok
}

func (s *StateDB) markDeleted(addr ethtypes.Address) {
	if s.deleted == nil {
		s.deleted = make(map[ethtypes.Address]struct{})
	}
	s.deleted[addr] = struct{}{}
}

func (s *StateDB) getOrNewObject(addr ethtypes.Address) *stateObject {
	o := s.getObject(addr)
	s.noteAccount(addr, o)
	if o != nil {
		return o
	}
	o = newStateObject()
	s.objects[addr] = o
	// Recreation clears the deleted-since-commit marker; the journal
	// restores it so a reverted recreation cannot resurrect the old
	// disk record through a later read.
	wasDeleted := s.isDeleted(addr)
	if wasDeleted {
		delete(s.deleted, addr)
	}
	s.journal = append(s.journal, func() {
		delete(s.objects, addr)
		if wasDeleted {
			s.markDeleted(addr)
		}
		// The account (and any storage it accumulated) must fall out of
		// the tries on the next sync.
		s.markReset(addr)
	})
	return o
}

// touch marks the account's trie leaf stale.
func (s *StateDB) touch(addr ethtypes.Address) {
	s.markAccount(addr)
}

func (s *StateDB) markAccount(addr ethtypes.Address) *dirtyEntry {
	e := s.dirties[addr]
	if e == nil {
		e = &dirtyEntry{}
		s.dirties[addr] = e
	}
	s.rootValid = false
	return e
}

func (s *StateDB) markSlot(addr ethtypes.Address, slot ethtypes.Hash) {
	e := s.markAccount(addr)
	if e.reset {
		return // the whole storage trie is pending a rebuild anyway
	}
	if e.slots == nil {
		e.slots = make(map[ethtypes.Hash]struct{})
	}
	e.slots[slot] = struct{}{}
}

func (s *StateDB) markReset(addr ethtypes.Address) {
	e := s.markAccount(addr)
	e.reset = true
	e.slots = nil
}

// Exist reports whether the account exists in state.
func (s *StateDB) Exist(addr ethtypes.Address) bool {
	return s.getObject(addr) != nil
}

// CreateAccount explicitly creates an account (used for contract
// deployment targets).
func (s *StateDB) CreateAccount(addr ethtypes.Address) {
	s.mustMutable("CreateAccount")
	s.getOrNewObject(addr)
	s.touch(addr)
}

// GetBalance returns the account balance (zero for absent accounts).
func (s *StateDB) GetBalance(addr ethtypes.Address) uint256.Int {
	if o := s.getObject(addr); o != nil {
		return o.balance
	}
	return uint256.Zero
}

// AddBalance credits addr by amount.
func (s *StateDB) AddBalance(addr ethtypes.Address, amount uint256.Int) {
	s.mustMutable("AddBalance")
	o := s.getOrNewObject(addr)
	prev := o.balance
	s.journal = append(s.journal, func() {
		o.balance = prev
		s.markAccount(addr)
	})
	o.balance = o.balance.Add(amount)
	s.touch(addr)
}

// SubBalance debits addr by amount. The caller must have checked funds;
// it panics on underflow to surface accounting bugs loudly.
func (s *StateDB) SubBalance(addr ethtypes.Address, amount uint256.Int) {
	s.mustMutable("SubBalance")
	o := s.getOrNewObject(addr)
	next, under := o.balance.SubUnderflow(amount)
	if under {
		panic(fmt.Sprintf("state: balance underflow for %s", addr))
	}
	prev := o.balance
	s.journal = append(s.journal, func() {
		o.balance = prev
		s.markAccount(addr)
	})
	o.balance = next
	s.touch(addr)
}

// GetNonce returns the account nonce.
func (s *StateDB) GetNonce(addr ethtypes.Address) uint64 {
	if o := s.getObject(addr); o != nil {
		return o.nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (s *StateDB) SetNonce(addr ethtypes.Address, nonce uint64) {
	s.mustMutable("SetNonce")
	o := s.getOrNewObject(addr)
	prev := o.nonce
	s.journal = append(s.journal, func() {
		o.nonce = prev
		s.markAccount(addr)
	})
	o.nonce = nonce
	s.touch(addr)
}

// GetCode returns the contract code at addr.
func (s *StateDB) GetCode(addr ethtypes.Address) []byte {
	if o := s.getObject(addr); o != nil {
		return s.codeOf(o)
	}
	return nil
}

// GetCodeSize returns len(code) without copying.
func (s *StateDB) GetCodeSize(addr ethtypes.Address) int {
	return len(s.GetCode(addr))
}

// GetCodeHash returns keccak(code), the zero hash for absent accounts.
func (s *StateDB) GetCodeHash(addr ethtypes.Address) ethtypes.Hash {
	if o := s.getObject(addr); o != nil {
		return o.codeHash
	}
	return ethtypes.Hash{}
}

// SetCode installs contract code at addr.
func (s *StateDB) SetCode(addr ethtypes.Address, code []byte) {
	s.mustMutable("SetCode")
	o := s.getOrNewObject(addr)
	prevCode, prevHash := o.code, o.codeHash
	s.journal = append(s.journal, func() {
		o.code, o.codeHash = prevCode, prevHash
		s.markAccount(addr)
	})
	o.code = append([]byte(nil), code...)
	o.codeHash = ethtypes.Keccak256(code)
	s.touch(addr)
}

// GetState reads a storage slot.
func (s *StateDB) GetState(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	if o := s.getObject(addr); o != nil {
		return s.slotOf(o, addr, slot)
	}
	return uint256.Zero
}

// slotOf reads slot of o: from o's storage, then from each older
// version of a frozen account, then below the object (slotBelow) when
// the last of them is partial.
func (s *StateDB) slotOf(o *stateObject, addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	for ; o != nil; o = o.older {
		if v, ok := o.storage[slot]; ok || !o.partial {
			return v
		}
	}
	return s.slotBelow(addr, slot)
}

// GetCommittedState reads the value the slot had at the start of the
// current transaction (for SSTORE gas metering).
func (s *StateDB) GetCommittedState(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	o := s.getObject(addr)
	if o == nil {
		return uint256.Zero
	}
	if v, ok := o.origin[slot]; ok {
		return v
	}
	return s.slotOf(o, addr, slot)
}

// SetState writes a storage slot.
func (s *StateDB) SetState(addr ethtypes.Address, slot ethtypes.Hash, value uint256.Int) {
	s.mustMutable("SetState")
	o := s.getOrNewObject(addr)
	if o.storage == nil {
		o.storage = make(map[ethtypes.Hash]uint256.Int)
	}
	if o.origin == nil {
		o.origin = make(map[ethtypes.Hash]uint256.Int)
	}
	// Partial objects fault the committed value in before the first
	// write, so origin tracking, journal undo and diff extraction all
	// see the true previous value rather than a spurious zero.
	s.materialiseSlot(o, addr, slot)
	prev, existed := o.storage[slot]
	if _, tracked := o.origin[slot]; !tracked {
		o.origin[slot] = prev
	}
	if o.partial {
		// Only a partial object's value is the store's: a complete one
		// was created since the last commit, and what the store held
		// for it is recorded with the wipe its creation stages.
		s.noteSlot(addr, slot, prev)
	}
	s.journal = append(s.journal, func() {
		if existed {
			o.storage[slot] = prev
		} else {
			delete(o.storage, slot)
		}
		s.markSlot(addr, slot)
	})
	if value.IsZero() && !o.partial {
		delete(o.storage, slot)
	} else {
		// Partial objects keep resident zeros: the tombstone shadows
		// whatever the disk still holds for this slot.
		o.storage[slot] = value
	}
	s.markSlot(addr, slot)
}

// SelfDestruct marks the contract for deletion at transaction finalize
// and zeroes its balance (the caller moves funds first).
func (s *StateDB) SelfDestruct(addr ethtypes.Address) {
	s.mustMutable("SelfDestruct")
	o := s.getObject(addr)
	if o == nil {
		return
	}
	s.noteAccount(addr, o)
	prevFlag, prevBal := o.selfdestructed, o.balance
	s.journal = append(s.journal, func() {
		o.selfdestructed, o.balance = prevFlag, prevBal
		s.markAccount(addr)
	})
	o.selfdestructed = true
	o.balance = uint256.Zero
	s.touch(addr)
}

// HasSelfDestructed reports the destruct flag.
func (s *StateDB) HasSelfDestructed(addr ethtypes.Address) bool {
	o := s.getObject(addr)
	return o != nil && o.selfdestructed
}

// AddRefund accumulates the SSTORE refund counter.
func (s *StateDB) AddRefund(gas uint64) {
	s.mustMutable("AddRefund")
	prev := s.refund
	s.journal = append(s.journal, func() { s.refund = prev })
	s.refund += gas
}

// SubRefund decreases the refund counter (EIP-2200 net metering).
func (s *StateDB) SubRefund(gas uint64) {
	s.mustMutable("SubRefund")
	prev := s.refund
	s.journal = append(s.journal, func() { s.refund = prev })
	if gas > s.refund {
		panic("state: refund counter below zero")
	}
	s.refund -= gas
}

// GetRefund returns the refund counter.
func (s *StateDB) GetRefund() uint64 { return s.refund }

// AddLog appends an event log emitted by the current execution.
func (s *StateDB) AddLog(log *ethtypes.Log) {
	s.mustMutable("AddLog")
	s.journal = append(s.journal, func() { s.logs = s.logs[:len(s.logs)-1] })
	s.logs = append(s.logs, log)
}

// Logs returns logs emitted since the last TakeLogs.
func (s *StateDB) Logs() []*ethtypes.Log { return s.logs }

// TakeLogs returns and clears the accumulated logs (end of transaction).
func (s *StateDB) TakeLogs() []*ethtypes.Log {
	s.mustMutable("TakeLogs")
	out := s.logs
	s.logs = nil
	return out
}

// Snapshot returns an identifier for the current state revision.
func (s *StateDB) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every change made after the snapshot was taken.
// Each undo re-marks what it restores, so the tries re-sync the reverted
// values on the next Root() — no wholesale cache invalidation needed.
func (s *StateDB) RevertToSnapshot(id int) {
	s.mustMutable("RevertToSnapshot")
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot id %d (journal %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i]()
	}
	s.journal = s.journal[:id]
}

// Finalise ends a transaction: deletes self-destructed and empty-touched
// accounts, clears per-tx origin tracking, resets refund and journal.
//
// Self-destruct always wins: a self-destructed account is removed even
// if it still holds storage or was re-funded after the destruct within
// the same transaction (the ether is burned, matching mainnet pre-Cancun
// semantics). The EIP-161 empty-account sweep applies only to accounts
// that also have no storage left.
//
// It visits only the accounts written since the last Root: only a
// write makes an account deletable or gives it origin values, and Root
// runs after the block's last Finalise.
func (s *StateDB) Finalise() {
	s.mustMutable("Finalise")
	diskBacked := s.diskStore() != nil
	for addr := range s.dirties {
		o := s.objects[addr]
		if o == nil {
			continue
		}
		if o.deletable() {
			delete(s.objects, addr)
			s.markReset(addr)
			if diskBacked {
				s.markDeleted(addr)
			}
			continue
		}
		clear(o.origin)
	}
	s.journal = nil
	s.refund = 0
}

// applyStorageDirt brings tr up to date for the given object: either a
// full rebuild from every live slot, or a per-slot refresh of just the
// given ones. Zero values delete — partial objects keep resident zero
// tombstones that must fall out of the trie, and in-memory objects
// never store zeros, so the paths coincide.
func applyStorageDirt(tr *trie.Secure, o *stateObject, slots []ethtypes.Hash, full bool) {
	if full {
		for slot, val := range o.storage {
			if val.IsZero() {
				continue
			}
			tr.Put(slot[:], rlp.Encode(rlp.Bytes(val.Bytes())))
		}
		return
	}
	for _, slot := range slots {
		if val, ok := o.storage[slot]; ok && !val.IsZero() {
			tr.Put(slot[:], rlp.Encode(rlp.Bytes(val.Bytes())))
		} else {
			tr.Delete(slot[:])
		}
	}
}

// residentSlots lists every resident slot key of o (the sync list for
// a partial object's freshly anchored lazy trie).
func residentSlots(o *stateObject) []ethtypes.Hash {
	out := make([]ethtypes.Hash, 0, len(o.storage))
	for slot := range o.storage {
		out = append(out, slot)
	}
	return out
}

// storageJob is one dirty account's storage-trie sync, runnable in
// parallel with other accounts' jobs (their tries share no nodes).
type storageJob struct {
	addr  ethtypes.Address
	obj   *stateObject
	tr    *trie.Secure
	slots []ethtypes.Hash
	full  bool
	drop  bool // storage gone (or account deleted): drop the trie
	root  ethtypes.Hash

	// Disk mode: collect routes hashing through HashCollect so fresh
	// trie nodes accumulate in nodes for the pending batch; dirt is the
	// slot list whose flat records must be (re)staged — distinct from
	// slots, which for a freshly anchored partial trie also carries
	// clean resident slots that need syncing but not re-staging.
	collect bool
	nodes   []statestore.NodeBlob
	dirt    []ethtypes.Hash
}

// maxStorageHashWorkers bounds the worker pool for parallel storage-root
// computation; beyond this, keccak throughput saturates memory bandwidth.
const maxStorageHashWorkers = 8

// minParallelJobs is the fan-out threshold below which goroutine setup
// costs more than it saves.
const minParallelJobs = 3

func (j *storageJob) run() {
	if j.drop || j.tr == nil {
		return
	}
	applyStorageDirt(j.tr, j.obj, j.slots, j.full)
	var sink func(ethtypes.Hash, []byte)
	if j.collect {
		sink = func(h ethtypes.Hash, enc []byte) {
			j.nodes = append(j.nodes, statestore.NodeBlob{Hash: h, Enc: enc})
		}
	}
	j.root = j.tr.HashCollect(sink)
}

// Root computes the world-state Merkle root over all accounts by syncing
// the persistent tries against the dirty set: storage roots for dirty
// accounts in parallel, then their account-trie leaves, then one
// incremental hash of the account trie.
func (s *StateDB) Root() ethtypes.Hash {
	if s.base != nil {
		panic("state: Root on overlay (cannot see untouched base accounts)")
	}
	if s.rootValid {
		return s.worldRoot
	}

	jobs := make([]storageJob, 0, len(s.dirties))
	hashWork := 0
	for addr, e := range s.dirties {
		o := s.objects[addr]
		j := storageJob{addr: addr, obj: o, collect: s.disk != nil}
		switch {
		case o == nil || (!o.partial && len(o.storage) == 0):
			j.drop = true
		case e.reset:
			j.tr = s.newStorageTrie()
			j.full = true
			hashWork++
		case len(e.slots) > 0:
			dirt := make([]ethtypes.Hash, 0, len(e.slots))
			for slot := range e.slots {
				dirt = append(dirt, slot)
			}
			tr := s.storageTries[addr]
			switch {
			case tr == nil && o.partial:
				// Anchor a lazy trie at the committed root; sync every
				// resident slot (clean residents are no-op rewrites),
				// but only the dirty ones need re-staging to disk.
				tr = trie.NewSecureFromRoot(o.storageRoot, s.disk)
				j.slots = residentSlots(o)
			case tr == nil:
				tr = s.newStorageTrie()
				j.full = true
			default:
				j.slots = dirt
			}
			j.dirt = dirt
			j.tr = tr
			hashWork++
		default:
			// Meta-only change: the storage root is already current.
		}
		jobs = append(jobs, j)
	}

	// Phase 1: storage roots, fanned out when there is enough work.
	workers := runtime.GOMAXPROCS(0)
	if workers > maxStorageHashWorkers {
		workers = maxStorageHashWorkers
	}
	if hashWork >= minParallelJobs && workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					jobs[i].run()
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range jobs {
			jobs[i].run()
		}
	}

	// Phase 2: merge results and refresh account-trie leaves (serial:
	// the account trie and the pending batch are shared).
	var p *statestore.Batch
	if s.disk != nil {
		p = s.pendingBatch()
	}
	for i := range jobs {
		j := &jobs[i]
		switch {
		case j.drop:
			delete(s.storageTries, j.addr)
			delete(s.rootCache, j.addr)
			if p != nil {
				// Storage is gone (account deleted, or every slot
				// cleared): wipe the flat slot records too, or a later
				// read-through would resurrect stale values.
				s.stageClear(j.addr)
			}
		case j.tr != nil:
			s.storageTries[j.addr] = j.tr
			s.rootCache[j.addr] = j.root
			if p != nil {
				for _, nb := range j.nodes {
					p.PutNode(nb.Hash, nb.Enc)
				}
				if j.full {
					// Fresh trie from scratch: the flat records must
					// match exactly, so wipe and re-dump.
					s.stageClear(j.addr)
					for slot, val := range j.obj.storage {
						if !val.IsZero() {
							p.PutSlot(j.addr, slot, val.Bytes())
						}
					}
				} else {
					for _, slot := range j.dirt {
						if val, ok := j.obj.storage[slot]; ok && !val.IsZero() {
							p.PutSlot(j.addr, slot, val.Bytes())
						} else {
							p.PutSlot(j.addr, slot, nil)
						}
					}
				}
			}
		}
		o := j.obj
		var storageRoot ethtypes.Hash
		if o != nil {
			storageRoot = s.storageRootOf(j.addr, o)
		}
		if o == nil || (o.empty() && storageRoot == trie.EmptyRoot) {
			s.accountTrie.Delete(j.addr[:])
			if p != nil {
				p.PutAccount(j.addr, nil)
			}
			continue
		}
		enc := rlp.Encode(rlp.List(
			rlp.Uint(o.nonce),
			rlp.BigInt(o.balance.ToBig()),
			rlp.Bytes(storageRoot[:]),
			rlp.Bytes(o.codeHash[:]),
		))
		s.accountTrie.Put(j.addr[:], enc)
		if p != nil {
			p.PutAccount(j.addr, &statestore.AccountRecord{
				Nonce:       o.nonce,
				Balance:     o.balance.Bytes(),
				StorageRoot: storageRoot,
				CodeHash:    o.codeHash,
			})
			if o.code != nil && o.codeHash != EmptyCodeHash {
				// Deduplicated against already-stored codes at commit.
				p.PutCode(o.codeHash, o.code)
			}
		}
	}

	s.publishLater()
	var sink func(ethtypes.Hash, []byte)
	if p != nil {
		sink = p.PutNode
	}
	s.worldRoot = s.accountTrie.HashCollect(sink)
	s.rootValid = true
	return s.worldRoot
}

// RebuildRoot recomputes the world root from scratch — fresh tries, no
// caches. It is the oracle the incremental pipeline is property-tested
// against and is intentionally kept on the original (pre-incremental)
// code path.
func (s *StateDB) RebuildRoot() ethtypes.Hash {
	at := trie.NewSecure()
	for addr, o := range s.objects {
		storage, _ := merged(o)
		if o.empty() && len(storage) == 0 {
			continue
		}
		st := trie.NewSecure()
		for slot, val := range storage {
			st.Put(slot[:], rlp.Encode(rlp.Bytes(val.Bytes())))
		}
		storageRoot := st.Hash()
		enc := rlp.Encode(rlp.List(
			rlp.Uint(o.nonce),
			rlp.BigInt(o.balance.ToBig()),
			rlp.Bytes(storageRoot[:]),
			rlp.Bytes(o.codeHash[:]),
		))
		at.Put(addr[:], enc)
	}
	return at.Hash()
}

// Accounts returns the addresses present in state, sorted, for
// inspection tools and tests. In disk mode this merges the store's
// account set with the resident objects (resident wins; accounts
// deleted since the last commit are excluded).
func (s *StateDB) Accounts() []ethtypes.Address {
	out := make([]ethtypes.Address, 0, len(s.objects))
	s.forEachAccount(func(a ethtypes.Address, _ uint256.Int) { out = append(out, a) })
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < ethtypes.AddressLength; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// forEachAccount calls fn with every account of the state and its
// balance, in no order: the resident objects (a frozen generation's
// index), then, in disk mode, the committed records neither shadows.
func (s *StateDB) forEachAccount(fn func(ethtypes.Address, uint256.Int)) {
	if s.frozen {
		s.forEachFrozen(fn)
		return
	}
	shadows := func(addr ethtypes.Address) bool {
		_, resident := s.objects[addr]
		return resident || s.isDeleted(addr)
	}
	for a, o := range s.objects {
		fn(a, o.balance)
	}
	if s.disk != nil {
		s.disk.ForEachAccount(func(addr ethtypes.Address, rec *statestore.AccountRecord) bool {
			if !shadows(addr) {
				fn(addr, uint256.SetBytes(rec.Balance))
			}
			return true
		})
	}
}

// Overlay returns an O(1) copy-on-read view over s for speculative
// execution (HeadView.Fork; eth_call and debug_traceCall take theirs
// from CreditedOverlay): account headers are copied on first touch and
// storage slots read through to s until written (fromBase), so the cost
// of an overlay is proportional to the accounts and slots the execution
// actually visits, not to the size of the world state.
//
// The overlay supports the full execution surface (getters, mutators,
// journal/revert, Finalise) but not root computation, snapshot encoding
// or whole-state walks — it cannot enumerate untouched base accounts.
// After a Finalise sweeps an account, a later read re-materialises the
// base object. The base must not be mutated while the overlay is live;
// concurrent overlays over one frozen generation are safe (they only
// read it).
func (s *StateDB) Overlay() *StateDB {
	return &StateDB{
		objects: make(map[ethtypes.Address]*stateObject),
		base:    s,
		dirties: make(map[ethtypes.Address]*dirtyEntry),
	}
}

// callOverlays holds released CreditedOverlay overlays, maps emptied
// but kept, for the next call.
var callOverlays = sync.Pool{New: func() any {
	return &StateDB{
		objects: make(map[ethtypes.Address]*stateObject),
		dirties: make(map[ethtypes.Address]*dirtyEntry),
		pooled:  true,
	}
}}

// CreditedOverlay is Overlay for a single message from addr that must
// not fail on addr's balance (eth_call, debug_traceCall): addr holds
// amount more than in s. The credit is applied when the overlay first
// materialises addr, so a message that never touches addr never pays
// for it. The overlay comes from a pool; whoever is done with it, and
// with everything read from it, may hand it back with Release.
func (s *StateDB) CreditedOverlay(addr ethtypes.Address, amount uint256.Int) *StateDB {
	ov := callOverlays.Get().(*StateDB)
	ov.base = s
	ov.creditTo, ov.credit, ov.creditPending = addr, amount, true
	return ov
}

// pooledOverlayObjects bounds the accounts an overlay may have touched
// and still go back to the pool: clearing a map costs its capacity, so
// one call that touched thousands of accounts must not make every later
// call pay for it.
const pooledOverlayObjects = 256

// Release empties an overlay from CreditedOverlay and returns it to the
// pool. Neither the overlay nor any object, log or slice taken from it
// may be used afterwards.
func (s *StateDB) Release() {
	if !s.pooled {
		panic("state: Release of a state not from CreditedOverlay")
	}
	if len(s.objects) > pooledOverlayObjects || len(s.dirties) > pooledOverlayObjects {
		return
	}
	clear(s.objects)
	clear(s.dirties)
	clear(s.journal)
	*s = StateDB{objects: s.objects, dirties: s.dirties, journal: s.journal[:0], pooled: true}
	callOverlays.Put(s)
}

// TotalBalance sums all account balances — a conservation-law hook for
// property tests. In disk mode, non-resident accounts are summed from
// their committed records (resident objects override; uncommitted
// changes are always resident, so the sum is exact).
func (s *StateDB) TotalBalance() uint256.Int {
	total := uint256.Zero
	s.forEachAccount(func(_ ethtypes.Address, b uint256.Int) { total = total.Add(b) })
	return total
}
