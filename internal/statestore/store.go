// Package statestore is a disk-backed store for world state: flat
// account and storage-slot records for O(1) reads, contract code, and
// hash-keyed trie nodes for lazy (on-demand) trie resolution. It
// bounds resident memory — the chain keeps only hot accounts and trie
// nodes in RAM, faulting the rest in through a byte-budgeted LRU —
// while preserving the incremental-root and lock-free-read invariants
// of the in-memory state.
//
// Layout: a seglog under the name prefix "kv-", so the store shares the
// block journal's frames and its torn-write and bit-rot detection. Each
// Commit appends one batch of records followed by an anchor record
// naming the committed (generation, block, state root); the anchor is
// the atomic commit marker. Recovery truncates everything after the
// last anchor, so a crash mid-commit rolls back to the previous
// anchored state — mirroring the block journal's verified-prefix
// guarantee.
//
// The full record index (key → log position) lives in memory; the
// values live on disk. For 1M accounts that is tens of MB of index
// against hundreds of MB of state — the bounded-memory target is the
// values, which dominate.
package statestore

import (
	"errors"
	"fmt"
	"sync"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/seglog"
)

// Record kinds, the first element of every framed payload.
const (
	kindAccount = 1 // (kind, addr, enc)       enc = "" deletes the account
	kindSlot    = 2 // (kind, addr, slot, val) val = "" deletes the slot
	kindCode    = 3 // (kind, codeHash, code)
	kindNode    = 4 // (kind, nodeHash, enc)   trie node, keyed by keccak(enc)
	kindClear   = 5 // (kind, addr)            drops every slot of addr
	kindAnchor  = 6 // (kind, gen, number, blockHash, root) commit marker
)

const (
	segPrefix = "kv-"
	// defaultSegmentSize rotates segments at 64 MiB, keeping compaction
	// and truncation units manageable.
	defaultSegmentSize = 64 << 20
	// defaultCacheBytes is the read-cache budget when Options leaves it
	// zero: 32 MiB, small enough for constrained soak targets.
	defaultCacheBytes = 32 << 20
)

// ErrNotFound is returned when a key has no record in the store. It is
// a definitive answer — the in-memory index is complete — so callers
// can treat it as "the account/slot/node does not exist on disk".
var ErrNotFound = errors.New("statestore: not found")

// Anchor names a committed state generation: the monotonically
// increasing commit counter, the block it belongs to and the world
// root it produced. Recovery rolls the store back to the newest intact
// anchor and the chain layer verifies it against the block journal.
type Anchor struct {
	Gen       uint64
	Number    uint64
	BlockHash ethtypes.Hash
	Root      ethtypes.Hash
}

// AccountRecord is the flat per-account record. Its encoding is the
// account-trie leaf encoding — rlp(nonce, balance, storageRoot,
// codeHash) — so the flat record, the trie leaf and the snapshot
// wire format all agree byte-for-byte.
type AccountRecord struct {
	Nonce       uint64
	Balance     []byte // minimal big-endian, as uint256 Bytes()
	StorageRoot ethtypes.Hash
	CodeHash    ethtypes.Hash
}

// Encode renders the record as the canonical account-trie leaf value.
func (a *AccountRecord) Encode() []byte {
	return rlp.Encode(rlp.List(
		rlp.Uint(a.Nonce),
		rlp.Bytes(a.Balance),
		rlp.Bytes(a.StorageRoot[:]),
		rlp.Bytes(a.CodeHash[:]),
	))
}

// DecodeAccountRecord parses a canonical account leaf encoding. A
// balance that is a list, or longer than the 32 bytes of a uint256, is an
// error.
func DecodeAccountRecord(enc []byte) (*AccountRecord, error) {
	it, err := rlp.Decode(enc)
	if err != nil {
		return nil, err
	}
	if it.Kind() != rlp.KindList || it.Len() != 4 {
		return nil, errors.New("statestore: account record must be a 4-item list")
	}
	a := &AccountRecord{}
	if a.Nonce, err = it.At(0).AsUint64(); err != nil {
		return nil, err
	}
	bal := it.At(1)
	if bal.Kind() != rlp.KindString || bal.Len() > 32 {
		return nil, errors.New("statestore: account balance must be a string of at most 32 bytes")
	}
	a.Balance = append([]byte(nil), bal.Str()...)
	if a.StorageRoot, err = asHash(it.At(2)); err != nil {
		return nil, err
	}
	if a.CodeHash, err = asHash(it.At(3)); err != nil {
		return nil, err
	}
	return a, nil
}

func asHash(it *rlp.Item) (ethtypes.Hash, error) {
	var h ethtypes.Hash
	if it.Kind() != rlp.KindString || len(it.Str()) != len(h) {
		return h, errors.New("statestore: expected 32-byte hash")
	}
	copy(h[:], it.Str())
	return h, nil
}

// Batch accumulates one commit's worth of state changes. The zero
// value is ready to use; fields are lazily allocated by the adders.
type Batch struct {
	Accounts map[ethtypes.Address]*AccountRecord // nil record = delete
	Slots    map[ethtypes.Address]map[ethtypes.Hash][]byte
	Clears   []ethtypes.Address // full storage wipes, applied first
	Codes    map[ethtypes.Hash][]byte
	Nodes    []NodeBlob
}

// NodeBlob is one freshly hashed trie node: Hash = keccak(Enc).
type NodeBlob struct {
	Hash ethtypes.Hash
	Enc  []byte
}

// PutAccount stages an account record (nil deletes).
func (b *Batch) PutAccount(addr ethtypes.Address, a *AccountRecord) {
	if b.Accounts == nil {
		b.Accounts = make(map[ethtypes.Address]*AccountRecord)
	}
	b.Accounts[addr] = a
}

// PutSlot stages one storage slot; empty val deletes it.
func (b *Batch) PutSlot(addr ethtypes.Address, slot ethtypes.Hash, val []byte) {
	if b.Slots == nil {
		b.Slots = make(map[ethtypes.Address]map[ethtypes.Hash][]byte)
	}
	m := b.Slots[addr]
	if m == nil {
		m = make(map[ethtypes.Hash][]byte)
		b.Slots[addr] = m
	}
	m[slot] = val
}

// PutCode stages contract code keyed by its hash.
func (b *Batch) PutCode(h ethtypes.Hash, code []byte) {
	if b.Codes == nil {
		b.Codes = make(map[ethtypes.Hash][]byte)
	}
	b.Codes[h] = code
}

// PutNode stages a trie node.
func (b *Batch) PutNode(h ethtypes.Hash, enc []byte) {
	b.Nodes = append(b.Nodes, NodeBlob{Hash: h, Enc: enc})
}

// Clear stages a full storage wipe for addr, applied before the
// batch's slot writes.
func (b *Batch) Clear(addr ethtypes.Address) {
	b.Clears = append(b.Clears, addr)
}

// Empty reports whether the batch stages nothing.
func (b *Batch) Empty() bool {
	return b == nil || (len(b.Accounts) == 0 && len(b.Slots) == 0 &&
		len(b.Clears) == 0 && len(b.Codes) == 0 && len(b.Nodes) == 0)
}

// Options configures Open.
type Options struct {
	// SegmentSize overrides segment rotation (0 = 64 MiB).
	SegmentSize int64
	// CacheBytes is the read-cache budget (0 = 32 MiB).
	CacheBytes int64
	// NoSync skips the per-commit fsync. Tests and benchmarks only.
	NoSync bool
}

type slotKey struct {
	addr ethtypes.Address
	slot ethtypes.Hash
}

// Store is the disk-backed state store. All methods are safe for
// concurrent use; reads take the mutex only to resolve the index and
// then pread without it.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	log  *seglog.Log // set by Open, never reassigned: reads use it unlocked

	accounts map[ethtypes.Address]seglog.Pos
	slots    map[slotKey]seglog.Pos
	codes    map[ethtypes.Hash]seglog.Pos
	nodes    map[ethtypes.Hash]seglog.Pos
	// slotCount counts the indexed slots per address, so a storage wipe
	// of an address with none — every account creation wipes — skips the
	// walk of slots.
	slotCount map[ethtypes.Address]int

	anchor    Anchor
	hasAnchor bool

	liveBytes int64 // frame bytes still referenced by the index

	cache *lruCache
}

// Open opens (creating if needed) the store in dir and rebuilds the
// in-memory index in one pass over the log: each record's index change
// is staged and applied when the next anchor arrives, and the
// un-anchored tail a crash mid-commit leaves is truncated away.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = defaultCacheBytes
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		accounts:  make(map[ethtypes.Address]seglog.Pos),
		slots:     make(map[slotKey]seglog.Pos),
		codes:     make(map[ethtypes.Hash]seglog.Pos),
		nodes:     make(map[ethtypes.Hash]seglog.Pos),
		slotCount: make(map[ethtypes.Address]int),
		cache:     newLRUCache(opts.CacheBytes),
	}
	var staged []indexOp
	var tail *seglog.Pos // first frame after the newest anchor
	log, _, err := seglog.Open(dir, segPrefix, opts.SegmentSize, func(pos seglog.Pos, payload []byte) error {
		op, a, err := decodeRecord(pos, payload)
		if err != nil {
			return err
		}
		if a != nil {
			for _, op := range staged {
				s.applyOp(op)
			}
			staged = staged[:0]
			s.anchor, s.hasAnchor = *a, true
			tail = nil
			return nil
		}
		if tail == nil {
			tail = &pos
		}
		staged = append(staged, op)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	if tail != nil {
		if err := log.Truncate(*tail); err != nil {
			log.Close()
			return nil, fmt.Errorf("statestore: roll back to the last anchor: %w", err)
		}
	}
	s.log = log
	mDiskBytes.Set(log.Size())
	return s, nil
}

// indexOp is one record's change to the index. val is the value the
// record carries, for the read cache; replay leaves it nil.
type indexOp struct {
	kind uint64
	addr ethtypes.Address
	key  ethtypes.Hash // slot, code hash or node hash
	pos  seglog.Pos
	del  bool
	val  []byte
}

// recordItems is the list length of each record kind.
var recordItems = map[uint64]int{kindAccount: 3, kindSlot: 4, kindCode: 3, kindNode: 3, kindClear: 2, kindAnchor: 5}

// decodeRecord parses one record: an index change, or an anchor.
func decodeRecord(pos seglog.Pos, payload []byte) (indexOp, *Anchor, error) {
	op := indexOp{pos: pos}
	it, err := rlp.Decode(payload)
	if err != nil {
		return op, nil, err
	}
	if it.Kind() != rlp.KindList || it.Len() < 1 {
		return op, nil, errors.New("statestore: record must be a list")
	}
	if op.kind, err = it.At(0).AsUint64(); err != nil {
		return op, nil, err
	}
	n, known := recordItems[op.kind]
	if !known {
		return op, nil, fmt.Errorf("statestore: unknown record kind %d", op.kind)
	}
	if it.Len() != n || it.At(n-1).Kind() != rlp.KindString {
		return op, nil, fmt.Errorf("statestore: malformed record of kind %d", op.kind)
	}
	switch op.kind {
	case kindAccount, kindSlot, kindClear:
		op.addr, err = asAddress(it.At(1))
		if err == nil && op.kind == kindSlot {
			op.key, err = asHash(it.At(2))
		}
		op.del = op.kind != kindClear && len(it.At(n-1).Str()) == 0
	case kindCode, kindNode:
		op.key, err = asHash(it.At(1))
	case kindAnchor:
		var a Anchor
		if a.Gen, err = it.At(1).AsUint64(); err != nil {
			return op, nil, err
		}
		if a.Number, err = it.At(2).AsUint64(); err != nil {
			return op, nil, err
		}
		if a.BlockHash, err = asHash(it.At(3)); err != nil {
			return op, nil, err
		}
		if a.Root, err = asHash(it.At(4)); err != nil {
			return op, nil, err
		}
		return op, &a, nil
	}
	return op, nil, err
}

// record renders one record payload: the kind, then its fields.
func record(kind uint64, fields ...*rlp.Item) []byte {
	return rlp.Encode(rlp.List(append([]*rlp.Item{rlp.Uint(kind)}, fields...)...))
}

func anchorRecord(a Anchor) []byte {
	return record(kindAnchor, rlp.Uint(a.Gen), rlp.Uint(a.Number), rlp.Bytes(a.BlockHash[:]), rlp.Bytes(a.Root[:]))
}

func asAddress(it *rlp.Item) (ethtypes.Address, error) {
	var a ethtypes.Address
	if it == nil || it.Kind() != rlp.KindString || len(it.Str()) != len(a) {
		return a, errors.New("statestore: expected 20-byte address")
	}
	copy(a[:], it.Str())
	return a, nil
}

// applyOp applies one index change, maintaining liveBytes.
func (s *Store) applyOp(op indexOp) {
	switch op.kind {
	case kindAccount:
		if op.del {
			dropPos(s, s.accounts, op.addr)
		} else {
			setPos(s, s.accounts, op.addr, op.pos)
		}
	case kindSlot:
		k := slotKey{addr: op.addr, slot: op.key}
		if op.del {
			s.dropSlot(k)
		} else {
			if _, ok := s.slots[k]; !ok {
				s.slotCount[k.addr]++
			}
			setPos(s, s.slots, k, op.pos)
		}
	case kindCode:
		setPos(s, s.codes, op.key, op.pos)
	case kindNode:
		setPos(s, s.nodes, op.key, op.pos)
	case kindClear:
		for k := range s.slots {
			if s.slotCount[op.addr] == 0 {
				break
			}
			if k.addr == op.addr {
				s.dropSlot(k)
			}
		}
	}
}

// dropSlot removes one slot from the index and from its address's count.
func (s *Store) dropSlot(k slotKey) {
	if _, ok := s.slots[k]; !ok {
		return
	}
	dropPos(s, s.slots, k)
	if s.slotCount[k.addr]--; s.slotCount[k.addr] == 0 {
		delete(s.slotCount, k.addr)
	}
}

// cacheOp mirrors a committed index change into the read cache.
func (s *Store) cacheOp(op indexOp) {
	switch op.kind {
	case kindAccount:
		if op.del {
			s.cache.remove(accountKey(op.addr))
		} else {
			s.cache.put(accountKey(op.addr), op.val)
		}
	case kindSlot:
		if op.del {
			s.cache.remove(storageKey(op.addr, op.key))
		} else {
			s.cache.put(storageKey(op.addr, op.key), op.val)
		}
	case kindCode:
		s.cache.put(codeKey(op.key), op.val)
	case kindNode:
		s.cache.put(nodeKey(op.key), op.val)
	case kindClear:
		s.cache.dropSlots(op.addr)
	}
}

func setPos[K comparable](s *Store, m map[K]seglog.Pos, k K, p seglog.Pos) {
	dropPos(s, m, k)
	m[k] = p
	s.liveBytes += p.Bytes()
}

func dropPos[K comparable](s *Store, m map[K]seglog.Pos, k K) {
	if old, ok := m[k]; ok {
		s.liveBytes -= old.Bytes()
		delete(m, k)
	}
}

// Anchor returns the newest committed anchor, if any.
func (s *Store) Anchor() (Anchor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anchor, s.hasAnchor
}

// Commit durably applies one batch and advances the anchor to a: all
// records are framed and appended in one write, the anchor record lands
// last, and a single fsync makes the commit atomic (recovery rolls back
// to the previous anchor if the tail is torn). The in-memory index and
// the read cache are updated only after the write succeeds.
func (s *Store) Commit(b *Batch, a Anchor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []indexOp
	var payloads [][]byte
	add := func(op indexOp, fields ...*rlp.Item) {
		ops = append(ops, op)
		payloads = append(payloads, record(op.kind, fields...))
	}
	if b != nil {
		for _, addr := range b.Clears {
			add(indexOp{kind: kindClear, addr: addr}, rlp.Bytes(addr[:]))
		}
		for addr, rec := range b.Accounts {
			var enc []byte
			if rec != nil {
				enc = rec.Encode()
			}
			add(indexOp{kind: kindAccount, addr: addr, del: rec == nil, val: enc}, rlp.Bytes(addr[:]), rlp.Bytes(enc))
		}
		for addr, slots := range b.Slots {
			for slot, val := range slots {
				add(indexOp{kind: kindSlot, addr: addr, key: slot, del: len(val) == 0, val: val},
					rlp.Bytes(addr[:]), rlp.Bytes(slot[:]), rlp.Bytes(val))
			}
		}
		for h, code := range b.Codes {
			if _, dup := s.codes[h]; dup {
				continue // code is content-addressed; first write wins
			}
			add(indexOp{kind: kindCode, key: h, val: code}, rlp.Bytes(h[:]), rlp.Bytes(code))
		}
		for _, nb := range b.Nodes {
			if _, dup := s.nodes[nb.Hash]; dup {
				continue // nodes are content-addressed too
			}
			add(indexOp{kind: kindNode, key: nb.Hash, val: nb.Enc}, rlp.Bytes(nb.Hash[:]), rlp.Bytes(nb.Enc))
		}
	}
	pos, err := s.log.Append(append(payloads, anchorRecord(a))...)
	if err != nil {
		return fmt.Errorf("statestore: commit: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("statestore: commit: %w", err)
		}
	}
	for i, op := range ops {
		op.pos = pos[i]
		s.applyOp(op)
		s.cacheOp(op)
	}
	s.anchor, s.hasAnchor = a, true
	mDiskBytes.Set(s.log.Size())
	return nil
}

// recordValue reads a record payload and returns the value item at
// index vi (records store their value as the last list element).
func (s *Store) recordValue(p seglog.Pos, vi int) ([]byte, error) {
	payload, err := s.log.Read(p)
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	it, err := rlp.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("statestore: corrupt record: %w", err)
	}
	if it.Kind() != rlp.KindList || it.Len() <= vi {
		return nil, errors.New("statestore: corrupt record shape")
	}
	return append([]byte(nil), it.At(vi).Str()...), nil
}

// Account returns the flat record for addr, or ErrNotFound.
func (s *Store) Account(addr ethtypes.Address) (*AccountRecord, error) {
	key := accountKey(addr)
	if v, ok := s.cache.get(key); ok {
		return DecodeAccountRecord(v)
	}
	s.mu.Lock()
	l, ok := s.accounts[addr]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	enc, err := s.recordValue(l, 2)
	if err != nil {
		return nil, err
	}
	s.cache.put(key, enc)
	return DecodeAccountRecord(enc)
}

// Slot returns the committed value bytes (minimal big-endian) for one
// storage slot, or ErrNotFound for an absent (zero) slot.
func (s *Store) Slot(addr ethtypes.Address, slot ethtypes.Hash) ([]byte, error) {
	key := storageKey(addr, slot)
	if v, ok := s.cache.get(key); ok {
		return v, nil
	}
	s.mu.Lock()
	l, ok := s.slots[slotKey{addr: addr, slot: slot}]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	val, err := s.recordValue(l, 3)
	if err != nil {
		return nil, err
	}
	s.cache.put(key, val)
	return val, nil
}

// Slots returns every committed slot of addr with its value bytes, nil
// when it has none. Unless addr has slots it costs a map lookup; if it
// does, a walk of the slot index.
func (s *Store) Slots(addr ethtypes.Address) (map[ethtypes.Hash][]byte, error) {
	s.mu.Lock()
	var at map[ethtypes.Hash]seglog.Pos
	if n := s.slotCount[addr]; n > 0 {
		at = make(map[ethtypes.Hash]seglog.Pos, n)
		for k, p := range s.slots {
			if k.addr == addr {
				at[k.slot] = p
			}
		}
	}
	s.mu.Unlock()
	if at == nil {
		return nil, nil
	}
	out := make(map[ethtypes.Hash][]byte, len(at))
	for slot, p := range at {
		val, err := s.recordValue(p, 3)
		if err != nil {
			return nil, err
		}
		out[slot] = val
	}
	return out, nil
}

// Code returns contract code by hash, or ErrNotFound.
func (s *Store) Code(h ethtypes.Hash) ([]byte, error) {
	key := codeKey(h)
	if v, ok := s.cache.get(key); ok {
		return v, nil
	}
	s.mu.Lock()
	l, ok := s.codes[h]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	code, err := s.recordValue(l, 2)
	if err != nil {
		return nil, err
	}
	s.cache.put(key, code)
	return code, nil
}

// ResolveNode returns the RLP encoding of the trie node with the given
// hash, or ErrNotFound. This is the trie.Resolver implementation that
// lazy tries fault through.
func (s *Store) ResolveNode(h ethtypes.Hash) ([]byte, error) {
	key := nodeKey(h)
	if v, ok := s.cache.get(key); ok {
		return v, nil
	}
	s.mu.Lock()
	l, ok := s.nodes[h]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	enc, err := s.recordValue(l, 2)
	if err != nil {
		return nil, err
	}
	s.cache.put(key, enc)
	return enc, nil
}

// ForEachAccount calls fn for every account in the store (index
// order, unspecified). fn returning false stops the walk. Each call
// costs a disk read for cold accounts; this is for dumps, audits and
// supply sums, not hot paths.
func (s *Store) ForEachAccount(fn func(addr ethtypes.Address, rec *AccountRecord) bool) error {
	s.mu.Lock()
	addrs := make([]ethtypes.Address, 0, len(s.accounts))
	for a := range s.accounts {
		addrs = append(addrs, a)
	}
	s.mu.Unlock()
	for _, addr := range addrs {
		rec, err := s.Account(addr)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // deleted since the index walk started
			}
			return err
		}
		if !fn(addr, rec) {
			return nil
		}
	}
	return nil
}

// AccountCount returns the number of accounts in the index.
func (s *Store) AccountCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.accounts)
}

// DiskBytes returns the total on-disk size of the store's segments.
func (s *Store) DiskBytes() int64 { return s.log.Size() }

// CacheStats returns (hits, misses, evictions) for observability and
// tests.
func (s *Store) CacheStats() (hits, misses, evictions uint64) {
	return s.cache.stats()
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Reset discards everything: records, index, cache, anchor. Used
// when recovery determines the anchored state is unusable (e.g. the
// block journal lost the anchor's block) and the chain must rebuild
// from the genesis.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Truncate(seglog.Pos{}); err != nil {
		return fmt.Errorf("statestore: reset: %w", err)
	}
	s.accounts = make(map[ethtypes.Address]seglog.Pos)
	s.slots = make(map[slotKey]seglog.Pos)
	s.codes = make(map[ethtypes.Hash]seglog.Pos)
	s.nodes = make(map[ethtypes.Hash]seglog.Pos)
	s.slotCount = make(map[ethtypes.Address]int)
	s.anchor = Anchor{}
	s.hasAnchor = false
	s.liveBytes = 0
	s.cache.reset()
	mDiskBytes.Set(0)
	return nil
}

// Close syncs (unless NoSync) and closes the store. The store is
// unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !s.opts.NoSync {
		err = s.log.Sync()
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
