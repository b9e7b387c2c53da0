package statestore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/trie"
)

func addr(b byte) ethtypes.Address {
	var a ethtypes.Address
	a[0] = b
	return a
}

func h32(b byte) ethtypes.Hash {
	var h ethtypes.Hash
	h[0] = b
	return h
}

func testAnchor(gen uint64) Anchor {
	return Anchor{Gen: gen, Number: gen, BlockHash: h32(byte(gen)), Root: h32(byte(gen + 100))}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	a1 := addr(1)
	rec := &AccountRecord{Nonce: 7, Balance: []byte{0x01, 0x02}, StorageRoot: trie.EmptyRoot, CodeHash: h32(9)}
	code := []byte("contract code")
	nodeEnc := []byte("not really rlp but indexed by hash")
	nodeHash := ethtypes.Keccak256(nodeEnc)

	b := &Batch{}
	b.PutAccount(a1, rec)
	b.PutSlot(a1, h32(2), []byte{0xaa})
	b.PutCode(h32(9), code)
	b.PutNode(nodeHash, nodeEnc)
	if err := s.Commit(b, testAnchor(1)); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	check := func(s *Store, stage string) {
		got, err := s.Account(a1)
		if err != nil {
			t.Fatalf("%s: Account: %v", stage, err)
		}
		if got.Nonce != 7 || string(got.Balance) != "\x01\x02" || got.CodeHash != h32(9) {
			t.Fatalf("%s: account mismatch: %+v", stage, got)
		}
		val, err := s.Slot(a1, h32(2))
		if err != nil || string(val) != "\xaa" {
			t.Fatalf("%s: Slot: %v %x", stage, err, val)
		}
		c, err := s.Code(h32(9))
		if err != nil || string(c) != string(code) {
			t.Fatalf("%s: Code: %v", stage, err)
		}
		n, err := s.ResolveNode(nodeHash)
		if err != nil || string(n) != string(nodeEnc) {
			t.Fatalf("%s: ResolveNode: %v", stage, err)
		}
		if _, err := s.Account(addr(99)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: want ErrNotFound, got %v", stage, err)
		}
		a, ok := s.Anchor()
		if !ok || a.Gen != 1 || a.Root != h32(101) {
			t.Fatalf("%s: anchor %+v ok=%v", stage, a, ok)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	check(s2, "reopened")
}

func TestTombstonesAndClear(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()

	a1 := addr(1)
	b := &Batch{}
	b.PutAccount(a1, &AccountRecord{Nonce: 1, StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot})
	b.PutSlot(a1, h32(2), []byte{0xaa})
	b.PutSlot(a1, h32(3), []byte{0xbb})
	if err := s.Commit(b, testAnchor(1)); err != nil {
		t.Fatal(err)
	}

	// Delete the account, wipe its storage.
	b2 := &Batch{}
	b2.PutAccount(a1, nil)
	b2.Clear(a1)
	if err := s.Commit(b2, testAnchor(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Account(a1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted account: %v", err)
	}
	for _, slot := range []ethtypes.Hash{h32(2), h32(3)} {
		if _, err := s.Slot(a1, slot); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cleared slot %s: %v", slot, err)
		}
	}

	// Reopen: tombstones must survive restart.
	s.Close()
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if _, err := s2.Account(a1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted account after reopen: %v", err)
	}
	if _, err := s2.Slot(a1, h32(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cleared slot after reopen: %v", err)
	}
}

// TestClearKeepsSlotCounts wipes one address beside another with slots
// and a fresh one with none, then deletes and rewrites slots: the wipe
// takes exactly its address's slots, and the per-address counts that
// let a wipe skip the index walk match the index, also after a reopen.
func TestClearKeepsSlotCounts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	checkCounts := func(s *Store) {
		t.Helper()
		want := map[ethtypes.Address]int{}
		for k := range s.slots {
			want[k.addr]++
		}
		if len(want) != len(s.slotCount) {
			t.Fatalf("slot counts %v, index holds %v", s.slotCount, want)
		}
		for a, n := range want {
			if s.slotCount[a] != n {
				t.Fatalf("slot counts %v, index holds %v", s.slotCount, want)
			}
		}
	}
	wiped, kept, fresh := addr(1), addr(2), addr(3)
	b := &Batch{}
	for i := byte(0); i < 4; i++ {
		b.PutSlot(wiped, h32(i), []byte{0xaa, i})
		b.PutSlot(kept, h32(i), []byte{0xbb, i})
	}
	if err := s.Commit(b, testAnchor(1)); err != nil {
		t.Fatal(err)
	}
	b = &Batch{}
	b.Clear(wiped)
	b.Clear(fresh)
	b.PutSlot(kept, h32(0), nil)           // a deleted slot leaves the count
	b.PutSlot(kept, h32(1), []byte{0xcc})  // a rewritten one does not add to it
	b.PutSlot(wiped, h32(9), []byte{0xdd}) // written after the wipe: survives it
	if err := s.Commit(b, testAnchor(2)); err != nil {
		t.Fatal(err)
	}
	checkCounts(s)
	if s.slotCount[wiped] != 1 || s.slotCount[kept] != 3 || s.slotCount[fresh] != 0 {
		t.Fatalf("slot counts after the wipe: %v", s.slotCount)
	}
	for i := byte(1); i < 4; i++ {
		if _, err := s.Slot(wiped, h32(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("wiped slot %d: %v", i, err)
		}
		if _, err := s.Slot(kept, h32(i)); err != nil {
			t.Fatalf("other address's slot %d: %v", i, err)
		}
	}
	s.Close()
	s = mustOpen(t, dir)
	defer s.Close()
	checkCounts(s)
}

// A torn tail (crash mid-commit) must roll back to the previous
// anchor, not serve half a batch.
func TestTornTailRollsBackToAnchor(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	b := &Batch{}
	b.PutAccount(addr(1), &AccountRecord{Nonce: 1, StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot})
	if err := s.Commit(b, testAnchor(1)); err != nil {
		t.Fatal(err)
	}
	b2 := &Batch{}
	b2.PutAccount(addr(2), &AccountRecord{Nonce: 2, StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot})
	if err := s.Commit(b2, testAnchor(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail: chop bytes off the segment so the gen-2 anchor is
	// damaged.
	seg := filepath.Join(dir, "kv-0000000000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	a, ok := s2.Anchor()
	if !ok || a.Gen != 1 {
		t.Fatalf("anchor after torn tail: %+v ok=%v", a, ok)
	}
	if _, err := s2.Account(addr(1)); err != nil {
		t.Fatalf("gen-1 account lost: %v", err)
	}
	if _, err := s2.Account(addr(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn gen-2 account should be rolled back, got %v", err)
	}
}

// A store with no intact anchor at all resets to empty.
func TestNoAnchorResetsFresh(t *testing.T) {
	dir := t.TempDir()
	// Fabricate a segment with garbage.
	if err := os.WriteFile(filepath.Join(dir, "kv-0000000000.seg"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if _, ok := s.Anchor(); ok {
		t.Fatal("expected no anchor")
	}
	if s.AccountCount() != 0 {
		t.Fatal("expected empty store")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b := &Batch{}
		b.PutAccount(addr(byte(i)), &AccountRecord{Nonce: uint64(i), StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot})
		if err := s.Commit(b, testAnchor(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "kv-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments (%v)", len(segs), err)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	for i := 0; i < 20; i++ {
		rec, err := s2.Account(addr(byte(i)))
		if err != nil || rec.Nonce != uint64(i) {
			t.Fatalf("account %d after rotation+reopen: %v", i, err)
		}
	}
}

func TestCacheStatsAndEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CacheBytes: 16 * 200}) // tiny budget
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b := &Batch{}
	for i := 0; i < 64; i++ {
		b.PutAccount(addr(byte(i)), &AccountRecord{Nonce: uint64(i), StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot})
	}
	if err := s.Commit(b, testAnchor(1)); err != nil {
		t.Fatal(err)
	}
	// Commit populated the cache and the tiny budget forced evictions;
	// read everything twice to generate misses then hits.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			if _, err := s.Account(addr(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses, evictions := s.CacheStats()
	if misses == 0 || evictions == 0 {
		t.Fatalf("expected misses and evictions with tiny cache: hits=%d misses=%d evictions=%d", hits, misses, evictions)
	}
}

func TestForEachAccountAndDiskBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	b := &Batch{}
	for i := 1; i <= 5; i++ {
		b.PutAccount(addr(byte(i)), &AccountRecord{Nonce: uint64(i), StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot})
	}
	if err := s.Commit(b, testAnchor(1)); err != nil {
		t.Fatal(err)
	}
	var n int
	var total uint64
	if err := s.ForEachAccount(func(a ethtypes.Address, rec *AccountRecord) bool {
		n++
		total += rec.Nonce
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 || total != 15 {
		t.Fatalf("ForEachAccount visited %d, nonce sum %d", n, total)
	}
	if s.DiskBytes() <= 0 {
		t.Fatal("DiskBytes should be positive")
	}
}

// Compaction via a real trie: build a secure trie whose nodes are
// committed through the store, overwrite values across several
// generations, compact, and verify the final generation still reads
// back while the store shrank.
func TestCompactPreservesAnchoredState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()

	tr := trie.NewSecure()
	var root ethtypes.Hash
	for gen := uint64(1); gen <= 5; gen++ {
		b := &Batch{}
		for i := 0; i < 32; i++ {
			a := addr(byte(i))
			rec := &AccountRecord{Nonce: gen * 100, Balance: []byte{byte(gen), byte(i)}, StorageRoot: trie.EmptyRoot, CodeHash: trie.EmptyRoot}
			enc := rec.Encode()
			tr.Put(a[:], enc)
			b.PutAccount(a, rec)
		}
		root = tr.HashCollect(func(h ethtypes.Hash, enc []byte) {
			b.PutNode(h, append([]byte(nil), enc...))
		})
		if err := s.Commit(b, Anchor{Gen: gen, Number: gen, BlockHash: h32(byte(gen)), Root: root}); err != nil {
			t.Fatal(err)
		}
	}

	before := s.DiskBytes()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.DiskBytes()
	if after >= before {
		t.Fatalf("compaction did not shrink the store: %d -> %d", before, after)
	}

	// The anchored trie must be fully readable from the compacted store.
	lazy := trie.NewSecureFromRoot(root, s)
	for i := 0; i < 32; i++ {
		a := addr(byte(i))
		enc, ok, err := lazy.TryGet(a[:])
		if err != nil || !ok {
			t.Fatalf("TryGet after compact: ok=%v err=%v", ok, err)
		}
		rec, err := DecodeAccountRecord(enc)
		if err != nil || rec.Nonce != 500 {
			t.Fatalf("account %d after compact: %+v err=%v", i, rec, err)
		}
	}
	// Flat records survive too.
	for i := 0; i < 32; i++ {
		rec, err := s.Account(addr(byte(i)))
		if err != nil || rec.Nonce != 500 {
			t.Fatalf("flat account %d after compact: %v", i, err)
		}
	}

	// And the compacted store must reopen cleanly.
	s.Close()
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if rec, err := s2.Account(addr(3)); err != nil || rec.Nonce != 500 {
		t.Fatalf("after compact+reopen: %v", err)
	}
	lazy2 := trie.NewSecureFromRoot(root, s2)
	a := addr(3)
	if _, ok, err := lazy2.TryGet(a[:]); err != nil || !ok {
		t.Fatalf("lazy read after compact+reopen: ok=%v err=%v", ok, err)
	}
}
