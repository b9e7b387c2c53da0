package state

import (
	"math/rand"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/statestore"
	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

// openTestStore opens a statestore in dir with a small cache so
// eviction paths get exercised.
func openTestStore(t *testing.T, dir string) *statestore.Store {
	t.Helper()
	st, err := statestore.Open(dir, statestore.Options{CacheBytes: 1 << 16, NoSync: true})
	if err != nil {
		t.Fatalf("open statestore: %v", err)
	}
	return st
}

// commitPending flushes the disk state's pending batch to the store
// under a generation anchor.
func commitPending(t *testing.T, s *StateDB, st *statestore.Store, gen uint64, root ethtypes.Hash) {
	t.Helper()
	if err := st.Commit(s.TakePending(), statestore.Anchor{Gen: gen, Number: gen, Root: root}); err != nil {
		t.Fatalf("commit gen %d: %v", gen, err)
	}
}

// testAddr derives a deterministic address from an index.
func testAddr(i int) ethtypes.Address {
	var a ethtypes.Address
	a[0] = byte(i >> 8)
	a[1] = byte(i)
	a[19] = 0xd1
	return a
}

func testSlot(i int) ethtypes.Hash {
	var h ethtypes.Hash
	h[0] = byte(i >> 8)
	h[31] = byte(i)
	return h
}

// applyRandomBlock runs one block's worth of random mutations against
// both states identically, including snapshot/revert churn.
func applyRandomBlock(rng *rand.Rand, mem, disk *StateDB, nAccounts, nSlots int) {
	ops := 20 + rng.Intn(40)
	states := [2]*StateDB{mem, disk}
	for i := 0; i < ops; i++ {
		addr := testAddr(rng.Intn(nAccounts))
		switch op := rng.Intn(10); op {
		case 0, 1:
			amt := uint256.NewUint64(uint64(rng.Intn(1000) + 1))
			for _, s := range states {
				s.AddBalance(addr, amt)
			}
		case 2:
			for _, s := range states {
				if bal := s.GetBalance(addr); !bal.IsZero() {
					s.SubBalance(addr, uint256.NewUint64(1))
				}
			}
		case 3:
			n := uint64(rng.Intn(50))
			for _, s := range states {
				s.SetNonce(addr, n)
			}
		case 4:
			code := make([]byte, rng.Intn(64)+1)
			rng.Read(code)
			for _, s := range states {
				s.SetCode(addr, code)
			}
		case 5, 6, 7:
			slot := testSlot(rng.Intn(nSlots))
			var val uint256.Int
			if rng.Intn(3) > 0 { // 1-in-3 writes a zero (deletion)
				val = uint256.NewUint64(uint64(rng.Intn(1 << 30)))
			}
			for _, s := range states {
				s.SetState(addr, slot, val)
			}
		case 8:
			// Snapshot, mutate, maybe revert — identically on both.
			revert := rng.Intn(2) == 0
			slot := testSlot(rng.Intn(nSlots))
			val := uint256.NewUint64(uint64(rng.Intn(1 << 20)))
			for _, s := range states {
				id := s.Snapshot()
				s.SetState(addr, slot, val)
				s.AddBalance(addr, uint256.NewUint64(7))
				if revert {
					s.RevertToSnapshot(id)
				}
			}
		case 9:
			if rng.Intn(4) == 0 {
				for _, s := range states {
					s.SelfDestruct(addr)
				}
			}
		}
		if rng.Intn(8) == 0 {
			for _, s := range states {
				s.Finalise()
			}
		}
	}
	for _, s := range states {
		s.Finalise()
	}
}

// TestDiskStateDifferentialRoots drives an in-memory and a disk-backed
// state through the same random workload and requires byte-identical
// roots at every block boundary — across commits, cold-account
// eviction, and a full store reopen.
func TestDiskStateDifferentialRoots(t *testing.T) {
	const nAccounts, nSlots, blocks = 40, 24, 60
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer func() { st.Close() }()

	mem := New()
	disk := NewWithDisk(st, ethtypes.Hash{})

	var root ethtypes.Hash
	for b := 1; b <= blocks; b++ {
		applyRandomBlock(rng, mem, disk, nAccounts, nSlots)

		memRoot := mem.Root()
		diskRoot := disk.Root()
		if memRoot != diskRoot {
			t.Fatalf("block %d: root mismatch mem=%s disk=%s", b, memRoot, diskRoot)
		}
		root = diskRoot
		commitPending(t, disk, st, uint64(b), root)

		switch b % 5 {
		case 0:
			// Evict everything clean and verify reads fault back in.
			disk.EvictCold(0)
			for i := 0; i < nAccounts; i += 7 {
				addr := testAddr(i)
				if got, want := disk.GetBalance(addr), mem.GetBalance(addr); got != want {
					t.Fatalf("block %d post-evict: balance %s: got %v want %v", b, addr, got, want)
				}
				if got, want := disk.GetNonce(addr), mem.GetNonce(addr); got != want {
					t.Fatalf("block %d post-evict: nonce %s: got %d want %d", b, addr, got, want)
				}
				if got, want := string(disk.GetCode(addr)), string(mem.GetCode(addr)); got != want {
					t.Fatalf("block %d post-evict: code %s mismatch", b, addr)
				}
				for j := 0; j < nSlots; j += 5 {
					slot := testSlot(j)
					if got, want := disk.GetState(addr, slot), mem.GetState(addr, slot); got != want {
						t.Fatalf("block %d post-evict: slot %s/%s: got %v want %v", b, addr, slot, got, want)
					}
				}
			}
		case 3:
			// Full reopen: a crash-equivalent restart must resume with
			// the same root and identical semantics.
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			st = openTestStore(t, dir)
			a, ok := st.Anchor()
			if !ok {
				t.Fatalf("block %d: reopened store has no anchor", b)
			}
			if a.Root != root {
				t.Fatalf("block %d: reopened anchor root %s, want %s", b, a.Root, root)
			}
			disk = NewWithDisk(st, a.Root)
			if got := disk.Root(); got != root {
				t.Fatalf("block %d: reopened state root %s, want %s", b, got, root)
			}
			disk.TakePending() // drop the empty batch from the check Root
		}
	}

	// The differential oracle at the end: rebuild-from-scratch root of
	// the in-memory world must match the disk-backed incremental root.
	if got, want := disk.Root(), mem.RebuildRoot(); got != want {
		t.Fatalf("final root %s, oracle %s", got, want)
	}
	if got, want := disk.TotalBalance(), mem.TotalBalance(); got != want {
		t.Fatalf("total balance: disk %v mem %v", got, want)
	}
	if got, want := len(disk.Accounts()), len(mem.Accounts()); got != want {
		t.Fatalf("account count: disk %d mem %d", got, want)
	}
}

// TestDiskStateFrozenViewsAndOverlay exercises the lock-free read path:
// a frozen disk-backed state serves reads transiently (no caching) and
// overlays over it execute speculatively with read-through.
func TestDiskStateFrozenViewsAndOverlay(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()

	s := NewWithDisk(st, ethtypes.Hash{})
	addr, other := testAddr(1), testAddr(2)
	s.AddBalance(addr, uint256.NewUint64(1000))
	s.SetNonce(addr, 5)
	s.SetCode(addr, []byte{0xde, 0xad})
	s.SetState(addr, testSlot(1), uint256.NewUint64(42))
	s.AddBalance(other, uint256.NewUint64(7))
	s.Finalise()
	root := s.Root()
	commitPending(t, s, st, 1, root)
	s.EvictCold(0)
	if n := s.ResidentAccounts(); n != 0 {
		t.Fatalf("resident after EvictCold(0): %d", n)
	}

	f := s.Freeze()
	// Frozen reads fault through disk without populating an object map.
	if got := f.GetBalance(addr); got != uint256.NewUint64(1000) {
		t.Fatalf("frozen balance: %v", got)
	}
	if got := f.GetState(addr, testSlot(1)); got != uint256.NewUint64(42) {
		t.Fatalf("frozen slot: %v", got)
	}
	if got := f.GetCode(addr); len(got) != 2 || got[0] != 0xde {
		t.Fatalf("frozen code: %x", got)
	}
	if n := s.ResidentAccounts() + f.ResidentAccounts(); n != 0 {
		t.Fatalf("frozen reads cached objects: %d resident", n)
	}

	// Overlay over the frozen base: speculative writes see disk values.
	ov := f.Overlay()
	if got := ov.GetBalance(addr); got != uint256.NewUint64(1000) {
		t.Fatalf("overlay balance: %v", got)
	}
	ov.SetState(addr, testSlot(1), uint256.NewUint64(43))
	if got := ov.GetCommittedState(addr, testSlot(1)); got != uint256.NewUint64(42) {
		t.Fatalf("overlay committed state: %v", got)
	}
	if got := ov.GetState(addr, testSlot(2)); !got.IsZero() {
		t.Fatalf("overlay absent slot: %v", got)
	}
	// The frozen base is untouched.
	if got := f.GetState(addr, testSlot(1)); got != uint256.NewUint64(42) {
		t.Fatalf("base slot mutated by overlay: %v", got)
	}
}

// TestDiskStateDeletionNoResurrection: an account deleted in a block
// must stay dead for reads even before and after the batch commit, and
// across recreation/revert churn.
func TestDiskStateDeletionNoResurrection(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()

	s := NewWithDisk(st, ethtypes.Hash{})
	addr := testAddr(9)
	s.AddBalance(addr, uint256.NewUint64(50))
	s.SetCode(addr, []byte{1})
	s.SetState(addr, testSlot(0), uint256.NewUint64(9))
	s.Finalise()
	commitPending(t, s, st, 1, s.Root())
	s.EvictCold(0)

	// Self-destruct; before the batch is committed the store still
	// holds the record — reads must not resurrect it.
	s.SelfDestruct(addr)
	s.Finalise()
	if s.Exist(addr) {
		t.Fatal("deleted account still exists pre-commit")
	}
	if got := s.GetBalance(addr); !got.IsZero() {
		t.Fatalf("deleted account balance resurrected: %v", got)
	}

	// Recreation then revert: the deletion marker must be restored.
	id := s.Snapshot()
	s.AddBalance(addr, uint256.NewUint64(3))
	if !s.Exist(addr) {
		t.Fatal("recreated account missing")
	}
	s.RevertToSnapshot(id)
	if s.Exist(addr) {
		t.Fatal("reverted recreation resurrected the disk record")
	}

	root := s.Root()
	commitPending(t, s, st, 2, root)
	if s.Exist(addr) {
		t.Fatal("deleted account exists post-commit")
	}
	if _, err := st.Account(addr); err == nil {
		t.Fatal("store still has the deleted account record")
	}

	// Lazy trie agrees: the account fell out of the world trie.
	tr := trie.NewSecureFromRoot(root, st)
	if _, ok, err := tr.TryGet(addr[:]); err != nil || ok {
		t.Fatalf("world trie still proves the account: ok=%v err=%v", ok, err)
	}
}

// TestCreditedOverlayOverDisk: the credit lands on an account the
// frozen base holds only on disk exactly as an up-front AddBalance
// would, and the base keeps answering its committed balance.
func TestCreditedOverlayOverDisk(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := NewWithDisk(st, ethtypes.Hash{})
	a := testAddr(1)
	s.AddBalance(a, uint256.NewUint64(1000))
	s.SetCode(a, []byte{0xde, 0xad})
	s.Finalise()
	commitPending(t, s, st, 1, s.Root())
	s.EvictCold(0)
	s = s.Freeze()

	credit := uint256.NewUint64(5)
	eager := s.Overlay()
	eager.AddBalance(a, credit)
	lazy := s.CreditedOverlay(a, credit)
	defer lazy.Release()
	for i := 0; i < 2; i++ {
		if got, want := lazy.GetBalance(a), eager.GetBalance(a); got != want {
			t.Fatalf("read %d: balance %v, eager credit %v", i, got, want)
		}
	}
	if got, want := string(lazy.GetCode(a)), string(eager.GetCode(a)); got != want {
		t.Fatalf("code %x, eager credit %x", got, want)
	}
	if got := s.GetBalance(a).Uint64(); got != 1000 {
		t.Fatalf("frozen base balance %d, want 1000", got)
	}
}
