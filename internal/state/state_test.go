package state

import (
	"math/rand"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

func addr(b byte) ethtypes.Address {
	var a ethtypes.Address
	a[19] = b
	return a
}

func slot(b byte) ethtypes.Hash {
	var h ethtypes.Hash
	h[31] = b
	return h
}

func TestBalanceOps(t *testing.T) {
	s := New()
	a := addr(1)
	if !s.GetBalance(a).IsZero() {
		t.Fatal("fresh account has balance")
	}
	s.AddBalance(a, uint256.NewUint64(100))
	s.SubBalance(a, uint256.NewUint64(40))
	if got := s.GetBalance(a).Uint64(); got != 60 {
		t.Fatalf("balance = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	s.SubBalance(a, uint256.NewUint64(61))
}

func TestSnapshotRevertRestoresEverything(t *testing.T) {
	s := New()
	a, b := addr(1), addr(2)
	s.AddBalance(a, uint256.NewUint64(1000))
	s.SetNonce(a, 5)
	s.SetState(a, slot(1), uint256.NewUint64(11))
	s.SetCode(b, []byte{0x60, 0x00})
	s.AddLog(&ethtypes.Log{Address: a})

	rootBefore := s.Root()
	balBefore := s.GetBalance(a)
	snap := s.Snapshot()

	// Mutate everything.
	s.AddBalance(a, uint256.NewUint64(77))
	s.SubBalance(a, uint256.NewUint64(10))
	s.SetNonce(a, 6)
	s.SetState(a, slot(1), uint256.NewUint64(22))
	s.SetState(a, slot(2), uint256.NewUint64(33))
	s.SetCode(b, []byte{0x61})
	s.AddBalance(addr(3), uint256.NewUint64(5)) // creates account
	s.AddLog(&ethtypes.Log{Address: b})
	s.AddRefund(100)
	s.SelfDestruct(b)

	s.RevertToSnapshot(snap)

	if got := s.GetBalance(a); got != balBefore {
		t.Fatalf("balance not restored: %s", got)
	}
	if s.GetNonce(a) != 5 {
		t.Fatal("nonce not restored")
	}
	if s.GetState(a, slot(1)).Uint64() != 11 {
		t.Fatal("slot 1 not restored")
	}
	if !s.GetState(a, slot(2)).IsZero() {
		t.Fatal("slot 2 not removed")
	}
	if string(s.GetCode(b)) != string([]byte{0x60, 0x00}) {
		t.Fatal("code not restored")
	}
	if s.Exist(addr(3)) {
		t.Fatal("created account survived revert")
	}
	if len(s.Logs()) != 1 {
		t.Fatalf("logs not rolled back: %d", len(s.Logs()))
	}
	if s.GetRefund() != 0 {
		t.Fatal("refund not rolled back")
	}
	if s.HasSelfDestructed(b) {
		t.Fatal("selfdestruct not rolled back")
	}
	if s.Root() != rootBefore {
		t.Fatal("root changed across snapshot/revert")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	a := addr(9)
	s.AddBalance(a, uint256.NewUint64(1))
	s1 := s.Snapshot()
	s.AddBalance(a, uint256.NewUint64(10))
	s2 := s.Snapshot()
	s.AddBalance(a, uint256.NewUint64(100))
	s.RevertToSnapshot(s2)
	if s.GetBalance(a).Uint64() != 11 {
		t.Fatalf("after inner revert: %d", s.GetBalance(a).Uint64())
	}
	s.RevertToSnapshot(s1)
	if s.GetBalance(a).Uint64() != 1 {
		t.Fatalf("after outer revert: %d", s.GetBalance(a).Uint64())
	}
}

func TestCommittedState(t *testing.T) {
	s := New()
	a := addr(4)
	s.SetState(a, slot(1), uint256.NewUint64(7))
	s.Finalise() // commit: origin now 7

	s.SetState(a, slot(1), uint256.NewUint64(8))
	s.SetState(a, slot(1), uint256.NewUint64(9))
	if s.GetCommittedState(a, slot(1)).Uint64() != 7 {
		t.Fatal("committed state must be the pre-tx value")
	}
	if s.GetState(a, slot(1)).Uint64() != 9 {
		t.Fatal("live state must be the latest value")
	}
	s.Finalise()
	if s.GetCommittedState(a, slot(1)).Uint64() != 9 {
		t.Fatal("Finalise must roll origin forward")
	}
}

func TestSelfDestructFinalise(t *testing.T) {
	s := New()
	c := addr(7)
	s.SetCode(c, []byte{1, 2, 3})
	s.AddBalance(c, uint256.NewUint64(500))
	s.SetState(c, slot(1), uint256.NewUint64(1))
	s.SelfDestruct(c)
	if !s.GetBalance(c).IsZero() {
		t.Fatal("selfdestruct must zero balance")
	}
	s.Finalise()
	if s.Exist(c) {
		t.Fatal("selfdestructed account must be deleted at finalise")
	}
}

func TestEmptyAccountsExcludedFromRoot(t *testing.T) {
	s := New()
	root0 := s.Root()
	if root0 != trie.EmptyRoot {
		t.Fatalf("empty state root = %s", root0)
	}
	// Touch an account without giving it anything.
	s.CreateAccount(addr(5))
	if s.Root() != root0 {
		t.Fatal("empty account changed the root")
	}
	s.AddBalance(addr(5), uint256.NewUint64(1))
	if s.Root() == root0 {
		t.Fatal("funded account did not change the root")
	}
}

func TestRootDeterministic(t *testing.T) {
	build := func(order []int) ethtypes.Hash {
		s := New()
		for _, i := range order {
			a := addr(byte(i))
			s.AddBalance(a, uint256.NewUint64(uint64(i)*13))
			s.SetNonce(a, uint64(i))
			s.SetState(a, slot(byte(i)), uint256.NewUint64(uint64(i)))
		}
		return s.Root()
	}
	r1 := build([]int{1, 2, 3, 4, 5})
	r2 := build([]int{5, 3, 1, 4, 2})
	if r1 != r2 {
		t.Fatal("root depends on mutation order")
	}
}

// storageRootOf returns the storage root Root() commits for a: the
// third field of its account leaf, or the empty root without a leaf.
func storageRootOf(t *testing.T, s *StateDB, a ethtypes.Address) ethtypes.Hash {
	t.Helper()
	s.Root()
	enc, ok, err := s.accountTrie.TryGet(a[:])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return trie.EmptyRoot
	}
	leaf, err := rlp.Decode(enc)
	if err != nil || leaf.Kind() != rlp.KindList || leaf.Len() != 4 {
		t.Fatalf("account leaf %x: %v", enc, err)
	}
	return ethtypes.BytesToHash(leaf.At(2).Str())
}

func TestStorageRootCaching(t *testing.T) {
	s := New()
	a := addr(8)
	s.SetState(a, slot(1), uint256.NewUint64(1))
	r1 := storageRootOf(t, s, a)
	if r1 == trie.EmptyRoot || storageRootOf(t, s, a) != r1 {
		t.Fatal("cached root differs")
	}
	s.SetState(a, slot(2), uint256.NewUint64(2))
	if storageRootOf(t, s, a) == r1 {
		t.Fatal("cache not invalidated by write")
	}
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("root %s != oracle %s", got, want)
	}
}

func TestZeroWriteDeletesSlot(t *testing.T) {
	s := New()
	a := addr(6)
	s.AddBalance(a, uint256.NewUint64(1))
	s.SetState(a, slot(1), uint256.NewUint64(5))
	s.SetState(a, slot(1), uint256.Zero)
	if _, kept := s.getObject(a).storage[slot(1)]; kept {
		t.Fatal("zero write must delete the slot")
	}
	if storageRootOf(t, s, a) != trie.EmptyRoot {
		t.Fatal("zeroed storage must have the empty root")
	}
}

func TestCopyIsolation(t *testing.T) {
	s := New()
	a := addr(1)
	s.AddBalance(a, uint256.NewUint64(10))
	s.SetState(a, slot(1), uint256.NewUint64(1))
	cp := s.Copy()
	cp.AddBalance(a, uint256.NewUint64(90))
	cp.SetState(a, slot(1), uint256.NewUint64(2))
	if s.GetBalance(a).Uint64() != 10 {
		t.Fatal("copy mutated original balance")
	}
	if s.GetState(a, slot(1)).Uint64() != 1 {
		t.Fatal("copy mutated original storage")
	}
	if s.Root() == cp.Root() {
		t.Fatal("diverged states share a root")
	}
}

// Property: value transfers conserve total balance.
func TestTransferConservation(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		s.AddBalance(addr(byte(i)), uint256.NewUint64(1000))
	}
	total := s.TotalBalance()
	for step := 0; step < 1000; step++ {
		from, to := addr(byte(r.Intn(10))), addr(byte(r.Intn(10)))
		amt := uint256.NewUint64(uint64(r.Intn(50)))
		if s.GetBalance(from).Lt(amt) {
			continue
		}
		s.SubBalance(from, amt)
		s.AddBalance(to, amt)
	}
	if s.TotalBalance() != total {
		t.Fatalf("conservation violated: %s -> %s", total, s.TotalBalance())
	}
}

// Property: a random interleaving of ops followed by revert-to-zero
// restores the genesis root.
func TestFullRevertRestoresGenesis(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewUint64(1_000_000))
	s.Finalise()
	genesis := s.Root()
	snap := s.Snapshot()
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 500; i++ {
		a := addr(byte(r.Intn(20)))
		switch r.Intn(4) {
		case 0:
			s.AddBalance(a, uint256.NewUint64(uint64(r.Intn(100))))
		case 1:
			s.SetNonce(a, uint64(r.Intn(100)))
		case 2:
			s.SetState(a, slot(byte(r.Intn(8))), uint256.NewUint64(uint64(r.Intn(100))))
		case 3:
			s.SetCode(a, []byte{byte(r.Intn(256))})
		}
	}
	s.RevertToSnapshot(snap)
	if s.Root() != genesis {
		t.Fatal("root not restored after full revert")
	}
}

func TestAccountsSorted(t *testing.T) {
	s := New()
	for _, b := range []byte{9, 3, 7, 1} {
		s.AddBalance(addr(b), uint256.One)
	}
	got := s.Accounts()
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Hex() >= got[i].Hex() {
			t.Fatal("accounts not sorted")
		}
	}
}

func TestRefundCounter(t *testing.T) {
	s := New()
	s.AddRefund(100)
	s.SubRefund(30)
	if s.GetRefund() != 70 {
		t.Fatal("refund arithmetic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative refund did not panic")
		}
	}()
	s.SubRefund(1000)
}

func BenchmarkSetState(b *testing.B) {
	s := New()
	a := addr(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetState(a, slot(byte(i%256)), uint256.NewUint64(uint64(i)))
	}
}

func BenchmarkRoot100Accounts(b *testing.B) {
	s := New()
	for i := 0; i < 100; i++ {
		a := addr(byte(i))
		s.AddBalance(a, uint256.NewUint64(uint64(i+1)))
		s.SetState(a, slot(1), uint256.NewUint64(uint64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Root()
	}
}
