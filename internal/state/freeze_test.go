package state

import (
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on frozen state did not panic", what)
		}
	}()
	fn()
}

func TestFreezeBlocksMutators(t *testing.T) {
	s := New()
	a := addr(1)
	s.AddBalance(a, uint256.NewUint64(100))
	s.SetState(a, slot(1), uint256.NewUint64(7))
	s.Finalise()
	s = s.Freeze()
	if !s.frozen {
		t.Fatal("Freeze returned a mutable state")
	}

	// Reads keep working.
	if s.GetBalance(a).Uint64() != 100 {
		t.Fatal("frozen read lost the balance")
	}
	if s.GetState(a, slot(1)).Uint64() != 7 {
		t.Fatal("frozen read lost the slot")
	}
	s.Root() // cached, must not panic

	// Every mutator panics.
	mustPanic(t, "AddBalance", func() { s.AddBalance(a, uint256.One) })
	mustPanic(t, "SubBalance", func() { s.SubBalance(a, uint256.One) })
	mustPanic(t, "SetNonce", func() { s.SetNonce(a, 1) })
	mustPanic(t, "SetCode", func() { s.SetCode(a, []byte{1}) })
	mustPanic(t, "SetState", func() { s.SetState(a, slot(1), uint256.One) })
	mustPanic(t, "CreateAccount", func() { s.CreateAccount(addr(2)) })
	mustPanic(t, "SelfDestruct", func() { s.SelfDestruct(a) })
	mustPanic(t, "AddRefund", func() { s.AddRefund(1) })
	mustPanic(t, "AddLog", func() { s.AddLog(&ethtypes.Log{}) })
	mustPanic(t, "TakeLogs", func() { s.TakeLogs() })
	mustPanic(t, "Finalise", func() { s.Finalise() })
	mustPanic(t, "Freeze", func() { s.Freeze() })
}

func TestFreezeRequiresFinalise(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.One) // journaled, not finalised
	mustPanic(t, "Freeze with pending journal", func() { s.Freeze() })
}

// TestFrozenCopyIsMutable: Freeze leaves the state it was called on
// mutable, and nothing written there afterwards — balances, slots,
// deletions, new accounts — reaches the generation.
func TestFrozenCopyIsMutable(t *testing.T) {
	s := New()
	a := addr(1)
	s.AddBalance(a, uint256.NewUint64(100))
	s.SetState(a, slot(1), uint256.NewUint64(7))
	s.AddBalance(addr(2), uint256.NewUint64(5))
	s.Finalise()
	f := s.Freeze()
	root := f.Root()

	s.AddBalance(a, uint256.NewUint64(50))
	s.SetState(a, slot(1), uint256.NewUint64(9))
	s.SetState(a, slot(2), uint256.NewUint64(3))
	s.SubBalance(addr(2), uint256.NewUint64(5))
	s.AddBalance(addr(3), uint256.NewUint64(1))
	s.Finalise()

	if f.GetBalance(a).Uint64() != 100 {
		t.Fatal("live write leaked into the frozen balance")
	}
	if f.GetState(a, slot(1)).Uint64() != 7 || !f.GetState(a, slot(2)).IsZero() {
		t.Fatal("live write leaked into frozen storage")
	}
	if !f.Exist(addr(2)) || f.Exist(addr(3)) {
		t.Fatal("live deletion or creation leaked into the generation")
	}
	if f.Root() != root || f.TotalBalance().Uint64() != 105 {
		t.Fatal("frozen root or total changed")
	}
	if s.GetBalance(a).Uint64() != 150 || s.Root() == root {
		t.Fatal("the live state did not take the writes")
	}
}

// TestFrozenSnapshotEncodes: the live state encodes as it was frozen,
// and the encoding decodes to the generation's root.
func TestFrozenSnapshotEncodes(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewUint64(42))
	s.Finalise()
	f := s.Freeze()
	dec, err := DecodeSnapshot(s.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != f.Root() {
		t.Fatal("snapshot round-trip changed root")
	}
}
