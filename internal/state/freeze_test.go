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
	s.Freeze()
	if !s.frozen {
		t.Fatal("not frozen after Freeze")
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
}

func TestFreezeRequiresFinalise(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.One) // journaled, not finalised
	mustPanic(t, "Freeze with pending journal", func() { s.Freeze() })
}

// TestFrozenCopyIsMutable: Copy() of a frozen state yields a fresh
// mutable COW state (the eth_call path), and mutating it never leaks
// back into the frozen original.
func TestFrozenCopyIsMutable(t *testing.T) {
	s := New()
	a := addr(1)
	s.AddBalance(a, uint256.NewUint64(100))
	s.SetState(a, slot(1), uint256.NewUint64(7))
	s.Finalise()
	s.Freeze()
	root := s.Root()

	c := s.Copy()
	if c.frozen {
		t.Fatal("copy of frozen state is frozen")
	}
	c.AddBalance(a, uint256.NewUint64(50))
	c.SetState(a, slot(1), uint256.NewUint64(9))
	c.Finalise()

	if s.GetBalance(a).Uint64() != 100 {
		t.Fatal("copy mutation leaked into frozen balance")
	}
	if s.GetState(a, slot(1)).Uint64() != 7 {
		t.Fatal("copy mutation leaked into frozen storage")
	}
	if s.Root() != root {
		t.Fatal("frozen root changed")
	}
	if c.GetBalance(a).Uint64() != 150 || c.Root() == root {
		t.Fatal("copy did not take the mutation")
	}
}

func TestFrozenSnapshotEncodes(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewUint64(42))
	s.Finalise()
	s.Freeze()
	dec, err := DecodeSnapshot(s.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != s.Root() {
		t.Fatal("snapshot round-trip of frozen state changed root")
	}
}
