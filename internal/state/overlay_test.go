package state

import (
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// overlayBase builds a small world with funded accounts, a contract and
// a populated storage slot — the substrate for the overlay tests.
func overlayBase() *StateDB {
	s := New()
	s.AddBalance(addr(1), uint256.NewUint64(1000))
	s.SetNonce(addr(1), 5)
	s.AddBalance(addr(2), uint256.NewUint64(2000))
	s.SetCode(addr(3), []byte{0x60, 0x00})
	s.SetState(addr(3), slot(1), uint256.NewUint64(42))
	s.Finalise()
	return s
}

func TestOverlayCopyOnRead(t *testing.T) {
	s := overlayBase()
	ov := s.Overlay()
	// Reads come through from the base.
	if ov.GetBalance(addr(1)).Uint64() != 1000 {
		t.Fatal("overlay read missed base balance")
	}
	if ov.GetState(addr(3), slot(1)).Uint64() != 42 {
		t.Fatal("overlay read missed base storage")
	}
	// Writes stay in the overlay.
	ov.AddBalance(addr(1), uint256.NewUint64(500))
	ov.SetState(addr(3), slot(1), uint256.NewUint64(7))
	ov.SetNonce(addr(1), 6)
	ov.SetCode(addr(4), []byte{0x01})
	if s.GetBalance(addr(1)).Uint64() != 1000 {
		t.Fatal("overlay write leaked into base balance")
	}
	if s.GetState(addr(3), slot(1)).Uint64() != 42 {
		t.Fatal("overlay write leaked into base storage")
	}
	if s.GetNonce(addr(1)) != 5 {
		t.Fatal("overlay write leaked into base nonce")
	}
	if s.Exist(addr(4)) {
		t.Fatal("overlay creation leaked into base")
	}
	// Untouched accounts are never materialised in the overlay.
	if _, ok := ov.objects[addr(2)]; ok {
		t.Fatal("overlay materialised an untouched account")
	}
}

func TestOverlayJournalRevert(t *testing.T) {
	s := overlayBase()
	ov := s.Overlay()
	snap := ov.Snapshot()
	ov.AddBalance(addr(1), uint256.NewUint64(500))
	ov.SetState(addr(3), slot(1), uint256.NewUint64(7))
	ov.RevertToSnapshot(snap)
	if ov.GetBalance(addr(1)).Uint64() != 1000 {
		t.Fatal("overlay revert lost base balance")
	}
	if ov.GetState(addr(3), slot(1)).Uint64() != 42 {
		t.Fatal("overlay revert lost base storage value")
	}
}

func TestOverlayRootPanics(t *testing.T) {
	s := overlayBase()
	ov := s.Overlay()
	defer func() {
		if recover() == nil {
			t.Fatal("Root on an overlay did not panic")
		}
	}()
	ov.Root()
}

// accountView is everything a message can read of one account.
type accountView struct {
	exists, empty bool
	balance       uint256.Int
	nonce         uint64
	codeHash      ethtypes.Hash
	code          string
	slot          uint256.Int
}

func viewOf(s *StateDB, a ethtypes.Address) accountView {
	o := s.getObject(a)
	return accountView{
		exists: s.Exist(a), empty: o == nil || o.empty(),
		balance: s.GetBalance(a), nonce: s.GetNonce(a),
		codeHash: s.GetCodeHash(a), code: string(s.GetCode(a)),
		slot: s.GetState(a, slot(1)),
	}
}

// TestCreditedOverlayMatchesEagerCredit: for a credited account that the
// base holds, that it does not hold, and that holds code, every read on
// a CreditedOverlay answers what an Overlay with an AddBalance made up
// front answers, the first read and every later one, and whichever read
// comes first. The credit lands once.
func TestCreditedOverlayMatchesEagerCredit(t *testing.T) {
	s := overlayBase().Freeze()
	credit := uint256.NewUint64(1_000_000)
	for _, who := range []ethtypes.Address{addr(1), addr(3), addr(9)} {
		eager := s.Overlay()
		eager.AddBalance(who, credit)
		want := viewOf(eager, who)
		reads := []func(*StateDB){
			func(ov *StateDB) { ov.GetBalance(who) },
			func(ov *StateDB) { ov.Exist(who) },
			func(ov *StateDB) { ov.GetCodeHash(who) },
			func(ov *StateDB) { ov.GetState(who, slot(1)) },
		}
		for i, first := range reads {
			lazy := s.CreditedOverlay(who, credit)
			first(lazy)
			for k := 0; k < 2; k++ {
				if got := viewOf(lazy, who); got != want {
					t.Errorf("%s, read %d first, pass %d: %+v, eager credit %+v", who, i, k, got, want)
				}
			}
			lazy.Release()
		}
	}
	if got := s.GetBalance(addr(1)).Uint64(); got != 1000 {
		t.Fatalf("base balance %d after credited overlays, want 1000", got)
	}
}

// TestCreditedOverlayCreditSurvivesRevert: the credit is no journal
// entry, so reverting a snapshot taken before the account's first touch
// keeps it, as it keeps an AddBalance made before the snapshot.
func TestCreditedOverlayCreditSurvivesRevert(t *testing.T) {
	s := overlayBase()
	ov := s.CreditedOverlay(addr(9), uint256.NewUint64(50))
	defer ov.Release()
	snap := ov.Snapshot()
	ov.AddBalance(addr(9), uint256.NewUint64(5))
	if got := ov.GetBalance(addr(9)).Uint64(); got != 55 {
		t.Fatalf("balance %d, want 55", got)
	}
	ov.RevertToSnapshot(snap)
	if got := ov.GetBalance(addr(9)).Uint64(); got != 50 || !ov.Exist(addr(9)) {
		t.Fatalf("after revert: balance %d, exists %v; want 50, true", got, ov.Exist(addr(9)))
	}
}

// TestCreditedOverlayUntouchedCostsNothing: a message that never reads
// the credited account never materialises it.
func TestCreditedOverlayUntouchedCostsNothing(t *testing.T) {
	s := overlayBase()
	ov := s.CreditedOverlay(addr(1), uint256.NewUint64(50))
	defer ov.Release()
	ov.GetState(addr(3), slot(1))
	if _, ok := ov.objects[addr(1)]; ok {
		t.Fatal("untouched credited account was materialised")
	}
	if len(ov.journal) != 0 || len(ov.dirties) != 0 {
		t.Fatalf("credited overlay journal %d, dirties %d; want 0, 0", len(ov.journal), len(ov.dirties))
	}
}

// TestReleasedOverlayComesBackEmpty: Release leaves nothing of one call
// for the next: no objects, journal, logs, refund or pending credit, and
// the next overlay reads its own base.
func TestReleasedOverlayComesBackEmpty(t *testing.T) {
	a, b := overlayBase(), New()
	b.AddBalance(addr(1), uint256.NewUint64(7))
	b.Finalise()

	ov := a.CreditedOverlay(addr(9), uint256.NewUint64(50))
	ov.SetState(addr(3), slot(1), uint256.NewUint64(8))
	ov.AddRefund(3)
	ov.AddLog(&ethtypes.Log{Address: addr(3)})
	ov.Release()
	if len(ov.objects) != 0 || len(ov.journal) != 0 || len(ov.dirties) != 0 || ov.logs != nil ||
		ov.refund != 0 || ov.base != nil || ov.creditPending {
		t.Fatalf("released overlay not empty: %+v", ov)
	}

	next := b.CreditedOverlay(addr(2), uint256.NewUint64(1))
	defer next.Release()
	if got := next.GetBalance(addr(1)).Uint64(); got != 7 {
		t.Fatalf("next overlay balance %d, want 7 from its own base", got)
	}
	if next.Exist(addr(9)) || next.GetState(addr(3), slot(1)) != uint256.Zero {
		t.Fatal("next overlay sees the released overlay's writes")
	}
}

// TestReleasePanicsOnUnpooledState: only a CreditedOverlay goes back to
// the pool; Release of a plain state or Overlay is a bug.
func TestReleasePanicsOnUnpooledState(t *testing.T) {
	for name, s := range map[string]*StateDB{"New": New(), "Overlay": overlayBase().Overlay()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release of %s did not panic", name)
				}
			}()
			s.Release()
		}()
	}
}

// TestReleaseDropsLargeOverlays: an overlay whose maps grew past
// pooledOverlayObjects is left to the garbage collector, so the next
// call does not clear a map sized for thousands of accounts.
func TestReleaseDropsLargeOverlays(t *testing.T) {
	s := overlayBase()
	ov := s.CreditedOverlay(addr(9), uint256.NewUint64(1))
	for i := 0; i <= pooledOverlayObjects; i++ {
		ov.AddBalance(ethtypes.Address{0xee, byte(i >> 8), byte(i)}, uint256.One)
	}
	ov.Release()
	if len(ov.objects) <= pooledOverlayObjects {
		t.Fatalf("a released overlay with %d accounts was emptied for the pool", len(ov.objects))
	}
}
