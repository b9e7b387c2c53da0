package state

import (
	"math/rand"
	"sync"
	"testing"

	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

// applyRandomOp performs one random state operation, possibly a
// snapshot/revert pair, mirroring what EVM execution does to the state.
func applyRandomOp(rng *rand.Rand, s *StateDB, snaps *[]int) {
	a := addr(byte(1 + rng.Intn(12)))
	switch rng.Intn(10) {
	case 0:
		s.AddBalance(a, uint256.NewUint64(uint64(rng.Intn(1000))))
	case 1:
		if !s.GetBalance(a).IsZero() {
			s.SubBalance(a, uint256.NewUint64(1))
		} else {
			s.AddBalance(a, uint256.NewUint64(1))
		}
	case 2:
		s.SetNonce(a, uint64(rng.Intn(50)))
	case 3:
		s.SetCode(a, []byte{byte(rng.Intn(256)), byte(rng.Intn(256))})
	case 4, 5, 6:
		// Storage writes dominate, including zero-writes (deletes).
		v := uint64(0)
		if rng.Intn(4) != 0 {
			v = rng.Uint64()
		}
		s.SetState(a, slot(byte(rng.Intn(20))), uint256.NewUint64(v))
	case 7:
		if s.Exist(a) && rng.Intn(4) == 0 {
			s.SelfDestruct(a)
		}
	case 8:
		*snaps = append(*snaps, s.Snapshot())
	case 9:
		if len(*snaps) > 0 {
			i := rng.Intn(len(*snaps))
			s.RevertToSnapshot((*snaps)[i])
			*snaps = (*snaps)[:i]
		}
	}
}

// TestIncrementalRootMatchesRebuildOracle drives a long random sequence
// of state operations, snapshots, reverts, commits (Root) and finalises,
// and asserts after every commit point that the incremental pipeline
// agrees with a from-scratch rebuild of fresh tries.
func TestIncrementalRootMatchesRebuildOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var snaps []int
		for step := 0; step < 400; step++ {
			applyRandomOp(rng, s, &snaps)
			if step%7 == 0 {
				if got, want := s.Root(), s.RebuildRoot(); got != want {
					t.Fatalf("seed %d step %d: incremental root %s != oracle %s", seed, step, got, want)
				}
			}
			if step%53 == 0 {
				s.Finalise()
				snaps = snaps[:0]
				if got, want := s.Root(), s.RebuildRoot(); got != want {
					t.Fatalf("seed %d step %d: post-finalise root %s != oracle %s", seed, step, got, want)
				}
			}
		}
		// Final commit must also agree.
		if got, want := s.Root(), s.RebuildRoot(); got != want {
			t.Fatalf("seed %d final: incremental root %s != oracle %s", seed, got, want)
		}
	}
}

// TestCopyRootMatchesOracle interleaves random ops on a state and its
// Copy and checks both stay consistent with the oracle — snapshotted
// tries must never leak writes across.
func TestCopyRootMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	var snaps []int
	for i := 0; i < 120; i++ {
		applyRandomOp(rng, s, &snaps)
	}
	s.Root() // warm the tries so the copy shares populated structure

	cp := s.Copy()
	var cpSnaps []int
	for i := 0; i < 120; i++ {
		applyRandomOp(rng, s, &snaps)
		applyRandomOp(rng, cp, &cpSnaps)
	}
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("parent root %s != oracle %s", got, want)
	}
	if got, want := cp.Root(), cp.RebuildRoot(); got != want {
		t.Fatalf("copy root %s != oracle %s", got, want)
	}
}

// TestConcurrentCopiesRace: several goroutines each take a Copy and
// execute writes on it while the parent keeps committing writes of its
// own. Run with -race this pins that copies share only the persistent
// tries, which path-copy.
func TestConcurrentCopiesRace(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		a := addr(byte(i + 1))
		s.AddBalance(a, uint256.NewUint64(1000))
		for j := 0; j < 5; j++ {
			s.SetState(a, slot(byte(j)), uint256.NewUint64(uint64(i*10+j+1)))
		}
	}
	s.Root()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cp := s.Copy()
		wg.Add(1)
		go func(cp *StateDB, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var snaps []int
			for i := 0; i < 200; i++ {
				applyRandomOp(rng, cp, &snaps)
			}
			if got, want := cp.Root(), cp.RebuildRoot(); got != want {
				t.Errorf("copy root %s != oracle %s", got, want)
			}
		}(cp, int64(g))
	}
	// Parent mutates concurrently; its copies must stay isolated.
	rng := rand.New(rand.NewSource(99))
	var snaps []int
	for i := 0; i < 200; i++ {
		applyRandomOp(rng, s, &snaps)
		if i%50 == 0 {
			s.Root()
		}
	}
	wg.Wait()
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("parent root %s != oracle %s", got, want)
	}
}

// TestRevertAfterRootResyncsTries reproduces the stale-root hazard:
// Root() clears the dirty set, so a revert crossing that commit must
// re-mark everything it restores or the next Root() serves stale tries.
func TestRevertAfterRootResyncsTries(t *testing.T) {
	s := New()
	a := addr(1)
	s.AddBalance(a, uint256.NewUint64(10))
	s.SetState(a, slot(1), uint256.NewUint64(111))
	want := s.Root()

	snap := s.Snapshot()
	s.SetState(a, slot(1), uint256.NewUint64(222))
	s.SetState(a, slot(2), uint256.NewUint64(333))
	s.AddBalance(a, uint256.NewUint64(5))
	s.Root() // commit point between the forward ops and the revert
	s.RevertToSnapshot(snap)

	if got := s.Root(); got != want {
		t.Fatalf("root after revert-across-commit = %s, want %s", got, want)
	}
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("incremental root %s != oracle %s", got, want)
	}
}

// TestAccountRecreationAfterSelfDestruct pins the reset-marker path: an
// account deleted at Finalise and later recreated must rebuild its
// storage trie from scratch, not resurrect stale slots.
func TestAccountRecreationAfterSelfDestruct(t *testing.T) {
	s := New()
	a := addr(7)
	s.AddBalance(a, uint256.NewUint64(1))
	s.SetState(a, slot(1), uint256.NewUint64(11))
	s.SetState(a, slot(2), uint256.NewUint64(22))
	s.Root()

	s.SelfDestruct(a)
	s.Finalise()
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("post-destruct root %s != oracle %s", got, want)
	}

	// Recreate with different storage; old slots must not reappear.
	s.AddBalance(a, uint256.NewUint64(2))
	s.SetState(a, slot(3), uint256.NewUint64(33))
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("post-recreate root %s != oracle %s", got, want)
	}
	if got := storageRootOf(t, s, a); got == trie.EmptyRoot {
		t.Fatal("recreated storage root is empty")
	}
	if !s.GetState(a, slot(1)).IsZero() {
		t.Fatal("stale slot resurrected after recreation")
	}
}

// --- Finalise precedence regression tests (intended semantics pinned) ---

// TestFinaliseSelfDestructWithStorage: self-destruct wins over the
// empty-account sweep — a destructed contract is removed even though it
// still holds storage.
func TestFinaliseSelfDestructWithStorage(t *testing.T) {
	s := New()
	a := addr(3)
	s.SetCode(a, []byte{0x00})
	s.SetState(a, slot(1), uint256.NewUint64(5))
	s.SelfDestruct(a)
	s.Finalise()
	if s.Exist(a) {
		t.Fatal("self-destructed account with storage survived Finalise")
	}
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("root %s != oracle %s", got, want)
	}
}

// TestFinaliseSelfDestructRefunded: funds sent to an account after its
// self-destruct in the same transaction are burned — the account is
// still deleted even though it is no longer "empty".
func TestFinaliseSelfDestructRefunded(t *testing.T) {
	s := New()
	a := addr(4)
	s.SetCode(a, []byte{0x00})
	s.SelfDestruct(a)
	s.AddBalance(a, uint256.NewUint64(1234)) // re-funded post-destruct
	s.Finalise()
	if s.Exist(a) {
		t.Fatal("re-funded self-destructed account survived Finalise")
	}
	if !s.TotalBalance().IsZero() {
		t.Fatal("burned balance still counted")
	}
}

// TestFinaliseEmptyAccountWithStorageKept: an EIP-161-empty account that
// still has storage is NOT swept (the sweep requires no storage left).
func TestFinaliseEmptyAccountWithStorageKept(t *testing.T) {
	s := New()
	a := addr(5)
	s.SetState(a, slot(1), uint256.NewUint64(9))
	s.Finalise()
	if !s.Exist(a) {
		t.Fatal("empty account with storage was swept")
	}
	if got := s.GetState(a, slot(1)).Uint64(); got != 9 {
		t.Fatalf("storage lost: slot = %d", got)
	}
	if got, want := s.Root(), s.RebuildRoot(); got != want {
		t.Fatalf("root %s != oracle %s", got, want)
	}
}
