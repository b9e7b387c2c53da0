package state

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// genAccounts and genSlots bound the world the generation tests write.
const genAccounts, genSlots = 24, 16

// worldReads is everything a reader can ask a state about the test
// world, taken at one moment.
type worldReads struct {
	root     ethtypes.Hash
	total    uint256.Int
	exists   []bool
	balances []uint256.Int
	nonces   []uint64
	codes    []string
	slots    [][]uint256.Int
}

func readWorld(s *StateDB) worldReads {
	r := worldReads{root: s.Root(), total: s.TotalBalance()}
	for i := 0; i < genAccounts; i++ {
		a := testAddr(i)
		r.exists = append(r.exists, s.Exist(a))
		r.balances = append(r.balances, s.GetBalance(a))
		r.nonces = append(r.nonces, s.GetNonce(a))
		r.codes = append(r.codes, string(s.GetCode(a)))
		var slots []uint256.Int
		for j := 0; j < genSlots; j++ {
			slots = append(slots, s.GetState(a, testSlot(j)))
		}
		r.slots = append(r.slots, slots)
	}
	return r
}

func (r worldReads) diff(o worldReads) string {
	switch {
	case r.root != o.root:
		return "root"
	case r.total != o.total:
		return "total balance"
	}
	for i := range r.exists {
		switch {
		case r.exists[i] != o.exists[i]:
			return "existence"
		case r.balances[i] != o.balances[i]:
			return "balance"
		case r.nonces[i] != o.nonces[i]:
			return "nonce"
		case r.codes[i] != o.codes[i]:
			return "code"
		}
		for j := range r.slots[i] {
			if r.slots[i][j] != o.slots[i][j] {
				return "storage slot"
			}
		}
	}
	return ""
}

// TestHeldGenerationsStayExact drives a memory and a disk-backed state
// through 4·StorageLayers random blocks, freezing each block, and
// requires every generation, read after all later blocks, to answer
// exactly what the live state answered when it was frozen: balances,
// nonces, code, every slot, the root and the total balance. Each account
// is written in most blocks, so its versions start over several times.
func TestHeldGenerationsStayExact(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	defer store.Close()
	mem, disk := New(), NewWithDisk(store, ethtypes.Hash{})
	rng := rand.New(rand.NewSource(58))
	type held struct {
		mem, disk *StateDB
		want      worldReads
	}
	var gens []held
	for b := 1; b <= 4*StorageLayers; b++ {
		applyRandomBlock(rng, mem, disk, genAccounts, genSlots)
		root := disk.Root()
		commitPending(t, disk, store, uint64(b), root)
		disk.EvictCold(rng.Intn(genAccounts))
		gens = append(gens, held{mem.Freeze(), disk.Freeze(), readWorld(mem)})
		if d := readWorld(disk).diff(gens[b-1].want); d != "" {
			t.Fatalf("block %d: disk state differs from memory state in %s", b, d)
		}
	}
	for i, g := range gens {
		if d := readWorld(g.mem).diff(g.want); d != "" {
			t.Errorf("memory generation %d differs in %s", i+1, d)
		}
		if d := readWorld(g.disk).diff(g.want); d != "" {
			t.Errorf("disk generation %d differs in %s", i+1, d)
		}
	}
}

// TestNewestGenerationExactUnderEviction: with every clean account
// evicted after each block, the newest disk generation still answers
// what the memory state does — dropped accounts read through the store.
func TestNewestGenerationExactUnderEviction(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	defer store.Close()
	mem, disk := New(), NewWithDisk(store, ethtypes.Hash{})
	rng := rand.New(rand.NewSource(7))
	for b := 1; b <= 3*StorageLayers; b++ {
		applyRandomBlock(rng, mem, disk, genAccounts, genSlots)
		commitPending(t, disk, store, uint64(b), disk.Root())
		disk.EvictCold(rng.Intn(4))
		want := readWorld(mem.Freeze())
		if d := readWorld(disk.Freeze()).diff(want); d != "" {
			t.Fatalf("block %d: newest disk generation differs in %s", b, d)
		}
	}
}

// TestGenerationsConcurrentReads reads held generations and overlays of
// them from several goroutines while the writer keeps writing and
// freezing; under -race it pins that a generation shares nothing the
// live state writes.
func TestGenerationsConcurrentReads(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(3))
	applyRandomBlock(rng, s, New(), genAccounts, genSlots)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		f := s.Freeze()
		want := readWorld(f)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if d := readWorld(f).diff(want); d != "" {
					t.Errorf("generation changed under the writer: %s", d)
					return
				}
				ov := f.Overlay()
				ov.SetState(testAddr(i%genAccounts), testSlot(0), uint256.NewUint64(1))
				ov.AddBalance(testAddr(i%genAccounts), uint256.NewUint64(1))
			}
		}()
		for b := 0; b < 5; b++ {
			applyRandomBlock(rng, s, New(), genAccounts, genSlots)
			s.Root()
		}
	}
	wg.Wait()
}

// TestFreezeCostsWhatChanged: a Freeze after one account's write
// allocates about as often in a world of 100 accounts as in one of
// 20 000, spread over the address space as real addresses are. The
// slack of two is the copied index leaf: a map past eight entries
// allocates its table apart from its header.
func TestFreezeCostsWhatChanged(t *testing.T) {
	spread := func(i int) ethtypes.Address {
		h := ethtypes.Keccak256([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		return ethtypes.BytesToAddress(h[12:])
	}
	allocs := func(n int) uint64 {
		s := New()
		for i := 0; i < n; i++ {
			a := spread(i)
			s.AddBalance(a, uint256.NewUint64(1))
			s.SetState(a, slot(1), uint256.NewUint64(1))
		}
		s.Finalise()
		s.Freeze()
		a := spread(n + 1)
		var most uint64
		for round := 0; round < 20; round++ {
			s.AddBalance(a, uint256.NewUint64(1))
			s.SetState(a, slot(0), uint256.NewUint64(uint64(round+1)))
			s.Finalise()
			s.Root()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Freeze()
			runtime.ReadMemStats(&after)
			most = max(most, after.Mallocs-before.Mallocs)
		}
		return most
	}
	small, large := allocs(100), allocs(20_000)
	if large > small+2 {
		t.Fatalf("a Freeze after one write allocates %d times in a 20 000-account world, %d in a 100-account one", large, small)
	}
}
