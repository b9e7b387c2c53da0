package chain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// TestViewCoherence is the core invariant: every published view answers
// all its reads at one consistent (block, state-root) pair.
func TestViewCoherence(t *testing.T) {
	bc, accs := devChain(t)
	for i := 0; i < 5; i++ {
		tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1), nil, 21000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
		v := bc.View()
		if v.Head().Header.StateRoot != v.StateRoot() {
			t.Fatalf("view %d: header root %x != state root %x",
				i, v.Head().Header.StateRoot, v.StateRoot())
		}
		if v.BlockNumber() != uint64(i+1) {
			t.Fatalf("view height %d, want %d", v.BlockNumber(), i+1)
		}
		if b, ok := v.BlockByNumber(v.BlockNumber()); !ok || b != v.Head() {
			t.Fatal("BlockByNumber(head) disagrees with Head")
		}
		if b, ok := v.BlockByHash(v.Head().Hash()); !ok || b != v.Head() {
			t.Fatal("BlockByHash(head) disagrees with Head")
		}
	}
}

// TestCallCreditIsComputedOnce: the credit every eth_call gives its
// caller is a package constant equal to 10⁹ ether.
func TestCallCreditIsComputedOnce(t *testing.T) {
	if want := ethtypes.Ether(1_000_000_000); callCredit != want {
		t.Fatalf("callCredit = %v, want %v", callCredit, want)
	}
}

// TestCallGasCappedAtBlockLimit runs JUMPDEST PUSH1 0 JUMP, a loop that
// only gas ends, as eth_call with caller-chosen gas above the block gas
// limit. The gas is capped at the limit, so the call comes back out of
// gas having spent at most a block's worth.
func TestCallGasCappedAtBlockLimit(t *testing.T) {
	bc, accs := devChain(t)
	loop := []byte{0x5b, 0x60, 0x00, 0x56}
	for _, gas := range []uint64{4 * bc.GasLimit(), math.MaxUint64} {
		res := bc.View().CallCtx(context.Background(), accs[0].Address, nil, loop, uint256.Zero, gas)
		if !errors.Is(res.Err, evm.ErrOutOfGas) || res.GasUsed > bc.GasLimit() {
			t.Fatalf("gas %d: err %v, gas used %d; want out of gas within the block gas limit %d", gas, res.Err, res.GasUsed, bc.GasLimit())
		}
	}
}

// TestViewPinning: a view keeps answering for its sealed head even
// after later blocks seal.
func TestViewPinning(t *testing.T) {
	bc, accs := devChain(t)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1), nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	pinned := bc.View()
	height := pinned.BlockNumber()
	balance := pinned.GetBalance(accs[1].Address)
	nonce := pinned.GetNonce(accs[0].Address)
	root := pinned.StateRoot()

	for i := 0; i < 3; i++ {
		tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1), nil, 21000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}

	if pinned.BlockNumber() != height {
		t.Fatalf("pinned view advanced: %d -> %d", height, pinned.BlockNumber())
	}
	if pinned.GetBalance(accs[1].Address) != balance {
		t.Fatal("pinned balance changed under later seals")
	}
	if pinned.GetNonce(accs[0].Address) != nonce {
		t.Fatal("pinned nonce changed under later seals")
	}
	if pinned.StateRoot() != root {
		t.Fatal("pinned state root changed under later seals")
	}
	if bc.View().BlockNumber() != height+3 {
		t.Fatal("live view did not advance")
	}
	// The later blocks are invisible to the pinned view's index too.
	if _, ok := pinned.BlockByHash(bc.Head().Hash()); ok {
		t.Fatal("pinned view sees a block sealed after it")
	}
}

// TestFilterLogsViewOwnership: logs returned by FilterLogs belong to an
// immutable view — a seal racing the call can never grow the result.
func TestFilterLogsViewOwnership(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	for i := 0; i < 3; i++ {
		tx := signedTx(t, bc, accs[1], &addr, uint256.Zero, input, 200_000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	v := bc.View()
	logs := v.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{addr}})
	if len(logs) != 3 {
		t.Fatalf("want 3 logs, got %d", len(logs))
	}
	// Seal more events; the pinned view's answer must not change.
	for i := 0; i < 2; i++ {
		tx := signedTx(t, bc, accs[1], &addr, uint256.Zero, input, 200_000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	again := v.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{addr}})
	if len(again) != 3 {
		t.Fatalf("pinned view grew: want 3 logs, got %d", len(again))
	}
	if got := len(bc.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{addr}})); got != 5 {
		t.Fatalf("live chain: want 5 logs, got %d", got)
	}
}

// TestAdjustTimeRepublishes: AdjustTime publishes a fresh view (same
// head, shifted speculative clock) without re-freezing the state.
func TestAdjustTimeRepublishes(t *testing.T) {
	bc, _ := devChain(t)
	before := bc.View()
	bc.AdjustTime(3600)
	after := bc.View()
	if before == after {
		t.Fatal("AdjustTime did not republish the view")
	}
	if before.st != after.st {
		t.Fatal("AdjustTime re-froze the state instead of reusing the snapshot")
	}
	if after.nextHeader().Time != before.nextHeader().Time+3600 {
		t.Fatal("time offset not visible in the republished view")
	}
}

// TestConcurrentReadersDuringSeals is the race hammer the ISSUE asks
// for: N reader goroutines (GetBalance, Call, FilterLogs,
// BlockByNumber) run against a continuous SendTransaction loop, and
// every read must observe a consistent (block, state-root) pair taken
// from a single view. Run under -race this also proves the published
// structures are data-race free.
func TestConcurrentReadersDuringSeals(t *testing.T) {
	bc, accs := devChain(t)
	counterAddr, art := deployCounter(t, bc, accs[0])
	incInput, _ := art.ABI.Pack("increment")
	countInput, _ := art.ABI.Pack("count")

	readers := 8
	sealsTarget := uint64(50)
	if testing.Short() {
		sealsTarget = 10
	}
	if race {
		sealsTarget = 25 // the hammer is ~10× slower instrumented
	}
	var stop atomic.Bool
	var sealed atomic.Uint64

	var wg sync.WaitGroup
	// Writer: continuous seal loop alternating transfers and contract
	// calls (so both balances and logs keep changing).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := uint64(0); i < sealsTarget; i++ {
			var tx *ethtypes.Transaction
			if i%2 == 0 {
				tx = signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1), nil, 21000)
			} else {
				tx = signedTx(t, bc, accs[0], &counterAddr, uint256.Zero, incInput, 200_000)
			}
			if _, err := bc.SendTransaction(tx); err != nil {
				t.Error(err)
				return
			}
			sealed.Add(1)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var reads int
			for !stop.Load() {
				v := bc.View()
				// Coherence: the head's committed root IS the view
				// state's root.
				if v.Head().Header.StateRoot != v.StateRoot() {
					t.Errorf("reader %d: header/state root mismatch at height %d",
						r, v.BlockNumber())
					return
				}
				switch reads % 4 {
				case 0:
					// Balance arithmetic within one view: block 1 is
					// the deploy, then the writer alternates transfer
					// (even blocks) and increment (odd blocks), so at
					// height h exactly h/2 one-ether transfers have
					// landed on accs[1].
					h := v.BlockNumber()
					transfers := int64(h / 2)
					want := ethtypes.Ether(100 + transfers)
					if got := v.GetBalance(accs[1].Address); got != want {
						t.Errorf("reader %d: height %d balance %s, want %s",
							r, h, got.String(), want.String())
						return
					}
				case 1:
					// eth_call vs event log within one view: the
					// counter's stored count always equals the number
					// of bumped events the same view can filter.
					res := v.Call(accs[1].Address, &counterAddr, countInput, uint256.Zero, 0)
					if res.Err != nil {
						t.Errorf("reader %d: call failed: %v", r, res.Err)
						return
					}
					count := uint256.SetBytes(res.Return)
					logs := v.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{counterAddr}})
					if count.Uint64() != uint64(len(logs)) {
						t.Errorf("reader %d: count %d but %d bumped logs in same view",
							r, count.Uint64(), len(logs))
						return
					}
				case 2:
					// Every log in the view points at a block the same
					// view can resolve.
					for _, l := range v.FilterLogs(FilterQuery{}) {
						b, ok := v.BlockByNumber(l.BlockNumber)
						if !ok {
							t.Errorf("reader %d: log at height %d unresolvable", r, l.BlockNumber)
							return
						}
						if b.Hash() != l.BlockHash {
							t.Errorf("reader %d: log blockHash mismatch at height %d", r, l.BlockNumber)
							return
						}
					}
				case 3:
					// Walk the header chain inside the view.
					h := v.BlockNumber()
					b, _ := v.BlockByNumber(h)
					if h > 0 {
						parent, ok := v.BlockByNumber(h - 1)
						if !ok || b.Header.ParentHash != parent.Hash() {
							t.Errorf("reader %d: broken parent link at %d", r, h)
							return
						}
					}
				}
				reads++
				// Yield so the writer makes progress on small
				// GOMAXPROCS — the test's point is reads during
				// seals, not reader-vs-reader contention.
				runtime.Gosched()
			}
		}(r)
	}
	wg.Wait()
	if sealed.Load() != sealsTarget {
		t.Fatalf("writer sealed %d/%d blocks", sealed.Load(), sealsTarget)
	}
}

// TestConcurrentReadersDuringMineBlock exercises the batch-mining seal
// path under concurrent lock-free readers.
func TestConcurrentReadersDuringMineBlock(t *testing.T) {
	bc, accs := devChain(t)
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		nonce := bc.GetNonce(accs[0].Address)
		for i := 0; i < 20; i++ {
			for j := 0; j < 3; j++ {
				tx := &ethtypes.Transaction{
					Nonce:    nonce,
					GasPrice: ethtypes.Gwei(1),
					Gas:      21000,
					To:       &accs[1].Address,
					Value:    uint256.One,
				}
				if err := tx.Sign(accs[0].Key, bc.ChainID()); err != nil {
					t.Error(err)
					return
				}
				if _, err := bc.SubmitTransaction(tx); err != nil {
					t.Error(err)
					return
				}
				nonce++
			}
			if _, failed := bc.MineBlock(); len(failed) != 0 {
				t.Errorf("mine failures: %v", failed)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := bc.View()
				if v.Head().Header.StateRoot != v.StateRoot() {
					t.Error("header/state root mismatch")
					return
				}
				// Receipts of every transaction in the head block must
				// resolve within the same view.
				for _, tx := range v.Head().Transactions {
					if _, ok := v.GetReceipt(tx.Hash()); !ok {
						t.Error("head-block receipt missing from its own view")
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentSendersAndMinerDuringReads runs three instant-seal
// writers, one batch miner and two lock-free readers at once: the two
// sealing paths interleave on bc.mu while views publish. Under -race it
// is their memory-safety gate; supply conservation and per-account
// nonces are the semantic cross-check.
func TestConcurrentSendersAndMinerDuringReads(t *testing.T) {
	accs := wallet.DevAccounts("senders and miner", 6)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	bc := New(g)

	perWriter := 12
	if race {
		perWriter = 6
	}
	var writers, readers sync.WaitGroup
	errc := make(chan error, 16)
	// Three instant-seal writers, each owning one account.
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			acc := accs[w]
			for i := 0; i < perWriter; i++ {
				tx := signedTx(t, bc, acc, &accs[3].Address, uint256.NewUint64(uint64(i+1)), nil, 21000)
				if _, err := bc.SendTransaction(tx); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// One batch miner over the remaining accounts, explicit nonces.
	writers.Add(1)
	go func() {
		defer writers.Done()
		n4, n5 := uint64(0), uint64(0)
		for i := 0; i < perWriter; i++ {
			for k := 0; k < 2; k++ {
				tx4 := rawTx(t, bc, accs[4], n4, &accs[5].Address, uint256.NewUint64(1), nil, 21000)
				n4++
				tx5 := rawTx(t, bc, accs[5], n5, &accs[4].Address, uint256.NewUint64(1), nil, 21000)
				n5++
				if _, err := bc.SubmitTransaction(tx4); err != nil {
					errc <- err
					return
				}
				if _, err := bc.SubmitTransaction(tx5); err != nil {
					errc <- err
					return
				}
			}
			if _, failed := bc.MineBlock(); len(failed) != 0 {
				errc <- fmt.Errorf("batch drops: %v", failed)
				return
			}
		}
	}()
	// Lock-free readers riding the published views until writers finish.
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := bc.View()
				v.GetBalance(accs[r].Address)
				if n := v.BlockNumber(); n > 0 {
					if _, ok := v.BlockByNumber(n); !ok {
						errc <- fmt.Errorf("head block %d not resolvable in its own view", n)
						return
					}
				}
				runtime.Gosched()
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if bc.TotalSupply() != ethtypes.Ether(600) {
		t.Fatalf("supply drifted: %s", ethtypes.FormatEther(bc.TotalSupply()))
	}
	for w := 0; w < 3; w++ {
		if n := bc.GetNonce(accs[w].Address); n != uint64(perWriter) {
			t.Fatalf("writer %d nonce %d, want %d", w, n, perWriter)
		}
	}
}

// TestPindex exercises the persistent index directly, including the
// depth-bounded flattening path.
func TestPindex(t *testing.T) {
	var p *pindex[int]
	if _, ok := p.get(ethtypes.Hash{}); ok {
		t.Fatal("empty index hit")
	}
	if p.count() != 0 {
		t.Fatal("empty count")
	}
	hash := func(i int) ethtypes.Hash {
		var h ethtypes.Hash
		h[0], h[1] = byte(i), byte(i>>8)
		return h
	}
	// Push well past the flattening depth, one entry per generation,
	// keeping handles to earlier generations.
	var gens []*pindex[int]
	for i := 0; i < 3*pindexMaxDepth; i++ {
		p = p.with1(hash(i), i)
		gens = append(gens, p)
	}
	if p.count() != 3*pindexMaxDepth {
		t.Fatalf("count %d, want %d", p.count(), 3*pindexMaxDepth)
	}
	for i := 0; i < 3*pindexMaxDepth; i++ {
		if v, ok := p.get(hash(i)); !ok || v != i {
			t.Fatalf("get(%d) = %v,%v", i, v, ok)
		}
	}
	// Earlier generations still answer exactly their prefix.
	for gi, g := range gens {
		if g.count() != gi+1 {
			t.Fatalf("generation %d count %d", gi, g.count())
		}
		if _, ok := g.get(hash(gi + 1)); ok {
			t.Fatalf("generation %d sees the future", gi)
		}
		if v, ok := g.get(hash(gi)); !ok || v != gi {
			t.Fatalf("generation %d lost its newest entry", gi)
		}
	}
	// Overwrites: newest generation wins, older handles keep the old
	// value.
	old := p
	p = p.with1(hash(0), 999)
	if v, _ := p.get(hash(0)); v != 999 {
		t.Fatal("overwrite not visible")
	}
	if v, _ := old.get(hash(0)); v != 0 {
		t.Fatal("overwrite leaked into published generation")
	}
	// with(empty) is a no-op returning the same generation.
	if p.with(nil) != p || p.with(map[ethtypes.Hash]int{}) != p {
		t.Fatal("empty with allocated a generation")
	}
}

// TestViewAfterRecovery: a persistent chain publishes its recovered
// head as a view on Open.
func TestViewAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	accs := wallet.DevAccounts("test seed", 3)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))

	bc, err := Open(g, WithPersistence(PersistConfig{DataDir: dir, NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1), nil, 21000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	wantRoot := bc.View().StateRoot()
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	bc2, err := Open(g, WithPersistence(PersistConfig{DataDir: dir, NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer bc2.Close()
	v := bc2.View()
	if v == nil {
		t.Fatal("no view after recovery")
	}
	if v.BlockNumber() != 4 {
		t.Fatalf("recovered view height %d", v.BlockNumber())
	}
	if v.StateRoot() != wantRoot {
		t.Fatal("recovered view root differs")
	}
	if v.Head().Header.StateRoot != v.StateRoot() {
		t.Fatal("recovered view incoherent")
	}
	if got := v.GetBalance(accs[1].Address); got != ethtypes.Ether(104) {
		t.Fatalf("recovered balance %s", got.String())
	}
}

// heldReads is what a reader asks a view about a set of accounts and
// one storage slot of each, at one moment.
type heldReads struct {
	root     ethtypes.Hash
	supply   uint256.Int
	balances []uint256.Int
	nonces   []uint64
	codes    []string
	slots    []uint256.Int
}

func readView(v *HeadView, addrs []ethtypes.Address) heldReads {
	r := heldReads{root: v.StateRoot(), supply: v.TotalSupply()}
	for _, a := range addrs {
		r.balances = append(r.balances, v.GetBalance(a))
		r.nonces = append(r.nonces, v.GetNonce(a))
		r.codes = append(r.codes, string(v.GetCode(a)))
		r.slots = append(r.slots, v.GetStorageAt(a, ethtypes.Hash{}))
	}
	return r
}

// TestViewHeldAcrossMerges: a head view held while 3·StorageLayers+2
// later blocks seal — each writing the Counter's slot, moving balances,
// creating accounts — answers exactly what it answered when published:
// balances, nonces, code and storage of every account it knew and of
// the ones created after it, its root and its total supply. In memory
// mode and in state-store mode with a two-account resident ceiling, so
// the view reads evicted accounts through the store while later blocks
// commit over them. Mutators on its state panic.
func TestViewHeldAcrossMerges(t *testing.T) {
	for _, mode := range []string{"memory", "state-store"} {
		t.Run(mode, func(t *testing.T) {
			accs := wallet.DevAccounts("held view", 3)
			var bc *Blockchain
			if mode == "memory" {
				bc = New(persistGenesis(accs))
			} else {
				bc = openPersistDisk(t, t.TempDir(), accs)
				defer bc.Close()
			}
			counter, art := deployCounter(t, bc, accs[0])
			inc, _ := art.ABI.Pack("increment")
			send := func(from wallet.Account, to ethtypes.Address, data []byte) {
				t.Helper()
				if _, err := bc.SendTransaction(signedTx(t, bc, from, &to, ethtypes.Gwei(1), data, 200_000)); err != nil {
					t.Fatal(err)
				}
			}
			fresh := func(i int) ethtypes.Address { return worldAddr(1_000_000 + i) }
			for i := 0; i < 3; i++ {
				send(accs[1], counter, inc)
			}
			addrs := []ethtypes.Address{accs[0].Address, accs[1].Address, accs[2].Address, counter, bc.coinbase}
			for i := 0; i < 3*state.StorageLayers+2; i++ {
				addrs = append(addrs, fresh(i))
			}
			held := bc.View()
			want := readView(held, addrs)

			for i := 0; i < 3*state.StorageLayers+2; i++ {
				send(accs[i%2], counter, inc)
				send(accs[2], fresh(i), nil)
			}
			if got := readView(held, addrs); !reflect.DeepEqual(got, want) {
				t.Fatalf("held view at block %d changed under %d later blocks:\n got %+v\nwant %+v", held.BlockNumber(), bc.BlockNumber()-held.BlockNumber(), got, want)
			}
			if readView(bc.View(), addrs).root == want.root {
				t.Fatal("the head did not move")
			}
			mustPanic := func(what string, fn func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a view's state did not panic", what)
					}
				}()
				fn()
			}
			mustPanic("AddBalance", func() { held.st.AddBalance(counter, uint256.One) })
			mustPanic("SetState", func() { held.st.SetState(counter, ethtypes.Hash{}, uint256.One) })
			mustPanic("Freeze", func() { held.st.Freeze() })
		})
	}
}
