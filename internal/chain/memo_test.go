package chain

import (
	"sync"
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/blockdb"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// Tests for the "computed once" memos on the read path (DESIGN §4b):
// the block-hash memo across every way a block comes to exist, and the
// count of header hashes and code analyses a run of eth_calls performs.

var (
	testRent    = ethtypes.Ether(1)
	testDeposit = ethtypes.Ether(2)
)

// deployRental deploys the paper's BaseRental from landlord and returns
// its address and ABI.
func deployRental(t testing.TB, bc *Blockchain, landlord wallet.Account) (ethtypes.Address, *abi.ABI) {
	t.Helper()
	art := contracts.MustArtifact("BaseRental")
	args, err := art.ABI.PackConstructor(testRent, testDeposit, uint64(12), "1011AB-7")
	if err != nil {
		t.Fatal(err)
	}
	code := append(append([]byte(nil), art.Bytecode...), args...)
	hash, err := bc.SendTransaction(signedTx(t, bc, landlord, nil, uint256.Zero, code, 5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	if !rcpt.Succeeded() || rcpt.ContractAddress == nil {
		t.Fatalf("rental deploy failed: %+v", rcpt)
	}
	return *rcpt.ContractAddress, art.ABI
}

// rentalLifecycle runs deploy → confirm → 2×pay → terminate, one block
// per transaction, and returns the rental's address.
func rentalLifecycle(t testing.TB, bc *Blockchain, landlord, tenant wallet.Account) ethtypes.Address {
	t.Helper()
	rental, rentalABI := deployRental(t, bc, landlord)
	steps := []struct {
		method string
		value  uint256.Int
	}{
		{"confirmAgreement", testDeposit},
		{"payRent", testRent},
		{"payRent", testRent},
		{"terminateContract", uint256.Zero},
	}
	for _, s := range steps {
		data, err := rentalABI.Pack(s.method)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := bc.SendTransaction(signedTx(t, bc, tenant, &rental, s.value, data, 500_000))
		if err != nil {
			t.Fatalf("%s: %v", s.method, err)
		}
		if rcpt, _ := bc.GetReceipt(hash); !rcpt.Succeeded() {
			t.Fatalf("%s reverted: %s", s.method, rcpt.RevertReason)
		}
	}
	return rental
}

// mineSixteen seals one block of 16 transfers, eight from each sender.
func mineSixteen(t testing.TB, bc *Blockchain, a, b wallet.Account) {
	t.Helper()
	for _, from := range []wallet.Account{a, b} {
		nonce := bc.GetNonce(from.Address)
		for i := uint64(0); i < 8; i++ {
			to := ethtypes.Address{0xee, byte(i)}
			if _, err := bc.SubmitTransaction(rawTx(t, bc, from, nonce+i, &to, uint256.One, nil, 21000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	block, failed := bc.MineBlock()
	if len(failed) != 0 || len(block.Transactions) != 16 {
		t.Fatalf("batch block: %d txs, failures %v", len(block.Transactions), failed)
	}
}

// checkBlockHashes walks every block of the view: the memoised hash must
// equal the un-memoised header hash, link to its parent and resolve back
// through the hash index. It returns the hashes by height.
func checkBlockHashes(t *testing.T, v *HeadView) []ethtypes.Hash {
	t.Helper()
	hashes := make([]ethtypes.Hash, 0, v.BlockNumber()+1)
	for n := uint64(0); n <= v.BlockNumber(); n++ {
		b, ok := v.BlockByNumber(n)
		if !ok {
			t.Fatalf("block %d missing", n)
		}
		fresh := b.Header.Hash()
		// Twice: a read-through block computes on the first call and
		// answers from its memo on the second.
		if b.Hash() != fresh || b.Hash() != fresh {
			t.Fatalf("block %d: Hash() = %s, header hash %s", n, b.Hash(), fresh)
		}
		if n > 0 && b.Header.ParentHash != hashes[n-1] {
			t.Fatalf("block %d: parent hash %s, parent is %s", n, b.Header.ParentHash, hashes[n-1])
		}
		if byHash, ok := v.BlockByHash(fresh); !ok || byHash.Number() != n {
			t.Fatalf("block %d not found by its hash", n)
		}
		rcpts := v.ReceiptsOf(n)
		if len(rcpts) != len(b.Transactions) {
			t.Fatalf("block %d: %d receipts for %d transactions", n, len(rcpts), len(b.Transactions))
		}
		for i, rcpt := range rcpts {
			if rcpt.BlockHash != fresh || rcpt.TxHash != b.Transactions[i].Hash() {
				t.Fatalf("block %d: receipt %d stamped %s for tx %s, want %s for %s", n, i, rcpt.BlockHash, rcpt.TxHash, fresh, b.Transactions[i].Hash())
			}
		}
		hashes = append(hashes, fresh)
	}
	return hashes
}

// TestBlockHashMemoEveryPath builds the same chain — a rental lifecycle
// and a 16-transaction block — on a memory node and on a durable one,
// restarts the durable one with old blocks evicted
// to the log, and decodes the log directly: on every path a block's
// memoised hash is its header hash.
func TestBlockHashMemoEveryPath(t *testing.T) {
	accs := wallet.DevAccounts("persist test", 3)
	build := func(bc *Blockchain) {
		rentalLifecycle(t, bc, accs[0], accs[1])
		mineSixteen(t, bc, accs[1], accs[2])
		rentalLifecycle(t, bc, accs[2], accs[0])
	}

	mem := New(persistGenesis(accs))
	build(mem)
	want := checkBlockHashes(t, mem.View())

	dir := t.TempDir()
	cfg := PersistConfig{DataDir: dir, SnapshotInterval: 4, SegmentSize: 4096, NoSync: true}
	durable, err := Open(persistGenesis(accs), WithPersistence(cfg))
	if err != nil {
		t.Fatal(err)
	}
	build(durable)
	got := checkBlockHashes(t, durable.View())
	if len(got) != len(want) {
		t.Fatalf("durable chain has %d blocks, memory %d", len(got), len(want))
	}
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("block %d: durable hash %s, memory %s", n, got[n], want[n])
		}
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: blocks are installed from records or replayed, and all but
	// the newest four read back through a blockdb decode on every access.
	cfg.RetainBlocks = 4
	reopened, err := Open(persistGenesis(accs), WithPersistence(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rentalLifecycle(t, reopened, accs[0], accs[1]) // seals past RetainBlocks, so eviction runs
	after := checkBlockHashes(t, reopened.View())
	for n := range want {
		if after[n] != want[n] {
			t.Fatalf("block %d: hash %s after restart, %s before", n, after[n], want[n])
		}
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal decoded directly.
	db, recs, _, err := blockdb.Open(dir, blockdb.Options{SegmentSize: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if len(recs) != len(after) {
		t.Fatalf("journal holds %d records, chain %d blocks", len(recs), len(after))
	}
	for n, rec := range recs {
		if b := rec.Block(); b.Hash() != rec.Header.Hash() || b.Hash() != after[n] {
			t.Fatalf("record %d: Hash() = %s, header hash %s, chain %s", n, b.Hash(), rec.Header.Hash(), after[n])
		}
	}
}

// TestEthCallHashesAndAnalysesOnce is the regression tripwire for the
// fixed costs PR 16 took out of eth_call: after the first call on a view,
// further calls hash no header and analyse no code, however many run.
func TestEthCallHashesAndAnalysesOnce(t *testing.T) {
	bc, accs := devChain(t)
	rental, rentalABI := deployRental(t, bc, accs[0])
	data, err := rentalABI.Pack("rent")
	if err != nil {
		t.Fatal(err)
	}
	view := bc.View()
	call := func() {
		res := view.Call(accs[1].Address, &rental, data, uint256.Zero, 0)
		if res.Err != nil || uint256.SetBytes(res.Return) != testRent {
			t.Fatalf("rent() = %x, err %v", res.Return, res.Err)
		}
	}
	call()
	hashes, analyses := ethtypes.HeaderHashes(), evm.CodeAnalyses()
	for i := 0; i < 100; i++ {
		call()
	}
	if n := ethtypes.HeaderHashes() - hashes; n != 0 {
		t.Errorf("100 eth_calls on one view computed %d header hashes, want 0", n)
	}
	if n := evm.CodeAnalyses() - analyses; n != 0 {
		t.Errorf("100 eth_calls on one view ran %d code analyses, want 0", n)
	}

	// A new head costs its seal one header hash and the readers none; a
	// second rental with the same code costs no analysis.
	rental2, _ := deployRental(t, bc, accs[0])
	hashes, analyses = ethtypes.HeaderHashes(), evm.CodeAnalyses()
	for _, to := range []ethtypes.Address{rental, rental2} {
		if res := bc.Call(accs[1].Address, &to, data, uint256.Zero, 0); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if h, a := ethtypes.HeaderHashes()-hashes, evm.CodeAnalyses()-analyses; h != 0 || a != 0 {
		t.Errorf("calls on the new head: %d header hashes, %d code analyses, want 0 and 0", h, a)
	}
}

// TestEthCallDuringSealingRace runs eight goroutines of contract
// eth_calls against a loop that keeps deploying and paying rentals: the
// block-hash memo and the analysis cache are read while blocks seal and
// code is installed. make check runs it under the race detector.
func TestEthCallDuringSealingRace(t *testing.T) {
	bc, accs := devChain(t)
	rental, rentalABI := deployRental(t, bc, accs[0])
	data, _ := rentalABI.Pack("rent")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := bc.View()
				res := v.Call(accs[1].Address, &rental, data, uint256.Zero, 0)
				if res.Err != nil || uint256.SetBytes(res.Return) != testRent {
					t.Errorf("rent() = %x, err %v", res.Return, res.Err)
					return
				}
				if v.Head().Hash() != v.Head().Header.Hash() {
					t.Error("head hash memo disagrees with the header")
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		rentalLifecycle(t, bc, accs[0], accs[2])
	}
	close(stop)
	wg.Wait()
}

// TestTransactionHashedOnce pins the seal path's transaction hashing:
// admission hashes a transaction once, and execution, its logs and
// receipt, the block's transaction root and the position index take
// that hash — on both sealing paths. Read-back by hash hashes nothing.
func TestTransactionHashedOnce(t *testing.T) {
	bc, accs := devChain(t)
	counter, art := deployCounter(t, bc, accs[0])
	inc, _ := art.ABI.Pack("increment")

	tx := signedTx(t, bc, accs[0], &counter, uint256.Zero, inc, 200_000)
	before := ethtypes.TxHashes()
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if n := ethtypes.TxHashes() - before; n != 1 {
		t.Errorf("SendTransaction hashed the transaction %d times, want 1", n)
	}
	before = ethtypes.TxHashes()
	rcpt, ok := bc.GetReceipt(hash)
	if !ok || rcpt.TxHash != hash || len(rcpt.Logs) != 1 || rcpt.Logs[0].TxHash != hash {
		t.Fatalf("receipt of %s: %+v", hash, rcpt)
	}
	if got, ok := bc.GetTransaction(hash); !ok || got != tx {
		t.Fatal("the sealed transaction is not indexed under its hash")
	}
	if n := ethtypes.TxHashes() - before; n != 0 {
		t.Errorf("read-back hashed %d transactions, want 0", n)
	}

	var txs []*ethtypes.Transaction
	for i := uint64(0); i < 2; i++ {
		next := signedTx(t, bc, accs[1], &counter, uint256.Zero, inc, 200_000)
		next.Nonce += i
		if err := next.Sign(accs[1].Key, bc.ChainID()); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, next)
	}
	before = ethtypes.TxHashes()
	for _, next := range txs {
		if _, err := bc.SubmitTransaction(next); err != nil {
			t.Fatal(err)
		}
	}
	block, failed := bc.MineBlock()
	if len(failed) != 0 || len(block.Transactions) != 2 {
		t.Fatalf("mined %d transactions, dropped %v", len(block.Transactions), failed)
	}
	if n := ethtypes.TxHashes() - before; n != 2 {
		t.Errorf("two submissions and MineBlock hashed %d times, want 2", n)
	}
	for _, next := range txs {
		if _, ok := bc.GetReceipt(next.Hash()); !ok {
			t.Fatalf("mined transaction %s not indexed", next.Hash())
		}
	}
}
