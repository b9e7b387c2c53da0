package chain

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

func TestBatchMineBlock(t *testing.T) {
	bc, accs := devChain(t)
	// Queue three transfers from two senders, out of order.
	tx0 := signedTx(t, bc, accs[0], &accs[2].Address, uint256.NewUint64(100), nil, 21000)
	tx1 := &ethtypes.Transaction{Nonce: 1, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[2].Address, Value: uint256.NewUint64(200)}
	tx1.Sign(accs[0].Key, bc.ChainID())
	txB := signedTx(t, bc, accs[1], &accs[2].Address, uint256.NewUint64(300), nil, 21000)

	// Submit the second-nonce tx first: ordering must fix it.
	for _, tx := range []*ethtypes.Transaction{tx1, txB, tx0} {
		if _, err := bc.SubmitTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	if bc.PendingCount() != 3 {
		t.Fatalf("pending = %d", bc.PendingCount())
	}
	block, failed := bc.MineBlock()
	if len(failed) != 0 {
		t.Fatalf("failed txs: %v", failed)
	}
	if bc.PendingCount() != 0 {
		t.Fatal("pool not drained")
	}
	if len(block.Transactions) != 3 {
		t.Fatalf("block txs = %d", len(block.Transactions))
	}
	if block.Header.GasUsed != 3*21000 {
		t.Fatalf("block gas = %d", block.Header.GasUsed)
	}
	// Receipts carry per-block indexes and cumulative gas.
	seen := map[uint]bool{}
	for _, tx := range block.Transactions {
		rcpt, ok := bc.GetReceipt(tx.Hash())
		if !ok || !rcpt.Succeeded() {
			t.Fatalf("receipt for %s", tx.Hash())
		}
		seen[rcpt.TxIndex] = true
		if rcpt.CumulativeGasUsed != uint64(rcpt.TxIndex+1)*21000 {
			t.Fatalf("cumulative gas at idx %d = %d", rcpt.TxIndex, rcpt.CumulativeGasUsed)
		}
	}
	if len(seen) != 3 {
		t.Fatal("tx indexes not distinct")
	}
	if bc.GetBalance(accs[2].Address).Sub(ethtypes.Ether(100)).Uint64() != 600 {
		t.Fatal("transfers not applied")
	}
}

func TestMineBlockDropsBadNonce(t *testing.T) {
	bc, accs := devChain(t)
	good := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	gap := &ethtypes.Transaction{Nonce: 5, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[1].Address, Value: uint256.One}
	gap.Sign(accs[0].Key, bc.ChainID())
	bc.SubmitTransaction(good)
	bc.SubmitTransaction(gap)
	block, failed := bc.MineBlock()
	if len(block.Transactions) != 1 {
		t.Fatalf("included = %d", len(block.Transactions))
	}
	if err, ok := failed[gap.Hash()]; !ok || err == nil {
		t.Fatal("gap nonce not reported")
	}
}

func TestMineEmptyBlock(t *testing.T) {
	bc, _ := devChain(t)
	bc.AdjustTime(500)
	block, failed := bc.MineBlock()
	if len(failed) != 0 || len(block.Transactions) != 0 {
		t.Fatal("empty mine")
	}
	if block.Number() != 1 {
		t.Fatal("height")
	}
	if block.Header.Time < 1_700_000_000+500 {
		t.Fatal("time adjustment not applied")
	}
}

func TestSubmitDuplicateRejected(t *testing.T) {
	bc, accs := devChain(t)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SubmitTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.SubmitTransaction(tx); err != ErrKnownTransaction {
		t.Fatalf("dup: %v", err)
	}
	bc.MineBlock()
	// Already mined: resubmission rejected too.
	if _, err := bc.SubmitTransaction(tx); err != ErrKnownTransaction {
		t.Fatalf("mined dup: %v", err)
	}
}

func TestTraceCall(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	res, trace := bc.TraceCall(accs[0].Address, &addr, input, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(trace.Logs) == 0 {
		t.Fatal("no trace steps")
	}
	if trace.OpCount["SSTORE"] == 0 {
		t.Fatalf("increment trace lacks SSTORE: %v", trace.OpCount)
	}
	// The result counts the steps the tracer recorded, and an untraced
	// call counts the same.
	if res.Steps != uint64(len(trace.Logs)) {
		t.Fatalf("result counts %d steps, trace has %d", res.Steps, len(trace.Logs))
	}
	if plain := bc.Call(accs[0].Address, &addr, input, uint256.Zero, 0); plain.Steps != res.Steps || plain.GasUsed != res.GasUsed {
		t.Fatalf("untraced call: %d steps, %d gas; traced: %d, %d", plain.Steps, plain.GasUsed, res.Steps, res.GasUsed)
	}
	// Tracing is read-only: state untouched.
	q, _ := art.ABI.Pack("count")
	out := bc.Call(accs[0].Address, &addr, q, uint256.Zero, 0)
	if uint256.SetBytes(out.Return).Uint64() != 0 {
		t.Fatal("trace mutated state")
	}
	// Tracing a reverting call captures the fault.
	failIn, _ := art.ABI.Pack("fail")
	res, trace = bc.TraceCall(accs[0].Address, &addr, failIn, 0)
	if res.Err == nil {
		t.Fatal("revert not reported")
	}
	if trace.OpCount["REVERT"] == 0 {
		t.Fatal("REVERT not traced")
	}
}

func TestBatchAndInstantInterleave(t *testing.T) {
	bc, accs := devChain(t)
	// Instant tx, then batch, then instant again: nonces stay coherent.
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	tx2 := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	bc.SubmitTransaction(tx2)
	if _, failed := bc.MineBlock(); len(failed) != 0 {
		t.Fatalf("batch failed: %v", failed)
	}
	tx3 := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx3); err != nil {
		t.Fatal(err)
	}
	if bc.GetNonce(accs[0].Address) != 3 {
		t.Fatalf("nonce = %d", bc.GetNonce(accs[0].Address))
	}
	if bc.BlockNumber() != 3 {
		t.Fatalf("height = %d", bc.BlockNumber())
	}
}

// rawTx signs a transaction with an explicit nonce (the generators
// track nonces themselves so they can deliberately produce invalid ones).
func rawTx(t testing.TB, bc *Blockchain, acc wallet.Account, nonce uint64, to *ethtypes.Address, value uint256.Int, data []byte, gas uint64) *ethtypes.Transaction {
	t.Helper()
	tx := &ethtypes.Transaction{
		Nonce:    nonce,
		GasPrice: ethtypes.Gwei(1),
		Gas:      gas,
		To:       to,
		Value:    value,
		Data:     data,
	}
	if err := tx.Sign(acc.Key, bc.ChainID()); err != nil {
		t.Fatal(err)
	}
	return tx
}

// batchEnv is what a batch generator draws on: the batch chain (for
// pre-batch nonces), its accounts, the shared Counter and its inputs.
type batchEnv struct {
	bc        *Blockchain
	accs      []wallet.Account
	counter   ethtypes.Address
	inc, fail []byte
	rng       *rand.Rand
}

// mixedBatch draws 18 transactions: transfers with overlapping senders
// and recipients, shared-slot Counter.increment calls, fail() reverts
// (included with a failed receipt), nonce gaps and underfunded
// transfers (dropped at their sort position).
func mixedBatch(t *testing.T, e *batchEnv) []*ethtypes.Transaction {
	// Local nonce view, bumped only for transactions expected to be
	// admissible at their sort position.
	nonces := make(map[ethtypes.Address]uint64, len(e.accs))
	for _, a := range e.accs {
		nonces[a.Address] = e.bc.GetNonce(a.Address)
	}
	seen := map[ethtypes.Hash]bool{}
	var txs []*ethtypes.Transaction
	for len(txs) < 18 {
		acc := e.accs[e.rng.Intn(len(e.accs))]
		to := e.accs[e.rng.Intn(len(e.accs))].Address
		var tx *ethtypes.Transaction
		switch k := e.rng.Intn(10); {
		case k < 4:
			tx = rawTx(t, e.bc, acc, nonces[acc.Address], &to, uint256.NewUint64(1+e.rng.Uint64()%1_000_000), nil, 21000)
			nonces[acc.Address]++
		case k < 7:
			tx = rawTx(t, e.bc, acc, nonces[acc.Address], &e.counter, uint256.Zero, e.inc, 200_000)
			nonces[acc.Address]++
		case k < 8:
			tx = rawTx(t, e.bc, acc, nonces[acc.Address], &e.counter, uint256.Zero, e.fail, 200_000)
			nonces[acc.Address]++
		case k < 9:
			// Usually dropped; occasionally healed by later transactions
			// of the same sender in the same batch.
			tx = rawTx(t, e.bc, acc, nonces[acc.Address]+3, &to, uint256.One, nil, 21000)
		default:
			// Dropped at its slot; later same-nonce transactions of this
			// sender then follow it in sort order.
			tx = rawTx(t, e.bc, acc, nonces[acc.Address], &to, ethtypes.Ether(100_000), nil, 21000)
		}
		if !seen[tx.Hash()] { // two identical nonce-gap draws sign to one hash
			seen[tx.Hash()] = true
			txs = append(txs, tx)
		}
	}
	return txs
}

// errClass maps a drop or refusal onto its sentinel error.
func errClass(err error) error {
	for _, c := range []error{ErrNonceTooLow, ErrNonceTooHigh, ErrInsufficientFunds, ErrIntrinsicGas} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// mineAgainstInstant mines txs as one MineBlock batch on batch, and on
// instant sends the same transactions one by one through
// SendTransaction, one block each, in MineBlock's order — (sender,
// nonce), then submission. The two must be the same state transition:
// identical world state, the transactions SendTransaction refused
// dropped with the same error class, and the rest included in that
// order with the same receipts. It returns the drops by class.
func mineAgainstInstant(t *testing.T, batch, instant *Blockchain, txs []*ethtypes.Transaction) map[error]int {
	t.Helper()
	for _, tx := range txs {
		if _, err := batch.SubmitTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	block, dropped := batch.MineBlock()

	senders := make(map[ethtypes.Hash]ethtypes.Address, len(txs))
	for _, tx := range txs {
		senders[tx.Hash()], _ = tx.Sender(batch.ChainID())
	}
	order := append([]*ethtypes.Transaction(nil), txs...)
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := senders[order[i].Hash()], senders[order[j].Hash()]
		if c := bytes.Compare(si[:], sj[:]); c != 0 {
			return c < 0
		}
		return order[i].Nonce < order[j].Nonce
	})
	var accepted []*ethtypes.Transaction
	refused := map[ethtypes.Hash]error{}
	for _, tx := range order {
		if _, err := instant.SendTransaction(tx); err != nil {
			refused[tx.Hash()] = err
			continue
		}
		accepted = append(accepted, tx)
	}

	if !bytes.Equal(batch.st.EncodeSnapshot(), instant.st.EncodeSnapshot()) {
		t.Fatal("world state after the batch differs from instant-sealing it")
	}
	classes := map[error]int{}
	if len(dropped) != len(refused) {
		t.Fatalf("batch dropped %d (%v), instant refused %d (%v)", len(dropped), dropped, len(refused), refused)
	}
	for h, err := range refused {
		got, ok := dropped[h]
		if !ok {
			t.Fatalf("tx %s refused by SendTransaction (%v), included by MineBlock", h, err)
		}
		if errClass(got) != errClass(err) {
			t.Fatalf("tx %s: MineBlock dropped it with %v, SendTransaction with %v", h, got, err)
		}
		classes[errClass(err)]++
	}
	if len(block.Transactions) != len(accepted) {
		t.Fatalf("batch included %d, instant sealed %d", len(block.Transactions), len(accepted))
	}
	var cumulative uint64
	for i, tx := range block.Transactions {
		if tx.Hash() != accepted[i].Hash() {
			t.Fatalf("position %d: batch %s, instant %s", i, tx.Hash(), accepted[i].Hash())
		}
		br, _ := batch.GetReceipt(tx.Hash())
		ir, _ := instant.GetReceipt(tx.Hash())
		if br.Status != ir.Status || br.GasUsed != ir.GasUsed || br.RevertReason != ir.RevertReason || len(br.Logs) != len(ir.Logs) {
			t.Fatalf("tx %s receipts differ:\nbatch   %+v\ninstant %+v", tx.Hash(), br, ir)
		}
		cumulative += br.GasUsed
		if br.TxIndex != uint(i) || br.CumulativeGasUsed != cumulative {
			t.Fatalf("tx %s: index %d cumulative %d, want %d and %d", tx.Hash(), br.TxIndex, br.CumulativeGasUsed, i, cumulative)
		}
	}
	if block.Header.GasUsed != cumulative {
		t.Fatalf("header gas %d, receipts sum to %d", block.Header.GasUsed, cumulative)
	}
	return classes
}

// TestMineBlockMatchesInstantSeal is the batch-semantics property: a
// MineBlock batch is the same state transition as instant-sealing its
// transactions one by one in MineBlock's sort order. Randomised mixed
// batches, a 16-deep nonce chain and eight senders hammering one
// storage slot are its rows.
func TestMineBlockMatchesInstantSeal(t *testing.T) {
	mixedRounds := 6
	if race {
		mixedRounds = 3
	}
	for _, row := range []struct {
		name      string
		accounts  int
		rounds    int
		gen       func(*testing.T, *batchEnv) []*ethtypes.Transaction
		wantCount uint64 // Counter.count on both chains at the end (0: unchecked)
		wantDrops []error
	}{
		{"mixed", 6, mixedRounds, mixedBatch, 0, []error{ErrNonceTooHigh, ErrInsufficientFunds}},
		{"nonce chain 16 deep", 2, 1, func(t *testing.T, e *batchEnv) []*ethtypes.Transaction {
			n := e.bc.GetNonce(e.accs[0].Address)
			var txs []*ethtypes.Transaction
			for k := uint64(0); k < 16; k++ {
				txs = append(txs, rawTx(t, e.bc, e.accs[0], n+k, &e.accs[1].Address, uint256.NewUint64(k+1), nil, 21000))
			}
			return txs
		}, 0, nil},
		{"8 senders x 4 increments", 8, 3, func(t *testing.T, e *batchEnv) []*ethtypes.Transaction {
			var txs []*ethtypes.Transaction
			for _, acc := range e.accs {
				n := e.bc.GetNonce(acc.Address)
				for k := uint64(0); k < 4; k++ {
					txs = append(txs, rawTx(t, e.bc, acc, n+k, &e.counter, uint256.Zero, e.inc, 200_000))
				}
			}
			return txs
		}, 96, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			accs := wallet.DevAccounts("batch vs instant "+row.name, row.accounts)
			mk := func() *Blockchain {
				g := DefaultGenesis()
				g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
				return New(g)
			}
			batch, instant := mk(), mk()
			// The same deployer and nonce put Counter at one address on both.
			counter, art := deployCounter(t, batch, accs[0])
			if c, _ := deployCounter(t, instant, accs[0]); c != counter {
				t.Fatalf("Counter at %s and %s", counter, c)
			}
			inc, _ := art.ABI.Pack("increment")
			fail, _ := art.ABI.Pack("fail")
			env := &batchEnv{bc: batch, accs: accs, counter: counter, inc: inc, fail: fail, rng: rand.New(rand.NewSource(0xC0FFEE))}

			drops := map[error]int{}
			for round := 0; round < row.rounds; round++ {
				for class, n := range mineAgainstInstant(t, batch, instant, row.gen(t, env)) {
					drops[class] += n
				}
			}
			for _, class := range row.wantDrops {
				if drops[class] == 0 {
					t.Errorf("no batch exercised a %v drop (drops: %v)", class, drops)
				}
			}
			if row.wantCount > 0 {
				q, _ := art.ABI.Pack("count")
				for _, bc := range []*Blockchain{batch, instant} {
					vals, err := art.ABI.Unpack("count", bc.Call(accs[0].Address, &counter, q, uint256.Zero, 0).Return)
					if err != nil || vals[0].(uint256.Int).Uint64() != row.wantCount {
						t.Fatalf("count = %v (%v), want %d", vals, err, row.wantCount)
					}
				}
			}
		})
	}
}

// TestExecWorkersOption checks the recovery-pool plumbing: explicit
// widths are honoured, zero means min(GOMAXPROCS, 8), and inline and
// pooled recovery set the same senders and report the first signature
// that does not recover.
func TestExecWorkersOption(t *testing.T) {
	accs := wallet.DevAccounts("workers opt", 2)
	mk := func(opts ...Option) *Blockchain {
		g := DefaultGenesis()
		g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
		return New(g, opts...)
	}
	if got := mk(WithExecWorkers(3)).execWorkerCount(); got != 3 {
		t.Fatalf("explicit workers = %d", got)
	}
	if got := mk(WithExecWorkers(1)).execWorkerCount(); got != 1 {
		t.Fatalf("inline workers = %d", got)
	}
	if got := mk().execWorkerCount(); got < 1 || got > maxExecWorkers {
		t.Fatalf("auto workers = %d", got)
	}

	signer := mk()
	var signed []*ethtypes.Transaction
	for n := uint64(0); n < 6; n++ {
		signed = append(signed, rawTx(t, signer, accs[n%2], n/2, &accs[(n+1)%2].Address, uint256.One, nil, 21000))
	}
	const bad = 3
	for _, workers := range []int{1, 4} {
		// Fresh decodes, so every Sender call is a real recovery.
		metas := make([]txMeta, len(signed))
		for i, tx := range signed {
			metas[i] = txMeta{tx: freshDecode(t, tx)}
		}
		metas[bad].tx.S = big.NewInt(0)
		if got := mk(WithExecWorkers(workers)).recoverSenders(metas); got != bad {
			t.Fatalf("workers %d: first unrecovered sender at %d, want %d", workers, got, bad)
		}
		for i, m := range metas {
			if i != bad && m.sender != accs[i%2].Address {
				t.Fatalf("workers %d: tx %d recovered as %s", workers, i, m.sender)
			}
		}
	}
}
