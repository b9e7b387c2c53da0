package chain

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// The head view keeps each sealed block once, with its receipts beside
// it; the transaction hash index holds positions. These tests check
// that an evicted block leaves nothing behind in memory and that every
// read through a position — receipts, transactions, log ranges — agrees
// with the blocks themselves, resident or evicted.

// openRetaining opens a durable chain in dir keeping retain blocks
// resident (0 keeps them all).
func openRetaining(t *testing.T, dir string, accs []wallet.Account, retain uint64) *Blockchain {
	t.Helper()
	bc, err := Open(persistGenesis(accs), WithPersistence(PersistConfig{
		DataDir:      dir,
		SegmentSize:  4096,
		NoSync:       true,
		RetainBlocks: retain,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

// sealWatched seals one transfer and sets finalizers on the transaction
// and its receipt; the flags turn true once each is collected. Nothing
// of either escapes this function.
func sealWatched(t *testing.T, bc *Blockchain, from wallet.Account, to ethtypes.Address, txFreed, rcptFreed *atomic.Bool) {
	t.Helper()
	tx := signedTx(t, bc, from, &to, uint256.NewUint64(1), nil, 21000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, ok := bc.GetReceipt(hash)
	if !ok {
		t.Fatal("no receipt for the watched transfer")
	}
	runtime.SetFinalizer(tx, func(*ethtypes.Transaction) { txFreed.Store(true) })
	runtime.SetFinalizer(rcpt, func(*ethtypes.Receipt) { rcptFreed.Store(true) })
}

// TestEvictedBlocksAreCollectable: once a block is evicted, its
// transaction and receipt are garbage — no hash index keeps them alive.
func TestEvictedBlocksAreCollectable(t *testing.T) {
	accs := wallet.DevAccounts("evict collect", 2)
	bc := openRetaining(t, t.TempDir(), accs, 4)
	defer bc.Close()

	var txFreed, rcptFreed atomic.Bool
	sealWatched(t, bc, accs[0], accs[1].Address, &txFreed, &rcptFreed)
	for i := 0; i < 64; i++ {
		tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.NewUint64(1), nil, 21000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	if base := bc.View().blocksBase; base < 2 {
		t.Fatalf("block 1 was not evicted (base %d)", base)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !(txFreed.Load() && rcptFreed.Load()) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !txFreed.Load() || !rcptFreed.Load() {
		t.Fatalf("evicted block still reachable: transaction collected %v, receipt collected %v", txFreed.Load(), rcptFreed.Load())
	}
}

// logKey renders every field of a log, so logs read back from the block
// log compare equal to the ones sealed.
func logKey(l *ethtypes.Log) string {
	return fmt.Sprintf("%x|%x|%x|%d|%x|%x|%d|%d", l.Address, l.Topics, l.Data, l.BlockNumber, l.BlockHash, l.TxHash, l.TxIndex, l.Index)
}

func receiptKey(r *ethtypes.Receipt) string {
	s := fmt.Sprintf("%x|%d|%d|%x|%x|%v|%v|%d|%d|%d|%q", r.TxHash, r.TxIndex, r.BlockNumber, r.BlockHash, r.From, r.To, r.ContractAddress, r.GasUsed, r.CumulativeGasUsed, r.Status, r.RevertReason)
	for _, l := range r.Logs {
		s += "\n" + logKey(l)
	}
	return s
}

// flatChain is the test's own copy of a sealed chain: every
// transaction with its block and receipt, and every log in order.
type flatChain struct {
	head uint64
	txs  map[ethtypes.Hash]flatTx
	logs []*ethtypes.Log
}

type flatTx struct {
	enc  []byte
	rcpt string
}

// flatten reads every block of v (all resident) into a flatChain.
func flatten(t *testing.T, v *HeadView) *flatChain {
	t.Helper()
	fc := &flatChain{head: v.BlockNumber(), txs: map[ethtypes.Hash]flatTx{}}
	for n := uint64(0); n <= fc.head; n++ {
		b, ok := v.BlockByNumber(n)
		if !ok {
			t.Fatalf("block %d missing", n)
		}
		rcpts := v.ReceiptsOf(n)
		for i, tx := range b.Transactions {
			fc.txs[tx.Hash()] = flatTx{enc: tx.Encode(), rcpt: receiptKey(rcpts[i])}
			fc.logs = append(fc.logs, rcpts[i].Logs...)
		}
	}
	return fc
}

// scan is the reference log query: the flat list, filtered field by
// field.
func (fc *flatChain) scan(q FilterQuery) []string {
	to := fc.head
	if q.ToBlock != nil && *q.ToBlock < to {
		to = *q.ToBlock
	}
	var out []string
	for _, l := range fc.logs {
		if l.BlockNumber < q.FromBlock || l.BlockNumber > to {
			continue
		}
		if len(q.Addresses) > 0 {
			hit := false
			for _, a := range q.Addresses {
				hit = hit || a == l.Address
			}
			if !hit {
				continue
			}
		}
		ok := true
		for i, alts := range q.Topics {
			if len(alts) == 0 {
				continue
			}
			hit := false
			for _, h := range alts {
				hit = hit || (i < len(l.Topics) && l.Topics[i] == h)
			}
			ok = ok && hit
		}
		if ok {
			out = append(out, logKey(l))
		}
	}
	return out
}

// checkAgainstFlat compares every position read and every log range of
// bc against fc.
func checkAgainstFlat(t *testing.T, bc *Blockchain, fc *flatChain, queries []FilterQuery) {
	t.Helper()
	v := bc.View()
	if v.BlockNumber() != fc.head {
		t.Fatalf("head %d, want %d", v.BlockNumber(), fc.head)
	}
	for h, want := range fc.txs {
		tx, ok := v.GetTransaction(h)
		if !ok || string(tx.Encode()) != string(want.enc) {
			t.Fatalf("transaction %s: found %v, or differs", h, ok)
		}
		rcpt, ok := v.GetReceipt(h)
		if !ok || receiptKey(rcpt) != want.rcpt {
			t.Fatalf("receipt %s: found %v\n got %s\nwant %s", h, ok, receiptKey(rcpt), want.rcpt)
		}
	}
	if _, ok := v.GetReceipt(ethtypes.Hash{1}); ok {
		t.Fatal("unknown hash has a receipt")
	}
	if _, ok := v.GetTransaction(ethtypes.Hash{1}); ok {
		t.Fatal("unknown hash has a transaction")
	}
	for from := uint64(0); from <= fc.head+2; from++ {
		for to := int64(-1); to <= int64(fc.head+2); to++ {
			for _, q := range queries {
				q.FromBlock = from
				if to >= 0 {
					upper := uint64(to)
					q.ToBlock = &upper
				}
				want := fc.scan(q)
				got := v.FilterLogs(q)
				if len(got) != len(want) {
					t.Fatalf("from %d to %d %+v: %d logs, want %d", from, to, q, len(got), len(want))
				}
				for i, l := range got {
					if logKey(l) != want[i] {
						t.Fatalf("from %d to %d: log %d\n got %s\nwant %s", from, to, i, logKey(l), want[i])
					}
				}
			}
		}
	}
}

// TestFilterLogsMatchesFlatScan builds one chain with logs in most
// blocks and reads it back with retention off and with four blocks
// resident: every (from, to) range, with and without address and topic
// filters, equals a flat scan of every receipt's logs, and every sealed
// hash reads back its transaction and receipt.
func TestFilterLogsMatchesFlatScan(t *testing.T) {
	accs := wallet.DevAccounts("flat scan", 3)
	dir := t.TempDir()
	bc := openRetaining(t, dir, accs, 0)
	a, art := deployCounter(t, bc, accs[0])
	b, _ := deployCounter(t, bc, accs[0])
	inc, _ := art.ABI.Pack("increment")
	fail, _ := art.ABI.Pack("fail")
	send := func(acc wallet.Account, to ethtypes.Address, data []byte) {
		t.Helper()
		if _, err := bc.SendTransaction(signedTx(t, bc, acc, &to, uint256.Zero, data, 200_000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		switch i % 5 {
		case 0:
			send(accs[1], a, inc)
		case 1:
			send(accs[2], b, inc)
		case 2: // a batch-mined block with logs from both contracts
			for _, tx := range []*ethtypes.Transaction{
				signedTx(t, bc, accs[1], &b, uint256.Zero, inc, 200_000),
				signedTx(t, bc, accs[2], &accs[0].Address, uint256.NewUint64(1), nil, 21000),
				signedTx(t, bc, accs[0], &a, uint256.Zero, inc, 200_000),
			} {
				if _, err := bc.SubmitTransaction(tx); err != nil {
					t.Fatal(err)
				}
			}
			if _, failed := bc.MineBlock(); len(failed) != 0 {
				t.Fatalf("batch failures: %v", failed)
			}
		case 3: // reverted: a receipt without logs
			send(accs[1], a, fail)
		default:
			send(accs[0], a, inc)
		}
	}
	fc := flatten(t, bc.View())

	bumped := art.ABI.Events["bumped"].Topic()
	var byAcc1, byAcc2 ethtypes.Hash
	copy(byAcc1[12:], accs[1].Address[:])
	copy(byAcc2[12:], accs[2].Address[:])
	queries := []FilterQuery{
		{},
		{Addresses: []ethtypes.Address{a}},
		{Topics: [][]ethtypes.Hash{{bumped}, {byAcc1}}},
		{Addresses: []ethtypes.Address{a, b}, Topics: [][]ethtypes.Hash{nil, {byAcc1, byAcc2}}},
	}
	checkAgainstFlat(t, bc, fc, queries)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	// Four blocks resident: one more seal evicts everything older, and
	// the same reads go through the block log.
	bc = openRetaining(t, dir, accs, 4)
	defer bc.Close()
	send(accs[2], accs[0].Address, nil)
	last := bc.View()
	fc.head = last.BlockNumber()
	headBlock, _ := last.BlockByNumber(fc.head)
	fc.txs[headBlock.Transactions[0].Hash()] = flatTx{enc: headBlock.Transactions[0].Encode(), rcpt: receiptKey(last.ReceiptsOf(fc.head)[0])}
	if last.blocksBase != fc.head-3 {
		t.Fatalf("blocks from %d resident, want %d", last.blocksBase, fc.head-3)
	}
	checkAgainstFlat(t, bc, fc, queries)
}
