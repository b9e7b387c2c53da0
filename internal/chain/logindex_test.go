package chain

import (
	"testing"

	"legalchain/internal/blockdb"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// sealLogChain seals blocks on bc up to head: two Counter deploys, then
// one increment a block — of the target Counter in the blocks targets
// names, of the noise Counter in every other one. It returns both
// addresses.
func sealLogChain(tb testing.TB, bc *Blockchain, acc wallet.Account, head uint64, targets map[uint64]bool) (noise, target ethtypes.Address) {
	tb.Helper()
	noise, _ = deployCounter(tb, bc, acc)
	target, _ = deployCounter(tb, bc, acc)
	sealIncrements(tb, bc, acc, head, func(n uint64) ethtypes.Address {
		if targets[n] {
			return target
		}
		return noise
	})
	return noise, target
}

// sealIncrements seals one Counter increment a block on bc up to head,
// of the Counter at to(n) in block n.
func sealIncrements(tb testing.TB, bc *Blockchain, acc wallet.Account, head uint64, to func(n uint64) ethtypes.Address) {
	tb.Helper()
	sel := ethtypes.Keccak256([]byte("increment()"))
	inc := sel[:4]
	nonce := bc.GetNonce(acc.Address)
	for n := bc.BlockNumber() + 1; n <= head; n++ {
		addr := to(n)
		tx := &ethtypes.Transaction{Nonce: nonce, GasPrice: ethtypes.Gwei(1), Gas: 200_000, To: &addr, Value: uint256.Zero, Data: inc}
		if err := tx.Sign(acc.Key, bc.ChainID()); err != nil {
			tb.Fatal(err)
		}
		if _, err := bc.SendTransaction(tx); err != nil {
			tb.Fatal(err)
		}
		nonce++
	}
}

// TestAddressQueryReadsOnlyItsBlocks: on a chain of 1 000 blocks with a
// log in each, a query that names addresses reads only the blocks that
// hold its matches, resident or evicted, and answers what a flat scan
// answers; a query that names none still reads every block. Reads are
// counted by legalchain_chain_block_read_through_total: over resident
// blocks on a copy of the view whose resident window is the head alone,
// so that every other blockAt reads through the block log, and over
// blocks the chain really evicted after a restart.
func TestAddressQueryReadsOnlyItsBlocks(t *testing.T) {
	accs := wallet.DevAccounts("log index", 1)
	dir := t.TempDir()
	bc := openRetaining(t, dir, accs, 0)
	const head = 1_000
	noise, target := sealLogChain(t, bc, accs[0], head, map[uint64]bool{3: true, 400: true, 401: true, 999: true})

	fc := flatten(t, bc.View())
	reads := func(v *HeadView, q FilterQuery) uint64 {
		t.Helper()
		before := mBlockReadThrough.Value()
		got := v.FilterLogs(q)
		n := mBlockReadThrough.Value() - before
		want := fc.scan(q)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d logs, want %d", q, len(got), len(want))
		}
		for i, l := range got {
			if logKey(l) != want[i] {
				t.Fatalf("%+v: log %d\n got %s\nwant %s", q, i, logKey(l), want[i])
			}
		}
		return n
	}
	block := func(n uint64) *uint64 { return &n }
	v := bc.View()
	onlyHead := *v
	onlyHead.blocksBase = head
	onlyHead.blocks, onlyHead.rcpts = v.blocks[head:], v.rcpts[head:]
	for _, c := range []struct {
		q     FilterQuery
		reads uint64
	}{
		{FilterQuery{Addresses: []ethtypes.Address{target}}, 4},
		{FilterQuery{Addresses: []ethtypes.Address{target}, FromBlock: 400}, 3},
		{FilterQuery{Addresses: []ethtypes.Address{target, target}, FromBlock: 401, ToBlock: block(998)}, 1},
		{FilterQuery{Addresses: []ethtypes.Address{noise, target}, FromBlock: 998}, 2}, // 998 and 999; the head is resident
		{FilterQuery{Addresses: []ethtypes.Address{target}, FromBlock: 4, ToBlock: block(399)}, 0},
		{FilterQuery{Addresses: []ethtypes.Address{accs[0].Address}}, 0},
		{FilterQuery{}, head - 1},
	} {
		if n := reads(&onlyHead, c.q); n != c.reads {
			t.Errorf("resident %+v read %d blocks, want %d", c.q, n, c.reads)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	// Sixteen blocks resident: one more block (a call that logs nothing)
	// evicts every block up to 985, and target's logs there read back
	// through the block log.
	bc = openRetaining(t, dir, accs, 16)
	defer bc.Close()
	if _, err := bc.SendTransaction(signedTx(t, bc, accs[0], &noise, uint256.Zero, nil, 100_000)); err != nil {
		t.Fatal(err)
	}
	v = bc.View()
	if v.blocksBase != head-14 {
		t.Fatalf("blocks from %d resident, want %d", v.blocksBase, head-14)
	}
	fc = flatten(t, v)
	if n := reads(v, FilterQuery{Addresses: []ethtypes.Address{target}}); n != 3 {
		t.Errorf("evicted: the target query read %d blocks through the block log, want 3", n)
	}
}

// TestRecoveryRetryRebuildsLogIndex: a head block whose stored state
// root its replay cannot reproduce makes recovery retry with the
// shorter prefix, and the log index of that retry holds each log of
// the prefix once, as a flat scan of the recovered chain does.
func TestRecoveryRetryRebuildsLogIndex(t *testing.T) {
	accs := wallet.DevAccounts("log index retry", 1)
	dir := t.TempDir()
	bc := openRetaining(t, dir, accs, 0)
	noise, target := sealLogChain(t, bc, accs[0], 12, map[uint64]bool{5: true, 11: true})
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	db, recs, _, err := blockdb.Open(dir, blockdb.Options{SegmentSize: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	last.Header.StateRoot = ethtypes.Hash{1}
	if err := db.Rewind(len(recs) - 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(last); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	bc = openRetaining(t, dir, accs, 0)
	defer bc.Close()
	if rep := bc.RecoveryReport(); rep.BlocksDropped != 1 || bc.BlockNumber() != 11 {
		t.Fatalf("recovered to block %d, dropped %d (%s); want 11 and 1", bc.BlockNumber(), rep.BlocksDropped, rep.DroppedReason)
	}
	v := bc.View()
	fc := flatten(t, v)
	for _, q := range []FilterQuery{
		{Addresses: []ethtypes.Address{target}},
		{Addresses: []ethtypes.Address{noise, target}, FromBlock: 4},
	} {
		got, want := v.FilterLogs(q), fc.scan(q)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d logs, want %d", q, len(got), len(want))
		}
		for i, l := range got {
			if logKey(l) != want[i] {
				t.Fatalf("%+v: log %d\n got %s\nwant %s", q, i, logKey(l), want[i])
			}
		}
	}
}
