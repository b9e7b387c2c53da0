package chain

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// persistGenesis returns the genesis used by every persistence test, so
// reopens agree on chain identity.
func persistGenesis(accs []wallet.Account) *Genesis {
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	return g
}

// openPersist opens a persistent chain in dir with a small snapshot
// interval so tests exercise the periodic path quickly.
func openPersist(t *testing.T, dir string, accs []wallet.Account, interval uint64) *Blockchain {
	t.Helper()
	bc, err := Open(persistGenesis(accs), WithPersistence(PersistConfig{
		DataDir:          dir,
		SnapshotInterval: interval,
		SegmentSize:      4096, // force rotation in tests
		NoSync:           true, // keep the suite fast; sync is covered by blockdb
	}))
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

// workload seals nBlocks blocks: a counter deploy, increments (which
// emit logs) and plain transfers, mixing instant-seal and batch mining.
func workload(t *testing.T, bc *Blockchain, accs []wallet.Account, nBlocks int) {
	t.Helper()
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	for i := 1; i < nBlocks; i++ {
		switch i % 3 {
		case 0: // batch-mined block with two txs
			tx1 := signedTx(t, bc, accs[1], &addr, uint256.Zero, input, 200_000)
			if _, err := bc.SubmitTransaction(tx1); err != nil {
				t.Fatal(err)
			}
			tx2 := signedTx(t, bc, accs[2], &accs[0].Address, uint256.NewUint64(1000), nil, 21000)
			if _, err := bc.SubmitTransaction(tx2); err != nil {
				t.Fatal(err)
			}
			if _, failed := bc.MineBlock(); len(failed) != 0 {
				t.Fatalf("batch mining failures: %v", failed)
			}
		case 1:
			tx := signedTx(t, bc, accs[1], &addr, uint256.Zero, input, 200_000)
			if _, err := bc.SendTransaction(tx); err != nil {
				t.Fatal(err)
			}
		default:
			tx := signedTx(t, bc, accs[0], &accs[2].Address, uint256.NewUint64(777), nil, 21000)
			if _, err := bc.SendTransaction(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bc.PersistErr(); err != nil {
		t.Fatalf("persistence failed during workload: %v", err)
	}
}

const twoLogsSrc = `
contract TwoLogs {
	event first(uint n);
	event second(uint n);
	function emitBoth(uint n) public { emit first(n); emit second(n); }
	function fail() public { require(false, "no"); }
}`

// mixedBlock deploys a TwoLogs contract, then mines one block that mixes
// a create, two transactions of two logs each, a revert and a
// transaction the nonce rule drops, and returns that block.
func mixedBlock(t *testing.T, bc *Blockchain, accs []wallet.Account) *ethtypes.Block {
	t.Helper()
	art, err := minisol.CompileContract(twoLogsSrc, "TwoLogs")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := bc.SendTransaction(signedTx(t, bc, accs[0], nil, uint256.Zero, art.Bytecode, 2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	addr := *rcpt.ContractAddress
	pack := func(method string, args ...interface{}) []byte {
		data, err := art.ABI.Pack(method, args...)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	n1, n2 := bc.GetNonce(accs[1].Address), bc.GetNonce(accs[2].Address)
	gap := rawTx(t, bc, accs[2], n2+2, &accs[0].Address, uint256.One, nil, 21_000)
	for _, tx := range []*ethtypes.Transaction{
		rawTx(t, bc, accs[0], bc.GetNonce(accs[0].Address), nil, uint256.Zero, art.Bytecode, 2_000_000),
		rawTx(t, bc, accs[1], n1, &addr, uint256.Zero, pack("emitBoth", uint256.NewUint64(1)), 200_000),
		rawTx(t, bc, accs[1], n1+1, &addr, uint256.Zero, pack("fail"), 200_000),
		gap,
		rawTx(t, bc, accs[2], n2, &addr, uint256.Zero, pack("emitBoth", uint256.NewUint64(2)), 200_000),
	} {
		if _, err := bc.SubmitTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	block, failed := bc.MineBlock()
	if len(block.Transactions) != 4 || len(failed) != 1 || !errors.Is(failed[gap.Hash()], ErrNonceTooHigh) {
		t.Fatalf("mixed block: %d transactions, dropped %v", len(block.Transactions), failed)
	}
	return block
}

// chainFingerprint captures everything a restart must preserve.
type chainFingerprint struct {
	head      ethtypes.Hash
	height    uint64
	stateRoot ethtypes.Hash
	hashes    []ethtypes.Hash
	logs      []*ethtypes.Log
	receipts  map[ethtypes.Hash]*ethtypes.Receipt
}

func fingerprint(bc *Blockchain) *chainFingerprint {
	fp := &chainFingerprint{
		head:      bc.Head().Hash(),
		height:    bc.BlockNumber(),
		stateRoot: bc.StateRoot(),
		logs:      bc.FilterLogs(FilterQuery{}),
		receipts:  map[ethtypes.Hash]*ethtypes.Receipt{},
	}
	for n := uint64(0); n <= fp.height; n++ {
		b, _ := bc.BlockByNumber(n)
		fp.hashes = append(fp.hashes, b.Hash())
		for _, tx := range b.Transactions {
			if r, ok := bc.GetReceipt(tx.Hash()); ok {
				fp.receipts[tx.Hash()] = r
			}
		}
	}
	return fp
}

// mustMatchPrefix asserts that got reproduces want up to got's height.
func mustMatchPrefix(t *testing.T, want, got *chainFingerprint) {
	t.Helper()
	if got.height > want.height {
		t.Fatalf("recovered chain is longer than the original: %d > %d", got.height, want.height)
	}
	for n := uint64(0); n <= got.height; n++ {
		if got.hashes[n] != want.hashes[n] {
			t.Fatalf("block %d hash diverged after restart", n)
		}
	}
	for h, r := range got.receipts {
		w, ok := want.receipts[h]
		if !ok {
			t.Fatalf("receipt %s not in original chain", h)
		}
		if r.BlockNumber > got.height {
			t.Fatalf("receipt beyond recovered head")
		}
		if r.BlockHash != w.BlockHash || r.GasUsed != w.GasUsed || r.Status != w.Status ||
			r.CumulativeGasUsed != w.CumulativeGasUsed || r.TxIndex != w.TxIndex {
			t.Fatalf("receipt %s diverged after restart:\n got %+v\nwant %+v", h, r, w)
		}
	}
	for i, l := range got.logs {
		w := want.logs[i]
		if l.BlockNumber != w.BlockNumber || l.BlockHash != w.BlockHash ||
			l.TxHash != w.TxHash || l.TxIndex != w.TxIndex || l.Index != w.Index ||
			l.Address != w.Address {
			t.Fatalf("log %d diverged after restart:\n got %+v\nwant %+v", i, l, w)
		}
	}
}

func mustMatchFull(t *testing.T, want, got *chainFingerprint) {
	t.Helper()
	if got.height != want.height {
		t.Fatalf("height %d after restart, want %d", got.height, want.height)
	}
	if got.head != want.head {
		t.Fatalf("head hash diverged after restart")
	}
	if got.stateRoot != want.stateRoot {
		t.Fatalf("state root diverged after restart")
	}
	if len(got.logs) != len(want.logs) {
		t.Fatalf("%d logs after restart, want %d", len(got.logs), len(want.logs))
	}
	if len(got.receipts) != len(want.receipts) {
		t.Fatalf("%d receipts after restart, want %d", len(got.receipts), len(want.receipts))
	}
	mustMatchPrefix(t, want, got)
}

func TestGracefulRestartIdentical(t *testing.T) {
	accs := wallet.DevAccounts("persist test", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 4)
	workload(t, bc, accs, 10)
	want := fingerprint(bc)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersist(t, dir, accs, 4)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if rep == nil || rep.Dropped() {
		t.Fatalf("clean restart dropped data: %+v", rep)
	}
	// Close wrote a head snapshot, so nothing needed re-execution.
	if !rep.SnapshotUsed || rep.BlocksReplayed != 0 {
		t.Fatalf("graceful restart should replay nothing: %+v", rep)
	}
	// The recovered chain keeps working.
	tx := signedTx(t, bc2, accs[0], &accs[1].Address, uint256.NewUint64(5), nil, 21000)
	if _, err := bc2.SendTransaction(tx); err != nil {
		t.Fatalf("recovered chain rejects transactions: %v", err)
	}
}

func TestCrashRestartReplaysFromSnapshot(t *testing.T) {
	accs := wallet.DevAccounts("persist crash", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 4)
	workload(t, bc, accs, 11) // head = 11: snapshot at 8, blocks 9..11 replay
	want := fingerprint(bc)
	// Simulated SIGKILL: drop the chain without Close; the journal is
	// already on disk (appended per seal), the final snapshot is not.

	bc2 := openPersist(t, dir, accs, 4)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if !rep.SnapshotUsed || rep.SnapshotBlock == 0 {
		t.Fatalf("periodic snapshot not used: %+v", rep)
	}
	if rep.BlocksReplayed == 0 || rep.BlocksReplayed > 4 {
		t.Fatalf("replay not snapshot-bounded: %+v", rep)
	}
	if rep.Dropped() {
		t.Fatalf("crash restart dropped data: %+v", rep)
	}
}

func TestCrashRestartWithoutAnySnapshot(t *testing.T) {
	accs := wallet.DevAccounts("persist nosnap", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 4)
	workload(t, bc, accs, 9)
	mixedBlock(t, bc, accs)
	want := fingerprint(bc)

	// Delete every snapshot: recovery must fall back to genesis replay.
	for _, m := range []string{"state-*.snap", "state-*.snap.tmp"} {
		paths, _ := filepath.Glob(filepath.Join(dir, m))
		for _, p := range paths {
			os.Remove(p)
		}
	}

	bc2 := openPersist(t, dir, accs, 4)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if rep.SnapshotUsed {
		t.Fatalf("used a snapshot that does not exist: %+v", rep)
	}
	if rep.BlocksReplayed != int(want.height) {
		t.Fatalf("full replay expected: %+v", rep)
	}
}

func TestTortureTornTailRecoversPrefix(t *testing.T) {
	accs := wallet.DevAccounts("persist torn", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 4)
	workload(t, bc, accs, 8)
	want := fingerprint(bc)

	// Tear the newest segment mid-frame, as an interrupted write would.
	segs, err := filepath.Glob(filepath.Join(dir, "blocks-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	tail := segs[len(segs)-1]
	fi, _ := os.Stat(tail)
	if err := os.Truncate(tail, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	// Also drop the head snapshots — they describe blocks the torn log
	// may no longer reach.
	snapPaths, _ := filepath.Glob(filepath.Join(dir, "state-*.snap"))
	for _, p := range snapPaths {
		os.Remove(p)
	}

	bc2 := openPersist(t, dir, accs, 4)
	defer bc2.Close()
	got := fingerprint(bc2)
	if got.height != want.height-1 {
		t.Fatalf("recovered height %d, want %d", got.height, want.height-1)
	}
	mustMatchPrefix(t, want, got)
	rep := bc2.RecoveryReport()
	if !rep.Dropped() || rep.LogDroppedBytes == 0 {
		t.Fatalf("report misses the torn tail: %+v", rep)
	}
}

func TestTortureCorruptFrameRecoversPrefix(t *testing.T) {
	accs := wallet.DevAccounts("persist corrupt", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 100) // no periodic snapshot within the run
	workload(t, bc, accs, 8)
	want := fingerprint(bc)

	// Flip one byte in the middle of the first segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "blocks-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersist(t, dir, accs, 100)
	defer bc2.Close()
	got := fingerprint(bc2)
	if got.height >= want.height {
		t.Fatalf("corruption not detected: height %d", got.height)
	}
	mustMatchPrefix(t, want, got)
	if rep := bc2.RecoveryReport(); !rep.Dropped() {
		t.Fatalf("report misses the corruption: %+v", rep)
	}
}

func TestTortureNewestSnapshotDeleted(t *testing.T) {
	accs := wallet.DevAccounts("persist snapdel", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 3)
	workload(t, bc, accs, 10)
	want := fingerprint(bc)

	// Remove the newest snapshot; recovery must fall back to the older
	// generation and replay more blocks.
	snapPaths, _ := filepath.Glob(filepath.Join(dir, "state-*.snap"))
	if len(snapPaths) < 2 {
		t.Fatalf("expected 2 snapshot generations, got %d", len(snapPaths))
	}
	newest := snapPaths[len(snapPaths)-1]
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersist(t, dir, accs, 3)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if !rep.SnapshotUsed {
		t.Fatalf("older snapshot not used: %+v", rep)
	}
	if rep.Dropped() {
		t.Fatalf("nothing should be dropped: %+v", rep)
	}
}

func TestTortureCorruptSnapshotFallsBack(t *testing.T) {
	accs := wallet.DevAccounts("persist snapcorrupt", 3)
	dir := t.TempDir()

	bc := openPersist(t, dir, accs, 3)
	workload(t, bc, accs, 10)
	want := fingerprint(bc)

	snapPaths, _ := filepath.Glob(filepath.Join(dir, "state-*.snap"))
	for _, p := range snapPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	bc2 := openPersist(t, dir, accs, 3)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if rep.SnapshotUsed {
		t.Fatalf("corrupt snapshot trusted: %+v", rep)
	}
}

func TestGenesisMismatchRefused(t *testing.T) {
	accs := wallet.DevAccounts("persist genesis", 3)
	dir := t.TempDir()
	bc := openPersist(t, dir, accs, 4)
	workload(t, bc, accs, 3)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	other := DefaultGenesis()
	other.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(42)) // different alloc → different genesis
	_, err := Open(other, WithPersistence(PersistConfig{DataDir: dir, NoSync: true}))
	if err == nil || !strings.Contains(err.Error(), "different genesis") {
		t.Fatalf("genesis mismatch not refused: %v", err)
	}
}

func TestMemoryChainUnaffected(t *testing.T) {
	accs := wallet.DevAccounts("persist mem", 3)
	bc, err := Open(persistGenesis(accs))
	if err != nil {
		t.Fatal(err)
	}
	if bc.RecoveryReport() != nil {
		t.Fatal("memory chain has a recovery report")
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatalf("memory chain must survive Close: %v", err)
	}
}
