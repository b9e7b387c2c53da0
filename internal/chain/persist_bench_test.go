package chain

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// buildChainDir seals nBlocks counter-increment blocks into a fresh
// datadir and returns it. The final head snapshot is removed so every
// recovery run replays at least the blocks after the last periodic
// snapshot, as after a crash.
func buildChainDir(b *testing.B, nBlocks int, snapInterval uint64) (string, []wallet.Account) {
	b.Helper()
	dir := b.TempDir()
	accs := wallet.DevAccounts("bench recovery", 2)
	bc, err := Open(persistGenesis(accs), WithPersistence(PersistConfig{
		DataDir:          dir,
		SnapshotInterval: snapInterval,
		NoSync:           true,
	}))
	if err != nil {
		b.Fatal(err)
	}
	addr, art := deployCounter(b, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	for i := 1; i < nBlocks; i++ {
		tx := signedTx(b, bc, accs[1], &addr, uint256.Zero, input, 200_000)
		if _, err := bc.SendTransaction(tx); err != nil {
			b.Fatal(err)
		}
	}
	if err := bc.PersistErr(); err != nil {
		b.Fatal(err)
	}
	// Abandon without Close: crash-style recovery, no head snapshot.
	return dir, accs
}

// dropSnapshots removes either every snapshot (replay-all case) or only
// the head-aligned one, so each recovery run starts from the previous
// periodic snapshot and replays exactly one interval of blocks.
func dropSnapshots(dir string, nBlocks int, withSnapshots bool) {
	if withSnapshots {
		paths, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("state-%010d.snap", nBlocks)))
		for _, p := range paths {
			os.Remove(p)
		}
		return
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "state-*.snap"))
	for _, p := range paths {
		os.Remove(p)
	}
}

func benchRecovery(b *testing.B, nBlocks int, withSnapshots bool) {
	interval := uint64(DefaultSnapshotInterval)
	dir, accs := buildChainDir(b, nBlocks, interval)
	dropSnapshots(dir, nBlocks, withSnapshots)
	g := persistGenesis(accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := Open(g, WithPersistence(PersistConfig{
			DataDir:          dir,
			SnapshotInterval: interval,
			NoSync:           true,
		}))
		if err != nil {
			b.Fatal(err)
		}
		rep := bc.RecoveryReport()
		if rep.Head != uint64(nBlocks) || rep.Dropped() {
			b.Fatalf("bad recovery: %+v", rep)
		}
		b.StopTimer()
		// Close writes a head snapshot; remove it again so every run
		// recovers the same way.
		bc.Close()
		dropSnapshots(dir, nBlocks, withSnapshots)
		b.StartTimer()
	}
}

func BenchmarkRecovery(b *testing.B) {
	// Chain lengths sit 32 blocks past a snapshot boundary, so the
	// snapshot-bounded runs replay a fixed 32-block tail regardless of
	// chain length while the no-snapshot runs replay everything.
	for _, n := range []int{160, 544, 1056} {
		b.Run(fmt.Sprintf("snapshots/blocks=%d", n), func(b *testing.B) {
			benchRecovery(b, n, true)
		})
		b.Run(fmt.Sprintf("replayAll/blocks=%d", n), func(b *testing.B) {
			benchRecovery(b, n, false)
		})
	}
}

// BenchmarkRetainedHeap seals 9 000 transfers carrying 256 bytes of
// data into a durable chain and reports the heap in use afterwards and
// its growth per transaction, with every block resident (retain=0) and
// with 16 resident (retain=16). With eviction on, what stays is the
// hash → position and hash → number index entries.
func BenchmarkRetainedHeap(b *testing.B) {
	const txs = 9_000
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i) | 1
	}
	for _, retain := range []uint64{0, 16} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			var before, after runtime.MemStats
			for i := 0; i < b.N; i++ {
				accs := wallet.DevAccounts("bench heap", 2)
				bc, err := Open(persistGenesis(accs), WithPersistence(PersistConfig{
					DataDir: b.TempDir(), NoSync: true, RetainBlocks: retain,
				}))
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&before)
				for n := uint64(0); n < txs; n++ {
					tx := &ethtypes.Transaction{
						Nonce: n, GasPrice: ethtypes.Gwei(1), Gas: 30_000,
						To: &accs[1].Address, Value: uint256.One, Data: data,
					}
					tx.Sign(accs[0].Key, bc.ChainID())
					if _, err := bc.SendTransaction(tx); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				if err := bc.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(after.HeapInuse)/(1<<20), "heap-MiB")
			b.ReportMetric(float64(int64(after.HeapInuse)-int64(before.HeapInuse))/txs, "heap-B/tx")
		})
	}
}
