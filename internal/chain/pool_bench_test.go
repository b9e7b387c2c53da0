package chain

import (
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// BenchmarkMineBlock measures batch mining across conflict rates. The
// workload is one transfer per sender per block — sixteen independent
// (sender, fresh recipient) pairs at 0% conflicts; at higher rates the
// first conflictN transfers all pay the same shared recipient. Mining
// time covers the sender memo hits, execution and the seal; signing and
// submission are untimed.
func BenchmarkMineBlock(b *testing.B) {
	for _, c := range []struct {
		name      string
		conflictN int
	}{{"conflict0", 0}, {"conflict10", 2}, {"conflict50", 8}} {
		b.Run(c.name, func(b *testing.B) { benchMineBlock(b, c.conflictN) })
	}
}

func benchMineBlock(b *testing.B, conflictN int) {
	const nSenders = 16
	accs := wallet.DevAccounts("bench mine", nSenders)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	bc := New(g)

	// Fresh, unfunded recipients: a transfer to sinks[i] touches state
	// disjoint from every other transfer in the batch.
	var sinks [nSenders]ethtypes.Address
	for i := range sinks {
		sinks[i][18], sinks[i][19] = 0xAA, byte(i)
	}
	var shared ethtypes.Address
	shared[18] = 0xBB

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i, acc := range accs {
			to := sinks[i]
			if i < conflictN {
				to = shared
			}
			tx := rawTx(b, bc, acc, uint64(n), &to, uint256.NewUint64(1), nil, 21000)
			if _, err := bc.SubmitTransaction(tx); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, failed := bc.MineBlock(); len(failed) != 0 {
			b.Fatalf("drops: %v", failed)
		}
	}
	b.ReportMetric(float64(nSenders)*float64(b.N)/b.Elapsed().Seconds(), "txs/s")
}
