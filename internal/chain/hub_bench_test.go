package chain

import (
	"fmt"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// BenchmarkMineLoopSubscribers measures seal latency as a function of
// live hub subscribers. The sealer fans every event out itself, one
// ring append and one non-blocking wake per matching subscriber, so a
// block costs ≈ 0.6 µs more per live heads subscriber: lost in the
// noise up to subs=128 (slo-smoke's count), ≈ 0.6 ms at subs=1000.
func BenchmarkMineLoopSubscribers(b *testing.B) {
	for _, k := range []int{0, 1, 100, 128, 1000} {
		b.Run(fmt.Sprintf("subs=%d", k), func(b *testing.B) {
			benchMineLoopSubscribers(b, k)
		})
	}
}

func benchMineLoopSubscribers(b *testing.B, subscribers int) {
	const nSenders = 8
	accs := wallet.DevAccounts("bench subs", nSenders)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	bc := New(g)
	defer bc.Close()

	// Live, draining consumers — each wakes, empties its ring and goes
	// back to sleep, like a healthy WS/SSE session.
	for i := 0; i < subscribers; i++ {
		sub := bc.SubscribeHeads(0)
		go func() {
			for {
				<-sub.Wait()
				for {
					evs, gap, alive := sub.Drain()
					if !alive {
						return
					}
					if len(evs) == 0 && gap == 0 {
						break
					}
				}
			}
		}()
	}

	var sinks [nSenders]ethtypes.Address
	for i := range sinks {
		sinks[i][18], sinks[i][19] = 0xDD, byte(i)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		txs := make([]*ethtypes.Transaction, nSenders)
		for i, acc := range accs {
			txs[i] = rawTx(b, bc, acc, uint64(n), &sinks[i], uint256.NewUint64(1), nil, 21000)
		}
		b.StartTimer()
		for _, tx := range txs {
			if _, err := bc.SubmitTransaction(tx); err != nil {
				b.Fatal(err)
			}
		}
		if _, failed := bc.MineBlock(); len(failed) != 0 {
			b.Fatalf("drops: %v", failed)
		}
	}
	b.ReportMetric(float64(nSenders)*float64(b.N)/b.Elapsed().Seconds(), "txs/s")
}
