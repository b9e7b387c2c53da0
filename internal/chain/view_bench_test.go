package chain

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// benchChain builds a chain with a bloated world state (the
// BenchmarkEthCall_Snapshot pattern) so per-call state-copy cost is
// visible.
func benchChain(b *testing.B) (*Blockchain, []wallet.Account) {
	b.Helper()
	accs := wallet.DevAccounts("bench-call", 2)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1_000_000))
	bc := New(g)
	for i := 0; i < 500; i++ {
		var a ethtypes.Address
		a[17] = 0xbb
		a[18] = byte(i >> 8)
		a[19] = byte(i)
		tx := &ethtypes.Transaction{
			Nonce: uint64(i), GasPrice: ethtypes.Gwei(1), Gas: 21000,
			To: &a, Value: uint256.One,
		}
		tx.Sign(accs[0].Key, bc.ChainID())
		if _, err := bc.SendTransaction(tx); err != nil {
			b.Fatal(err)
		}
	}
	return bc, accs
}

// benchParallelEthCall measures eth_call throughput at a fixed fan-out.
// It uses a manual goroutine fan-out rather than b.RunParallel so the
// goroutine count is exactly g regardless of GOMAXPROCS — the
// single-goroutine baseline and the 8-goroutine run divide the same
// b.N, making ns/op directly comparable as aggregate throughput.
func benchParallelEthCall(b *testing.B, g int) {
	bc, accs := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var iter atomic.Int64
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter.Add(1) <= int64(b.N) {
				res := bc.Call(accs[0].Address, &accs[1].Address, nil, uint256.One, 0)
				if res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkParallelEthCall_1(b *testing.B) { benchParallelEthCall(b, 1) }
func BenchmarkParallelEthCall_8(b *testing.B) { benchParallelEthCall(b, 8) }

// BenchmarkReadsDuringSeal measures mixed read throughput while a
// writer seals continuously — the "landlord deploys, tenant loads the
// dashboard" scenario. Before the head-view read path, every read
// waited out the writer's full seal (EVM execution + state root +
// indexes); now reads resolve against the last published view.
func BenchmarkReadsDuringSeal(b *testing.B) {
	bc, accs := benchChain(b)
	stop := make(chan struct{})
	var sealErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nonce := bc.GetNonce(accs[0].Address)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := &ethtypes.Transaction{
				Nonce: nonce, GasPrice: ethtypes.Gwei(1), Gas: 21000,
				To: &accs[1].Address, Value: uint256.One,
			}
			tx.Sign(accs[0].Key, bc.ChainID())
			if _, err := bc.SendTransaction(tx); err != nil {
				sealErr = err
				return
			}
			nonce++
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0:
			bc.GetBalance(accs[1].Address)
		case 1:
			bc.BlockByNumber(bc.BlockNumber())
		case 2:
			bc.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{accs[1].Address}})
		case 3:
			bc.GetNonce(accs[0].Address)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if sealErr != nil {
		b.Fatal(sealErr)
	}
}

// logViews are the views of one memory chain at 100, 1 000 and 10 000
// blocks with a log in every block after the deploys: the target
// Counter's in blocks 10, 50 and 90, the noise Counter's in all the
// others. Built once for every BenchmarkFilterLogs case.
var logViews struct {
	once          sync.Once
	views         map[int]*HeadView
	noise, target ethtypes.Address
}

// BenchmarkFilterLogs measures two queries whose answer does not grow
// with the chain, at 100, 1 000 and 10 000 blocks: a one-block query by
// the noise address (what a logs subscription, an SSE event stream or a
// polling filter runs per head) and a full-range query by the target
// address (what the payment join and a verifier's eth_getLogs run),
// three logs at every height. Through the log index both cost their
// answer, so the time per query stays flat as the chain grows.
func BenchmarkFilterLogs(b *testing.B) {
	logViews.once.Do(func() {
		accs := wallet.DevAccounts("bench-logs", 1)
		g := DefaultGenesis()
		g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1_000_000))
		bc := New(g)
		logViews.views = map[int]*HeadView{}
		targets := map[uint64]bool{10: true, 50: true, 90: true}
		for _, blocks := range []int{100, 1_000, 10_000} {
			if bc.BlockNumber() == 0 {
				logViews.noise, logViews.target = sealLogChain(b, bc, accs[0], uint64(blocks), targets)
			} else {
				sealIncrements(b, bc, accs[0], uint64(blocks), func(uint64) ethtypes.Address { return logViews.noise })
			}
			logViews.views[blocks] = bc.View()
		}
	})
	for _, blocks := range []int{100, 1_000, 10_000} {
		v := logViews.views[blocks]
		head := v.BlockNumber()
		for _, r := range []struct {
			name string
			q    FilterQuery
			want int
		}{
			{"one", FilterQuery{FromBlock: head, ToBlock: &head, Addresses: []ethtypes.Address{logViews.noise}}, 1},
			{"full", FilterQuery{Addresses: []ethtypes.Address{logViews.target}}, 3},
		} {
			b.Run(fmt.Sprintf("blocks=%d/range=%s", blocks, r.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := len(v.FilterLogs(r.q)); got != r.want {
						b.Fatalf("%d logs, want %d", got, r.want)
					}
				}
			})
		}
	}
}
