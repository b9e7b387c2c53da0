package rpc

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// inprocTransport answers a request by calling the handler in the
// caller's goroutine: a round trip with the codec's cost and no
// socket's.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// BenchmarkRoundTrip times rpc.Client calls answered by the Server
// through an in-process transport, the path the serve_mix reader takes:
// an eth_call of a getter, eth_blockNumber, eth_getBlockByNumber of the
// head (hashes only) and eth_getLogs of one contract's six logs. Run
// with -benchmem: the allocations are the codec's.
func BenchmarkRoundTrip(b *testing.B) {
	accs := wallet.DevAccounts("roundtrip bench", 1)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	bc := chain.New(g)
	b.Cleanup(func() { bc.Close() })
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		b.Fatal(err)
	}
	send := func(to *ethtypes.Address, data []byte) *ethtypes.Receipt {
		tx := &ethtypes.Transaction{Nonce: bc.GetNonce(accs[0].Address), GasPrice: ethtypes.Gwei(1), Gas: 2_000_000, To: to, Value: uint256.Zero, Data: data}
		if err := tx.Sign(accs[0].Key, bc.ChainID()); err != nil {
			b.Fatal(err)
		}
		h, err := bc.SendTransaction(tx)
		if err != nil {
			b.Fatal(err)
		}
		rcpt, _ := bc.GetReceipt(h)
		return rcpt
	}
	counter := *send(nil, art.Bytecode).ContractAddress
	inc, _ := art.ABI.Pack("increment")
	for i := 0; i < 6; i++ {
		send(&counter, inc)
	}
	getter, _ := art.ABI.Pack("count")
	c := Dial("http://rpc.inproc")
	c.SetHTTPClient(&http.Client{Transport: inprocTransport{NewServer(bc, nil)}})

	b.Run("eth_call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.CallContract(web3.CallMsg{From: accs[0].Address, To: &counter, Data: getter}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eth_blockNumber", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.BlockNumber(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eth_getBlockByNumber", func(b *testing.B) {
		b.ReportAllocs()
		var blk struct {
			Number string `json:"number"`
		}
		for i := 0; i < b.N; i++ {
			if err := c.Call(&blk, "eth_getBlockByNumber", "latest", false); err != nil || blk.Number != "0x7" {
				b.Fatal(blk.Number, err)
			}
		}
	})
	b.Run("eth_getLogs", func(b *testing.B) {
		b.ReportAllocs()
		q := chain.FilterQuery{Addresses: []ethtypes.Address{counter}}
		for i := 0; i < b.N; i++ {
			if logs, err := c.FilterLogs(q); err != nil || len(logs) != 6 {
				b.Fatal(len(logs), err)
			}
		}
	})
}
