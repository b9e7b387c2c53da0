package rpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

const twoLogsSrc = `
contract TwoLogs {
	event first(uint n);
	event second(uint n);
	function emitBoth(uint n) public { emit first(n); emit second(n); }
}`

// twoLogsBlock serves, over httptest, a chain whose head is one mined
// block of two transactions, each emitting two logs.
func twoLogsBlock(t *testing.T) (*chain.Blockchain, *httptest.Server, *ethtypes.Block) {
	t.Helper()
	accs := wallet.DevAccounts("log index", 1)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	bc := chain.New(g)
	srv := httptest.NewServer(NewServer(bc, wallet.NewKeystore()))
	t.Cleanup(srv.Close)

	art, err := minisol.CompileContract(twoLogsSrc, "TwoLogs")
	if err != nil {
		t.Fatal(err)
	}
	sign := func(nonce uint64, to *ethtypes.Address, data []byte) *ethtypes.Transaction {
		tx := &ethtypes.Transaction{Nonce: nonce, GasPrice: ethtypes.Gwei(1), Gas: 1_000_000, To: to, Value: uint256.Zero, Data: data}
		if err := tx.Sign(accs[0].Key, bc.ChainID()); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	hash, err := bc.SendTransaction(sign(0, nil, art.Bytecode))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	if rcpt.ContractAddress == nil {
		t.Fatalf("deploy failed: %+v", rcpt)
	}
	for i := uint64(0); i < 2; i++ {
		data, err := art.ABI.Pack("emitBoth", uint256.NewUint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bc.SubmitTransaction(sign(1+i, rcpt.ContractAddress, data)); err != nil {
			t.Fatal(err)
		}
	}
	block, failed := bc.MineBlock()
	if len(failed) != 0 || len(block.Transactions) != 2 {
		t.Fatalf("block %d: %d transactions, dropped %v", block.Number(), len(block.Transactions), failed)
	}
	return bc, srv, block
}

// TestGetLogsIndexesCountAcrossBlock: two transactions mined into one
// block, each emitting two logs, come back from eth_getLogs with
// logIndex 0, 1, 2, 3 — a log's index counts across its block, so
// (block, logIndex) names one log.
func TestGetLogsIndexesCountAcrossBlock(t *testing.T) {
	_, srv, block := twoLogsBlock(t)
	body := fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"eth_getLogs","params":[{"fromBlock":"0x%x","toBlock":"0x%x"}]}`, block.Number(), block.Number())
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Result []struct {
			BlockHash        string `json:"blockHash"`
			LogIndex         string `json:"logIndex"`
			TransactionIndex string `json:"transactionIndex"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Result) != 4 {
		t.Fatalf("eth_getLogs returned %d logs, want 4", len(out.Result))
	}
	for i, l := range out.Result {
		want := fmt.Sprintf("%d:0x%x:0x%x", i, i, i/2)
		if got := fmt.Sprintf("%d:%s:%s", i, l.LogIndex, l.TransactionIndex); got != want || l.BlockHash != block.Hash().Hex() {
			t.Fatalf("log (index:logIndex:transactionIndex) %s in block %s, want %s in block %s", got, l.BlockHash, want, block.Hash().Hex())
		}
	}
}

// TestClientReadsPositions: the JSON-RPC client answers eth_getLogs and
// eth_getTransactionReceipt for a mined block exactly as the in-process
// backend does, positions included: each log's logIndex,
// transactionIndex and blockHash, each receipt's transactionIndex and
// cumulativeGasUsed.
func TestClientReadsPositions(t *testing.T) {
	bc, srv, block := twoLogsBlock(t)
	client, local := Dial(srv.URL), web3.NewLocalBackend(bc)
	n := block.Number()
	q := chain.FilterQuery{FromBlock: n, ToBlock: &n}
	got, err := client.FilterLogs(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := local.FilterLogs(q)
	if len(want) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("eth_getLogs over JSON-RPC:\n%s\nin process:\n%s", dumpLogs(got), dumpLogs(want))
	}
	for _, tx := range block.Transactions {
		got, ok, err := client.TransactionReceipt(tx.Hash())
		if err != nil || !ok {
			t.Fatalf("receipt of %s: %v, %v", tx.Hash(), ok, err)
		}
		want, _, _ := local.TransactionReceipt(tx.Hash())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("receipt of %s over JSON-RPC:\n%+v\n%s\nin process:\n%+v\n%s", tx.Hash(), *got, dumpLogs(got.Logs), *want, dumpLogs(want.Logs))
		}
	}
}

func dumpLogs(logs []*ethtypes.Log) string {
	var b strings.Builder
	for _, l := range logs {
		fmt.Fprintf(&b, "%+v\n", *l)
	}
	return b.String()
}
