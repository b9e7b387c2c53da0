package rpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// rig spins up a devnet behind an httptest server and returns a web3
// client connected through the full JSON-RPC round trip.
func rig(t *testing.T) (*web3.Client, []wallet.Account, *httptest.Server) {
	t.Helper()
	accs := wallet.DevAccounts("rpc test", 3)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	bc := chain.New(g)
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	srv := httptest.NewServer(NewServer(bc, ks))
	t.Cleanup(srv.Close)
	client, err := web3.NewClient(Dial(srv.URL), ks)
	if err != nil {
		t.Fatal(err)
	}
	return client, accs, srv
}

func TestBasicsOverHTTP(t *testing.T) {
	client, accs, _ := rig(t)
	if client.ChainID() != 1337 {
		t.Fatalf("chain id = %d", client.ChainID())
	}
	n, err := client.Backend().BlockNumber()
	if err != nil || n != 0 {
		t.Fatalf("block number %d %v", n, err)
	}
	bal, err := client.Backend().GetBalance(accs[0].Address)
	if err != nil || bal != ethtypes.Ether(100) {
		t.Fatalf("balance %s %v", ethtypes.FormatEther(bal), err)
	}
}

func TestTransferOverHTTP(t *testing.T) {
	client, accs, _ := rig(t)
	rcpt, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(7)}, accs[1].Address)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Succeeded() {
		t.Fatal("transfer failed")
	}
	bal, _ := client.Backend().GetBalance(accs[1].Address)
	if bal != ethtypes.Ether(107) {
		t.Fatalf("recipient balance %s", ethtypes.FormatEther(bal))
	}
}

// TestGetTransactionByHashReusesAdmissionRecovery pins the read-back end
// of the exactly-once rule: the transaction the node sealed carries the
// sender it recovered at admission, so eth_getTransactionByHash reports
// "from" without going back to the curve — on the first read and on the
// second.
func TestGetTransactionByHashReusesAdmissionRecovery(t *testing.T) {
	client, accs, srv := rig(t)
	r0, _ := ethtypes.SenderStats()
	rcpt, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := ethtypes.SenderStats(); r != r0+1 {
		t.Fatalf("admitting one raw transaction recovered %d senders, want 1", r-r0)
	}
	for read := 1; read <= 2; read++ {
		var tx struct {
			Hash             string `json:"hash"`
			From             string `json:"from"`
			BlockHash        string `json:"blockHash"`
			BlockNumber      string `json:"blockNumber"`
			TransactionIndex string `json:"transactionIndex"`
		}
		call(t, srv.URL, "eth_getTransactionByHash", `["`+rcpt.TxHash.Hex()+`"]`, &tx)
		if tx.Hash != rcpt.TxHash.Hex() || tx.From != accs[0].Address.Hex() {
			t.Fatalf("read %d: hash %s from %s", read, tx.Hash, tx.From)
		}
		// A mined transaction carries its position, as in a full block.
		if tx.BlockHash != rcpt.BlockHash.Hex() || tx.BlockHash != headHash(t, srv.URL) ||
			tx.BlockNumber != hexutil.EncodeUint64(rcpt.BlockNumber) || tx.TransactionIndex != "0x0" {
			t.Fatalf("read %d: position block %s number %s index %s, want %s %d 0",
				read, tx.BlockHash, tx.BlockNumber, tx.TransactionIndex, rcpt.BlockHash.Hex(), rcpt.BlockNumber)
		}
		if r, _ := ethtypes.SenderStats(); r != r0+1 {
			t.Fatalf("read %d recovered %d more senders, want 0", read, r-r0-1)
		}
	}
}

const rpcCounterSrc = `
contract Counter {
	uint public count;
	event bumped(address indexed who, uint v);
	function increment() public { count += 1; emit bumped(msg.sender, count); }
	function guarded() public { require(false, "nope"); }
}`

// TestStorageAtOverHTTP: the client's StorageAt reads a slot through
// eth_getStorageAt. The server takes a slot as a 32-byte word (leading
// zeros included) or as a quantity, and refuses one wider than 256 bits
// as a bad parameter.
func TestStorageAtOverHTTP(t *testing.T) {
	client, accs, srv := rig(t)
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
			t.Fatal(err)
		}
	}
	count, err := client.Backend().StorageAt(bound.Address, minisol.StorageSlot(0))
	if err != nil || uint256.SetBytes(count[:]) != uint256.NewUint64(2) {
		t.Fatalf("count slot = %s, %v; want 2", count, err)
	}
	if empty, err := client.Backend().StorageAt(bound.Address, minisol.StorageSlot(1)); err != nil || !empty.IsZero() {
		t.Fatalf("unused slot = %s, %v", empty, err)
	}
	var out string
	for _, form := range []string{"0x0", "0x" + strings.Repeat("0", 64)} {
		if err := Dial(srv.URL).Call(&out, "eth_getStorageAt", bound.Address.Hex(), form, "latest"); err != nil || out != count.Hex() {
			t.Fatalf("slot 0 as %s = %q, %v; want %s", form, out, err, count.Hex())
		}
	}
	wide := "0x1" + strings.Repeat("0", 64)
	if err := Dial(srv.URL).Call(&out, "eth_getStorageAt", bound.Address.Hex(), wide, "latest"); err == nil || !strings.Contains(err.Error(), "bad storage slot") {
		t.Fatalf("257-bit slot: %q, %v; want a bad storage slot error", out, err)
	}
}

func TestContractLifecycleOverHTTP(t *testing.T) {
	client, accs, _ := rig(t)
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bound, rcpt, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.ContractAddress == nil {
		t.Fatal("no contract address")
	}
	code, _ := client.Backend().GetCode(bound.Address)
	if len(code) == 0 {
		t.Fatal("code not visible over RPC")
	}
	if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
		t.Fatal(err)
	}
	if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
		t.Fatal(err)
	}
	v, err := bound.CallUint(accs[1].Address, "count")
	if err != nil || v.Uint64() != 2 {
		t.Fatalf("count = %s, %v", v, err)
	}
	// Events over eth_getLogs.
	evs, err := bound.FilterEvents("bumped", 0)
	if err != nil || len(evs) != 2 {
		t.Fatalf("events = %d, %v", len(evs), err)
	}
	if evs[1].Args["v"].(uint256.Int).Uint64() != 2 {
		t.Fatal("event arg")
	}
	// Revert reason propagates through estimate (which runs first).
	_, err = bound.Transact(web3.TxOpts{From: accs[1].Address}, "guarded")
	if err == nil {
		t.Fatal("guarded succeeded")
	}
	var rev *web3.RevertError
	if !errorsAs(err, &rev) || rev.Reason != "nope" {
		t.Fatalf("err = %v", err)
	}
}

// errorsAs is errors.As without importing errors twice in examples.
func errorsAs(err error, target interface{}) bool {
	switch tgt := target.(type) {
	case **web3.RevertError:
		for err != nil {
			if re, ok := err.(*web3.RevertError); ok {
				*tgt = re
				return true
			}
			type unwrapper interface{ Unwrap() error }
			u, ok := err.(unwrapper)
			if !ok {
				return false
			}
			err = u.Unwrap()
		}
	}
	return false
}

func TestIncreaseTimeOverHTTP(t *testing.T) {
	client, accs, _ := rig(t)
	var secs string
	if err := client.Backend().(*Client).Call(&secs, "evm_increaseTime", uint64(7200)); err != nil || secs != "0x1c20" {
		t.Fatalf("evm_increaseTime = %q, %v", secs, err)
	}
	// Mine a block to observe the timestamp.
	if _, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: uint256.One}, accs[1].Address); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRPCErrors(t *testing.T) {
	_, _, srv := rig(t)
	post := func(body string) map[string]interface{} {
		resp, err := http.Post(srv.URL, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	// Unknown method.
	out := post(`{"jsonrpc":"2.0","id":1,"method":"eth_unknown","params":[]}`)
	if out["error"] == nil {
		t.Fatal("unknown method accepted")
	}
	// Parse error.
	out = post(`{not json`)
	if out["error"] == nil {
		t.Fatal("garbage accepted")
	}
	// Bad params.
	out = post(`{"jsonrpc":"2.0","id":1,"method":"eth_getBalance","params":["nothex"]}`)
	if out["error"] == nil {
		t.Fatal("bad address accepted")
	}
	// Batch requests.
	resp, err := http.Post(srv.URL, "application/json", bytes.NewBufferString(
		`[{"jsonrpc":"2.0","id":1,"method":"eth_chainId","params":[]},
		  {"jsonrpc":"2.0","id":2,"method":"eth_blockNumber","params":[]}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil || len(batch) != 2 {
		t.Fatalf("batch = %v, %v", batch, err)
	}
	if batch[0]["result"] != "0x539" { // 1337
		t.Fatalf("chainId = %v", batch[0]["result"])
	}
}

func TestGetBlockOverHTTP(t *testing.T) {
	client, accs, srv := rig(t)
	client.Transfer(web3.TxOpts{From: accs[0].Address, Value: uint256.One}, accs[1].Address)
	resp, err := http.Post(srv.URL, "application/json", bytes.NewBufferString(
		`{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["latest", false]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Result map[string]interface{} `json:"result"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if out.Result["number"] != "0x1" {
		t.Fatalf("block number = %v", out.Result["number"])
	}
	txs := out.Result["transactions"].([]interface{})
	if len(txs) != 1 {
		t.Fatal("tx list")
	}
}

func TestDebugTraceCallOverHTTP(t *testing.T) {
	client, accs, srv := rig(t)
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	input, _ := art.ABI.Pack("increment")
	body := `{"jsonrpc":"2.0","id":1,"method":"debug_traceCall","params":[{"from":"` +
		accs[0].Address.Hex() + `","to":"` + bound.Address.Hex() + `","data":"` +
		hexEncode(input) + `"}]}`
	resp, err := http.Post(srv.URL, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Result struct {
			Gas      string         `json:"gas"`
			Failed   bool           `json:"failed"`
			Steps    int            `json:"steps"`
			OpCounts map[string]int `json:"opCounts"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Failed || out.Result.Steps == 0 {
		t.Fatalf("trace = %+v", out.Result)
	}
	if out.Result.OpCounts["SSTORE"] == 0 {
		t.Fatal("SSTORE missing from trace")
	}
}

func hexEncode(b []byte) string {
	const digits = "0123456789abcdef"
	out := []byte{'0', 'x'}
	for _, c := range b {
		out = append(out, digits[c>>4], digits[c&0xf])
	}
	return string(out)
}
