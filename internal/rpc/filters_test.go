package rpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// call posts one JSON-RPC request and decodes the result into out.
func call(t *testing.T, url, method, params string, out interface{}) {
	t.Helper()
	body := `{"jsonrpc":"2.0","id":1,"method":"` + method + `","params":` + params + `}`
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error != nil {
		t.Fatalf("%s: %s", method, envelope.Error.Message)
	}
	if out != nil {
		if err := json.Unmarshal(envelope.Result, out); err != nil {
			t.Fatalf("%s result: %v", method, err)
		}
	}
}

// headHash fetches the head block's hash over RPC.
func headHash(t *testing.T, url string) string {
	t.Helper()
	var blk struct {
		Hash string `json:"hash"`
	}
	call(t, url, "eth_getBlockByNumber", `["latest", false]`, &blk)
	return blk.Hash
}

func TestBlockFilterPolling(t *testing.T) {
	client, accs, srv := rig(t)

	var id string
	call(t, srv.URL, "eth_newBlockFilter", `[]`, &id)

	// Nothing sealed yet: empty (and an array, not null).
	var hashes []string
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &hashes)
	if hashes == nil || len(hashes) != 0 {
		t.Fatalf("changes before any block: %v", hashes)
	}

	client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address)
	client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address)

	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &hashes)
	if len(hashes) != 2 {
		t.Fatalf("changes = %v", hashes)
	}
	if hashes[1] != headHash(t, srv.URL) {
		t.Fatal("newest change is not the head block")
	}

	// The poll consumed the backlog.
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &hashes)
	if len(hashes) != 0 {
		t.Fatalf("changes delivered twice: %v", hashes)
	}

	var removed bool
	call(t, srv.URL, "eth_uninstallFilter", `["`+id+`"]`, &removed)
	if !removed {
		t.Fatal("uninstall reported false")
	}
	// Polling an uninstalled filter errors.
	resp, err := http.Post(srv.URL, "application/json", bytes.NewBufferString(
		`{"jsonrpc":"2.0","id":1,"method":"eth_getFilterChanges","params":["`+id+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error *rpcError `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&envelope)
	if envelope.Error == nil {
		t.Fatal("uninstalled filter still polls")
	}
}

func TestLogFilterPolling(t *testing.T) {
	client, accs, srv := rig(t)
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}

	// Filter scoped to the contract address, watching from creation on.
	var id string
	call(t, srv.URL, "eth_newFilter", `[{"address":"`+bound.Address.Hex()+`"}]`, &id)

	type logObj struct {
		Address     string   `json:"address"`
		BlockNumber string   `json:"blockNumber"`
		BlockHash   string   `json:"blockHash"`
		TxHash      string   `json:"transactionHash"`
		LogIndex    string   `json:"logIndex"`
		Topics      []string `json:"topics"`
	}
	var logs []logObj
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &logs)
	if len(logs) != 0 {
		t.Fatalf("deploy log leaked into a just-created filter: %v", logs)
	}

	if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
		t.Fatal(err)
	}
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &logs)
	if len(logs) != 1 {
		t.Fatalf("changes = %+v", logs)
	}
	l := logs[0]
	if l.Address != bound.Address.Hex() {
		t.Fatal("wrong address")
	}
	// The satellite regression: blockHash and blockNumber must be real.
	if l.BlockNumber == "" || l.BlockHash != headHash(t, srv.URL) {
		t.Fatalf("log lacks block position: %+v", l)
	}

	// Drained.
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &logs)
	if len(logs) != 0 {
		t.Fatal("log delivered twice")
	}

	// eth_getFilterLogs ignores the cursor: full history each call.
	if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
		t.Fatal(err)
	}
	call(t, srv.URL, "eth_getFilterLogs", `["`+id+`"]`, &logs)
	if len(logs) != 2 {
		t.Fatalf("getFilterLogs = %d logs", len(logs))
	}

	// Explicit fromBlock replays history through getFilterChanges too.
	var histID string
	call(t, srv.URL, "eth_newFilter", `[{"fromBlock":"0x0","address":"`+bound.Address.Hex()+`"}]`, &histID)
	call(t, srv.URL, "eth_getFilterChanges", `["`+histID+`"]`, &logs)
	if len(logs) != 2 {
		t.Fatalf("historic filter = %d logs", len(logs))
	}
}

// TestGetLogsNamedFromBlock: every named fromBlock tag resolves through
// the same rule as toBlock — "latest", "pending" and "safe" are the
// head, not genesis. A polling filter created at "latest" still watches
// only later blocks; eth_getFilterLogs reads it from the head it was
// created at.
func TestGetLogsNamedFromBlock(t *testing.T) {
	client, accs, srv := rig(t)
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	increment := func() {
		t.Helper()
		if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		increment()
	}
	var logs []struct {
		BlockHash string `json:"blockHash"`
	}
	for tag, want := range map[string]int{"latest": 1, "pending": 1, "safe": 1, "finalized": 1, "earliest": 3} {
		call(t, srv.URL, "eth_getLogs", `[{"fromBlock":"`+tag+`"}]`, &logs)
		if len(logs) != want {
			t.Fatalf("fromBlock %q: %d logs, want %d", tag, len(logs), want)
		}
		if logs[want-1].BlockHash != headHash(t, srv.URL) {
			t.Fatalf("fromBlock %q: newest log is not the head's", tag)
		}
	}

	var id string
	call(t, srv.URL, "eth_newFilter", `[{"fromBlock":"latest","address":"`+bound.Address.Hex()+`"}]`, &id)
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &logs)
	if len(logs) != 0 {
		t.Fatalf("a filter created at latest reported %d earlier logs", len(logs))
	}
	increment()
	call(t, srv.URL, "eth_getFilterChanges", `["`+id+`"]`, &logs)
	if len(logs) != 1 {
		t.Fatalf("changes = %d logs, want 1", len(logs))
	}
	// The head at creation and the block sealed since.
	call(t, srv.URL, "eth_getFilterLogs", `["`+id+`"]`, &logs)
	if len(logs) != 2 {
		t.Fatalf("getFilterLogs = %d logs, want 2", len(logs))
	}
}

func TestGetBlockFullTransactions(t *testing.T) {
	client, accs, srv := rig(t)
	client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address)

	var blk struct {
		Hash         string                   `json:"hash"`
		Transactions []map[string]interface{} `json:"transactions"`
	}
	call(t, srv.URL, "eth_getBlockByNumber", `["latest", true]`, &blk)
	if len(blk.Transactions) != 1 {
		t.Fatalf("transactions = %v", blk.Transactions)
	}
	tx := blk.Transactions[0]
	if tx["blockHash"] != blk.Hash || tx["transactionIndex"] != "0x0" {
		t.Fatalf("full tx object incomplete: %v", tx)
	}
	if tx["from"] != accs[0].Address.Hex() || tx["to"] != accs[1].Address.Hex() {
		t.Fatalf("full tx object addresses: %v", tx)
	}

	// Tags resolve: safe/finalized are the head on an instant-seal chain.
	var tagged struct {
		Hash string `json:"hash"`
	}
	call(t, srv.URL, "eth_getBlockByNumber", `["finalized", false]`, &tagged)
	if tagged.Hash != blk.Hash {
		t.Fatal("finalized tag does not resolve to head")
	}
}

// TestLogsSurviveRestart is the regression for log blockNumber/blockHash
// against a restarted persistent node: eth_getLogs must return identical
// positions before and after recovery.
func TestLogsSurviveRestart(t *testing.T) {
	accs := wallet.DevAccounts("rpc restart", 3)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	dir := t.TempDir()
	open := func() *chain.Blockchain {
		bc, err := chain.Open(g, chain.WithPersistence(chain.PersistConfig{
			DataDir: dir, SnapshotInterval: 4, NoSync: true,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}

	rigOn := func(bc *chain.Blockchain) (*web3.Client, *httptest.Server) {
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
		return client, srv
	}

	bc := open()
	client, srv := rigOn(bc)
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := bound.Transact(web3.TxOpts{From: accs[1].Address}, "increment"); err != nil {
			t.Fatal(err)
		}
	}

	var before []map[string]interface{}
	call(t, srv.URL, "eth_getLogs", `[{"fromBlock":"0x0"}]`, &before)
	if len(before) != 5 {
		t.Fatalf("%d logs before restart", len(before))
	}
	// Crash-style: no Close. The journal already holds every block.
	srv.Close()

	bc2 := open()
	defer bc2.Close()
	_, srv2 := rigOn(bc2)
	var after []map[string]interface{}
	call(t, srv2.URL, "eth_getLogs", `[{"fromBlock":"0x0"}]`, &after)
	if len(after) != len(before) {
		t.Fatalf("%d logs after restart, want %d", len(after), len(before))
	}
	for i := range before {
		for _, k := range []string{"blockNumber", "blockHash", "transactionHash", "transactionIndex", "logIndex", "address", "data"} {
			if before[i][k] != after[i][k] {
				t.Fatalf("log %d field %s changed across restart: %v != %v", i, k, before[i][k], after[i][k])
			}
		}
		if h, _ := before[i]["blockHash"].(string); len(h) != 66 || h == (ethtypes.Hash{}).Hex() {
			t.Fatalf("log %d blockHash malformed: %v", i, before[i]["blockHash"])
		}
	}
}

// TestUninstallFilterIdempotent covers eth_uninstallFilter's contract:
// removing an unknown, expired or already-removed ID answers false —
// never an error — so clients can uninstall without racing the reaper.
func TestUninstallFilterIdempotent(t *testing.T) {
	_, _, srv := rig(t)

	var id string
	call(t, srv.URL, "eth_newBlockFilter", `[]`, &id)

	var removed bool
	call(t, srv.URL, "eth_uninstallFilter", `["`+id+`"]`, &removed)
	if !removed {
		t.Fatal("first uninstall reported false")
	}
	// Removing it again: false result, not an error envelope.
	call(t, srv.URL, "eth_uninstallFilter", `["`+id+`"]`, &removed)
	if removed {
		t.Fatal("repeat uninstall reported true")
	}
	// Never-installed ID: same.
	call(t, srv.URL, "eth_uninstallFilter", `["0xdeadbeef"]`, &removed)
	if removed {
		t.Fatal("unknown uninstall reported true")
	}
}

// TestFilterTTLReap verifies expired filters are swept on every
// registry operation — get, uninstall and install — not only install,
// and that polling refreshes a filter's expiry clock.
func TestFilterTTLReap(t *testing.T) {
	var r filterRegistry
	stale := r.install(&filter{kind: blockFilter})
	fresh := r.install(&filter{kind: blockFilter})

	// Age the first filter past its TTL.
	r.mu.Lock()
	r.filters[stale].lastUsed = time.Now().Add(-filterTimeout - time.Minute)
	r.mu.Unlock()

	// Polling a different filter reaps the stale one.
	if _, err := r.get(fresh); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	_, alive := r.filters[stale]
	n := len(r.filters)
	r.mu.Unlock()
	if alive || n != 1 {
		t.Fatalf("stale filter survived poll of another ID (len=%d)", n)
	}
	// Uninstalling the reaped ID is the idempotent false, not an error.
	if r.uninstall(stale) {
		t.Fatal("uninstall of reaped filter returned true")
	}

	// A poll refreshes lastUsed, keeping a near-expiry filter alive.
	r.mu.Lock()
	r.filters[fresh].lastUsed = time.Now().Add(-filterTimeout + time.Second)
	r.mu.Unlock()
	if _, err := r.get(fresh); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	age := time.Since(r.filters[fresh].lastUsed)
	r.mu.Unlock()
	if age > time.Minute {
		t.Fatalf("poll did not refresh lastUsed (age %v)", age)
	}
}

// TestFilterRegistryCap verifies the registry never grows past
// maxFilters: installing at the cap evicts the stalest live entry.
func TestFilterRegistryCap(t *testing.T) {
	var r filterRegistry
	first := r.install(&filter{kind: blockFilter})
	for i := 1; i < maxFilters; i++ {
		r.install(&filter{kind: logFilter})
	}
	r.mu.Lock()
	n := len(r.filters)
	r.mu.Unlock()
	if n != maxFilters {
		t.Fatalf("registry at %d, want %d", n, maxFilters)
	}

	// One more: the oldest handle is evicted, the size holds.
	r.install(&filter{kind: blockFilter})
	r.mu.Lock()
	_, alive := r.filters[first]
	n = len(r.filters)
	r.mu.Unlock()
	if n != maxFilters {
		t.Fatalf("registry grew past cap: %d", n)
	}
	if alive {
		t.Fatal("stalest filter not evicted at cap")
	}
}
