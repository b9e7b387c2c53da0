package node

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/obs"
	"legalchain/internal/rpc"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/ws"
)

// config builds a Config the way the binaries do: the shared flags
// parsed from args on a fresh FlagSet (watch defaulting as given), then
// a funded genesis.
func config(t *testing.T, watch bool, args ...string) Config {
	t.Helper()
	cfg := Config{Watch: watch}
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	RegisterFlags(fs, &cfg)
	if err := fs.Parse(append([]string{"-log-level", "error"}, args...)); err != nil {
		t.Fatal(err)
	}
	cfg.Accounts = wallet.DevAccounts("node test", 2)
	cfg.Genesis = chain.DefaultGenesis()
	cfg.Genesis.Alloc = wallet.DevAlloc(cfg.Accounts, ethtypes.Ether(100))
	return cfg
}

func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func shutdown(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// transfer sends one signed value transfer over the node's JSON-RPC
// listener; the devnet seals it into its own block.
func transfer(t *testing.T, n *Node, from wallet.Account) {
	t.Helper()
	to := ethtypes.HexToAddress("0x00000000000000000000000000000000000000aa")
	tx := &ethtypes.Transaction{Nonce: n.Chain.GetNonce(from.Address), GasPrice: ethtypes.Gwei(1), Gas: 21_000, To: &to, Value: ethtypes.Ether(1)}
	if err := tx.Sign(from.Key, n.Chain.ChainID()); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Dial("http://" + n.RPCAddr).SendRawTransaction(tx.Encode()); err != nil {
		t.Fatal(err)
	}
}

// get fetches url and returns its status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// watchFolded reads the watchtower's folded height from /healthz.
func watchFolded(t *testing.T, n *Node) uint64 {
	t.Helper()
	code, body := get(t, "http://"+n.MetricsAddr+"/healthz")
	var h struct {
		Watch struct{ Folded uint64 } `json:"watch"`
	}
	if err := json.Unmarshal(body, &h); code != http.StatusOK || err != nil {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	return h.Watch.Folded
}

// TestRentaldProfile starts every tier in memory on ephemeral ports and
// reaches each listener.
func TestRentaldProfile(t *testing.T) {
	cfg := config(t, true, "-ws-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	cfg.WebAddr, cfg.RPCAddr = "127.0.0.1:0", "127.0.0.1:0"
	n := start(t, cfg)

	if bn, err := rpc.Dial("http://" + n.RPCAddr).BlockNumber(); err != nil || bn != 0 {
		t.Fatalf("eth_blockNumber = %d, %v", bn, err)
	}

	conn, err := ws.Dial("ws://"+n.WSAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(ws.CloseNormal, "")
	if err := conn.WriteText(`{"jsonrpc":"2.0","id":1,"method":"eth_subscribe","params":["newHeads"]}`); err != nil {
		t.Fatal(err)
	}
	read := func() (msg struct {
		ID     int    `json:"id"`
		Method string `json:"method"`
		Params struct {
			Result struct{ Number string } `json:"result"`
		} `json:"params"`
	}) {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(payload, &msg); err != nil {
			t.Fatalf("bad frame %s: %v", payload, err)
		}
		return msg
	}
	if msg := read(); msg.ID != 1 {
		t.Fatalf("subscribe reply: %+v", msg)
	}
	transfer(t, n, cfg.Accounts[0])
	if msg := read(); msg.Method != "eth_subscription" || msg.Params.Result.Number != "0x1" {
		t.Fatalf("newHeads notification: %+v", msg)
	}

	if code, body := get(t, "http://"+n.MetricsAddr+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	if code, _ := get(t, "http://"+n.WebAddr+"/login"); code != http.StatusOK {
		t.Fatalf("/login: %d", code)
	}
	shutdown(t, n)
}

// TestDurableDevnetRestart seals blocks on a durable devnet profile,
// restarts it and finds the same head and state, and a watchtower that
// refolded the chain before the node served.
func TestDurableDevnetRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := config(t, false, "-datadir", dir, "-watch", "-metrics-addr", "127.0.0.1:0")
	cfg.RPCAddr = "127.0.0.1:0"
	n := start(t, cfg)
	for i := 0; i < 3; i++ {
		transfer(t, n, cfg.Accounts[i%2])
	}
	head := n.Chain.View().Head()
	if head.Number() != 3 {
		t.Fatalf("head #%d after three transfers", head.Number())
	}
	for deadline := time.Now().Add(5 * time.Second); watchFolded(t, n) != 3; {
		if time.Now().After(deadline) {
			t.Fatal("watchtower did not fold to the head")
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown(t, n)
	if m, _ := filepath.Glob(filepath.Join(dir, "chain/blocks-*.seg")); len(m) == 0 {
		t.Fatal("no chain/blocks-*.seg in the data directory")
	}
	// The watchtower stores nothing, and a watch/ directory left by an
	// older layout is ignored.
	if _, err := os.Stat(filepath.Join(dir, "watch")); !os.IsNotExist(err) {
		t.Fatalf("watch/ in the data directory: %v", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "watch"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "watch", "events-0000000000.seg"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	n = start(t, cfg)
	defer shutdown(t, n)
	got := n.Chain.View().Head()
	if got.Hash() != head.Hash() || got.Header.StateRoot != head.Header.StateRoot {
		t.Fatalf("restarted at #%d %s, want #%d %s", got.Number(), got.Hash().Hex(), head.Number(), head.Hash().Hex())
	}
	if folded := watchFolded(t, n); folded != 3 {
		t.Fatalf("watchtower folded %d after restart, want 3", folded)
	}
}

// TestRentaldRestartKeepsBusinessTier runs a rental agreement on the
// durable rentald profile, restarts the node and carries on with it: the
// modification's guard checks the predecessor's storage layout, the
// audit resolves every version's ABI and layout, the new version reads
// the data written before the restart through the same DataStorage, and
// the first version's legal document is still served.
func TestRentaldRestartKeepsBusinessTier(t *testing.T) {
	dir := t.TempDir()
	cfg := config(t, false, "-datadir", dir)
	cfg.WebAddr = "127.0.0.1:0"
	landlord, tenant := cfg.Accounts[0].Address, cfg.Accounts[1].Address
	doc := []byte("%PDF-1.4 rental agreement v1")

	n := start(t, cfg)
	svc := core.NewRentalService(n.Manager)
	dep, err := svc.DeployRental(landlord, core.RentalTerms{Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2),
		Months: 12, House: "10115-Berlin-42", LegalDoc: doc})
	if err != nil {
		t.Fatal(err)
	}
	v1 := dep.Contract.Address
	if err := svc.Confirm(tenant, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PayRent(tenant, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Manager.SetValue(landlord, v1, "clause.pets", "allowed"); err != nil {
		t.Fatal(err)
	}
	dataStorage := n.Manager.DataStorageAddress()
	shutdown(t, n)

	n = start(t, cfg)
	defer shutdown(t, n)
	m := n.Manager
	svc = core.NewRentalService(m)
	if got := m.DataStorageAddress(); got != dataStorage {
		t.Fatalf("DataStorage after restart = %s, want %s", got.Hex(), dataStorage.Hex())
	}
	terms := core.ModifiedTerms{Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "10115-Berlin-42",
		MaintenanceFee: ethtypes.Ether(1), Discount: uint256.Zero, Fine: ethtypes.Ether(1)}
	report, err := m.VerifyUpgrade(landlord, v1, contracts.MustArtifact("RentalAgreementV2"), nil,
		terms.Rent, terms.Deposit, terms.Months, terms.House, terms.MaintenanceFee, terms.Discount, terms.Fine)
	if err != nil {
		t.Fatalf("guard after restart: %v", err)
	}
	if !report.OK() || !report.LayoutChecked || strings.Contains(strings.Join(report.Notes, "\n"), "layout check skipped") {
		t.Fatalf("guard after restart: ok %v, layout checked %v, notes %q", report.OK(), report.LayoutChecked, report.Notes)
	}
	next, err := svc.Modify(landlord, v1, terms)
	if err != nil {
		t.Fatal(err)
	}
	v2 := next.Contract.Address

	audit, err := m.AuditChain(tenant, v2)
	if err != nil || !audit.ChainVerified || len(audit.Versions) != 2 {
		t.Fatalf("audit after restart: %+v, %v", audit, err)
	}
	for _, v := range audit.Versions {
		if !v.HasABI || !v.HasLayout {
			t.Fatalf("version %s after restart: ABI %v, layout %v", v.Address, v.HasABI, v.HasLayout)
		}
	}
	snap, err := m.LoadSnapshot(landlord, v2)
	if err != nil || snap["clause.pets"] != "allowed" {
		t.Fatalf("v2 snapshot after restart = %v, %v; want the key written before it", snap, err)
	}
	if got := m.DataStorageAddress(); got != dataStorage {
		t.Fatalf("the modification deployed DataStorage %s; want %s kept", got.Hex(), dataStorage.Hex())
	}
	if got, err := m.LegalDocument(v1); err != nil || string(got) != string(doc) {
		t.Fatalf("v1 document after restart = %q, %v", got, err)
	}
}

// TestStartFailureReleasesEverything occupies the last listener's port:
// Start must fail, close the listeners it bound and close every tier
// it opened.
func TestStartFailureReleasesEverything(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rpcAddr := probe.Addr().String()
	probe.Close()

	dir := t.TempDir()
	cfg := config(t, true, "-datadir", dir, "-metrics-addr", busy.Addr().String())
	cfg.WebAddr, cfg.RPCAddr = "127.0.0.1:0", rpcAddr
	if _, err := Start(cfg); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("Start on an occupied port: %v", err)
	}
	// Closing the chain writes its final snapshot: the chain was closed.
	if _, err := os.Stat(filepath.Join(dir, "chain", "state-0000000000.snap")); err != nil {
		t.Fatalf("chain not closed: %v", err)
	}
	// The listener bound before the failure was released, and the data
	// directory opens again.
	cfg.MetricsAddr = ""
	shutdown(t, start(t, cfg))
}

func TestOldDevnetLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "blocks-0000000000.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Start(config(t, false, "-datadir", dir))
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "chain")) {
		t.Fatalf("old layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "chain")); !os.IsNotExist(err) {
		t.Fatalf("a fresh chain was opened beside the old one: %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-state-store"},
		{"-retain-blocks", "8"},
		{"-state-cache", "0"},
	} {
		if _, err := Start(config(t, false, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestHealthzReportsLatchedPersistError: with a one-byte segment size
// every block append opens a new segment file, so removing the chain's
// directory makes the next seal's append fail and latch the chain's
// persistence error. /healthz then answers 503 and names the error, in
// the reason and in persistError.
func TestHealthzReportsLatchedPersistError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	bc, err := chain.Open(chain.DefaultGenesis(), chain.WithPersistence(chain.PersistConfig{DataDir: dir, SegmentSize: 1, NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	n := &Node{Chain: bc}
	srv := httptest.NewServer(obs.OpsHandler(false, n.health, n.ready))
	t.Cleanup(srv.Close)
	health := func() (int, map[string]interface{}) {
		code, body := get(t, srv.URL+"/healthz")
		var h map[string]interface{}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("/healthz: %d %s", code, body)
		}
		return code, h
	}

	bc.MineBlock()
	if code, h := health(); code != http.StatusOK || h["persistError"] != nil {
		t.Fatalf("before the failure: %d %v", code, h)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	bc.MineBlock()
	latched := bc.PersistErr()
	if latched == nil {
		t.Fatal("appending into a removed directory latched no error")
	}
	code, h := health()
	if code != http.StatusServiceUnavailable || h["status"] != "unavailable" {
		t.Fatalf("after the failure: %d %v", code, h)
	}
	if h["persistError"] != latched.Error() {
		t.Fatalf("persistError = %v, want %q", h["persistError"], latched)
	}
	if reason, _ := h["reason"].(string); !strings.Contains(reason, latched.Error()) {
		t.Fatalf("reason %q does not name %q", reason, latched)
	}
}
