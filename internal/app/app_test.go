package app

import (
	"errors"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// rig builds the full stack with a faucet and returns the app.
func rig(t testing.TB) *App {
	t.Helper()
	return rigOver(t, func(b *web3.LocalBackend) web3.Backend { return b })
}

// rigOver is rig with the node's backend wrapped, so a test can watch
// the calls the pages make.
func rigOver(t testing.TB, wrap func(*web3.LocalBackend) web3.Backend) *App {
	t.Helper()
	// Persistence on: the cross-tier trace test expects blockdb spans,
	// which only a durable chain produces.
	return rigPersist(t, wrap, chain.PersistConfig{DataDir: t.TempDir(), NoSync: true})
}

// rigPersist is rigOver on a chain persisted as pc says.
func rigPersist(t testing.TB, wrap func(*web3.LocalBackend) web3.Backend, pc chain.PersistConfig) *App {
	t.Helper()
	faucet := wallet.DevAccounts("app faucet", 1)[0]
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc([]wallet.Account{faucet}, ethtypes.Ether(1_000_000))
	bc, err := chain.Open(g, chain.WithPersistence(pc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	ks := wallet.NewKeystore()
	ks.Import(faucet.Key)
	client, err := web3.NewClient(wrap(web3.NewLocalBackend(bc)), ks)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := docstore.Open("")
	t.Cleanup(func() { store.Close() })
	m := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store)
	a := New(m)
	a.Faucet = faucet.Address
	return a
}

// TestNewRequiresInProcessNode: New refuses a backend that can neither
// pin a head view nor push heads, and says what it needs.
func TestNewRequiresInProcessNode(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "web3.HeadViewer and web3.HeadSubscriber") {
			t.Fatalf("New over a plain backend: panic %q", r)
		}
	}()
	rigOver(t, func(b *web3.LocalBackend) web3.Backend { return struct{ web3.Backend }{b} })
}

func TestRegisterLoginSessions(t *testing.T) {
	a := rig(t)
	u, err := a.Register("Eleana_Kafeza", "ek@example.com", "secret")
	if err != nil {
		t.Fatal(err)
	}
	// User funded by the faucet.
	bal, _ := a.Manager.Client.Backend().GetBalance(u.Addr())
	if bal != ethtypes.Ether(100) {
		t.Fatalf("balance = %s", ethtypes.FormatEther(bal))
	}
	// Duplicate rejected.
	if _, err := a.Register("eleana_kafeza", "", "x"); err != ErrUserExists {
		t.Fatalf("dup: %v", err)
	}
	// Wrong password rejected.
	if _, err := a.Login("eleana_kafeza", "wrong"); err != ErrBadCredentials {
		t.Fatal("wrong password accepted")
	}
	token, err := a.Login("Eleana_Kafeza", "secret")
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.SessionUser(token)
	if err != nil || got.Name != "eleana_kafeza" {
		t.Fatal("session resolution")
	}
	a.Logout(token)
	if _, err := a.SessionUser(token); err != ErrNoSession {
		t.Fatal("logout ineffective")
	}
}

// TestSessionUserKeepsTheLoginRow: a session resolves to the user row
// Login read, a copy the caller may change, and an authenticated
// request reads no user row: with the row gone from the store, the
// session still answers for its user.
func TestSessionUserKeepsTheLoginRow(t *testing.T) {
	a := rig(t)
	if _, err := a.Register("sessioned", "s@example.com", "pw"); err != nil {
		t.Fatal(err)
	}
	var stored User
	if err := a.Manager.Store.Get(TableUsers, "sessioned", &stored); err != nil {
		t.Fatal(err)
	}
	token, err := a.Login("sessioned", "pw")
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.SessionUser(token)
	if err != nil || *got != stored {
		t.Fatalf("SessionUser = %+v (%v), want the stored row %+v", got, err, stored)
	}
	got.Name = "changed"
	if again, _ := a.SessionUser(token); *again != stored {
		t.Fatalf("a caller's change reached the session: %+v", again)
	}

	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("browsing", "pw")
	if err := a.Manager.Store.Delete(TableUsers, "browsing"); err != nil {
		t.Fatal(err)
	}
	resp, body := b.get("/api/v1/me")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"name":"browsing"`) {
		t.Fatalf("/api/v1/me without the user row: %d %s", resp.StatusCode, body)
	}
}

// browser is a cookie-keeping test client.
type browser struct {
	t   *testing.T
	c   *http.Client
	url string
}

func newBrowser(t *testing.T, srv *httptest.Server) *browser {
	jar, _ := cookiejar.New(nil)
	return &browser{t: t, c: &http.Client{Jar: jar}, url: srv.URL}
}

func (b *browser) post(path string, form url.Values) (*http.Response, string) {
	b.t.Helper()
	resp, err := b.c.PostForm(b.url+path, form)
	if err != nil {
		b.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func (b *browser) get(path string) (*http.Response, string) {
	b.t.Helper()
	resp, err := b.c.Get(b.url + path)
	if err != nil {
		b.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func (b *browser) register(name, pass string) {
	b.t.Helper()
	resp, body := b.post("/register", url.Values{"name": {name}, "email": {name + "@x.io"}, "password": {pass}})
	if resp.StatusCode != http.StatusOK {
		b.t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	resp, body = b.post("/login", url.Values{"name": {name}, "password": {pass}})
	if resp.StatusCode != http.StatusOK {
		b.t.Fatalf("login: %d %s", resp.StatusCode, body)
	}
}

// TestFullWebLifecycle drives the UI flows of Figs. 7–11 end to end:
// register, deploy (landlord), dashboard, confirm + pay rent (tenant),
// modify (landlord), confirm modification, terminate.
func TestFullWebLifecycle(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	landlord := newBrowser(t, srv)
	landlord.register("junaid_ali", "pw1")
	tenant := newBrowser(t, srv)
	tenant.register("eleana_kafeza", "pw2")

	// Malformed terms get the error page, not a contract.
	for _, bad := range []url.Values{
		{"artifact": {"BaseRental"}, "rent": {"-1"}, "deposit": {"2"}, "months": {"12"}},
		{"artifact": {"BaseRental"}, "rent": {"1"}, "deposit": {"2"}, "months": {"12abc"}},
	} {
		if resp, body := landlord.post("/deploy", bad); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "app: bad") {
			t.Fatalf("malformed deploy %v: %d %s", bad, resp.StatusCode, body)
		}
	}

	// Landlord deploys with a legal document (Fig. 10).
	resp, body := landlord.post("/deploy", url.Values{
		"artifact": {"BaseRental"},
		"rent":     {"1"}, "deposit": {"2"}, "months": {"12"},
		"house":    {"10115-Berlin-42"},
		"document": {"%PDF-1.4 the rental agreement in English"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %s", resp.StatusCode, body)
	}

	// Dashboard shows the contract for both users (Fig. 7).
	_, dash := landlord.get("/dashboard")
	if !strings.Contains(dash, "BaseRental") || !strings.Contains(dash, "AWAITING TENANT") {
		t.Fatalf("landlord dashboard:\n%s", dash)
	}
	_, dash = tenant.get("/dashboard")
	if !strings.Contains(dash, "CONFIRM AGREEMENT") {
		t.Fatalf("tenant dashboard missing confirm action:\n%s", dash)
	}
	addr := extractAddr(t, dash)

	// Contract page shows the document link.
	_, page := tenant.get("/contract/" + addr)
	if !strings.Contains(page, "/doc/"+addr) {
		t.Fatal("document link missing")
	}
	_, doc := tenant.get("/doc/" + addr)
	if !strings.Contains(doc, "rental agreement in English") {
		t.Fatal("document body wrong")
	}

	// Tenant confirms (pays deposit) and pays rent twice.
	if resp, body := tenant.post("/contract/"+addr+"/confirm", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("confirm: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 2; i++ {
		if resp, body := tenant.post("/contract/"+addr+"/pay", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("pay: %d %s", resp.StatusCode, body)
		}
	}
	_, page = tenant.get("/contract/" + addr)
	if !strings.Contains(page, "<td>2</td>") { // month 2 row
		t.Fatalf("payment history missing:\n%s", page)
	}

	// Landlord modifies (Fig. 11) — new linked version.
	resp, body = landlord.post("/contract/"+addr+"/modify", url.Values{
		"rent": {"1"}, "deposit": {"2"}, "months": {"12"},
		"house":       {"10115-Berlin-42"},
		"maintenance": {"0.5"}, "discount": {"0"}, "fine": {"1"},
		"document": {"%PDF-1.4 updated agreement with maintenance clause"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("modify: %d %s", resp.StatusCode, body)
	}
	// The old page now shows a two-version evidence line.
	_, page = landlord.get("/contract/" + addr)
	if strings.Count(page, "— v") < 2 {
		t.Fatalf("version chain not shown:\n%s", page)
	}
	newAddr := lastAddr(t, page)
	if strings.EqualFold(newAddr, addr) {
		t.Fatal("no new version found")
	}

	// Tenant confirms the modification: old version terminates, new starts.
	if resp, body := tenant.post("/contract/"+newAddr+"/confirm-modification", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("confirm-modification: %d %s", resp.StatusCode, body)
	}
	_, page = tenant.get("/contract/" + newAddr)
	if !strings.Contains(page, "PAY MAINTENANCE") {
		t.Fatalf("maintenance action missing on v2:\n%s", page)
	}
	if resp, _ := tenant.post("/contract/"+newAddr+"/maintenance", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("maintenance payment failed")
	}
	// Cross-version history on the new page shows old payments too.
	if !strings.Contains(page, "v1") {
		t.Fatalf("history lost v1 rows:\n%s", page)
	}

	// Terminate from the tenant side.
	if resp, _ := tenant.post("/contract/"+newAddr+"/terminate", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("terminate failed")
	}
	_, dash = tenant.get("/dashboard")
	if !strings.Contains(dash, "terminated") {
		t.Fatalf("termination not reflected:\n%s", dash)
	}
}

func TestUploadArtifactFlow(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	b := newBrowser(t, srv)
	b.register("uploader", "pw")

	// Compile-from-source path.
	src := `contract Tiny { uint public x; function set(uint v) public { x = v; } }`
	resp, body := b.post("/upload", url.Values{"source": {src}, "contract": {"Tiny"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	_, dash := b.get("/dashboard")
	if !strings.Contains(dash, "tiny") {
		t.Fatalf("artifact not listed:\n%s", dash)
	}
	// Raw bytecode + ABI path (Fig. 9): re-upload Tiny's artifact bytes.
	art, err := a.GetArtifact("tiny")
	if err != nil {
		t.Fatal(err)
	}
	resp, body = b.post("/upload", url.Values{
		"name":     {"tiny2"},
		"abi":      {string(art.ABIJSON)},
		"bytecode": {"0x" + hexOf(art.Bytecode)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw upload: %d %s", resp.StatusCode, body)
	}
	if _, err := a.GetArtifact("tiny2"); err != nil {
		t.Fatal(err)
	}
	// Garbage rejected.
	resp, _ = b.post("/upload", url.Values{"name": {"bad"}, "abi": {"not json"}, "bytecode": {"0x00"}})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("invalid ABI accepted")
	}
}

// TestCompiledUploadIsVersioned: an artifact compiled on the upload
// page keeps its storage layout, so the version deployed from it
// publishes the layout and its pointers are read at the slots it names.
// The same bytecode uploaded raw has no layout, and its version is not
// versioned.
func TestCompiledUploadIsVersioned(t *testing.T) {
	a := rig(t)
	u, err := a.Register("uploader", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	src := `contract Linked { uint public x; address public next; address public previous;
		function setNext(address n) public { next = n; } }`
	if _, err := a.CompileArtifact(u, src, "Linked"); err != nil {
		t.Fatal(err)
	}
	compiled, err := a.GetArtifact("linked")
	if err != nil || compiled.Layout == nil {
		t.Fatalf("compiled artifact: layout %v, %v", compiled.Layout, err)
	}
	if _, err := a.UploadArtifact(u, "raw", string(compiled.ABIJSON), "0x"+hexOf(compiled.Bytecode)); err != nil {
		t.Fatal(err)
	}
	raw, err := a.GetArtifact("raw")
	if err != nil || raw.Layout != nil {
		t.Fatalf("raw artifact: layout %v, %v", raw.Layout, err)
	}
	for _, c := range []struct {
		art  string
		want error
	}{{"linked", nil}, {"raw", core.ErrNotVersioned}} {
		art, _ := a.GetArtifact(c.art)
		dep, err := a.Manager.DeployVersion(u.Addr(), art, nil)
		if err != nil {
			t.Fatal(err)
		}
		line, err := a.Manager.WalkChain(dep.Contract.Address)
		if !errors.Is(err, c.want) || (c.want == nil && len(line) != 1) {
			t.Errorf("%s: WalkChain = %d versions, %v; want %v", c.art, len(line), err, c.want)
		}
	}
}

func TestAuthRequired(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	c := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := c.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("unauthenticated dashboard: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/login" {
		t.Fatalf("redirect to %q", loc)
	}
}

func TestWeiOfParsing(t *testing.T) {
	maxWei := "115792089237316195423570985008687907853269984665640564039457584007913129639935" // 2^256 - 1
	cases := map[string]string{
		"1":                    ethtypes.Ether(1).String(),
		"0.5":                  "500000000000000000",
		"2.25":                 "2250000000000000000",
		" 3 ":                  "3000000000000000000",
		".5":                   "500000000000000000",
		"0.000000000000000001": "1",
		"":                     "0",
		maxWei[:len(maxWei)-18] + "." + maxWei[len(maxWei)-18:]: maxWei,
	}
	for in, want := range cases {
		got, err := weiOf(in)
		if err != nil || got.String() != want {
			t.Errorf("weiOf(%q) = %s, %v; want %s", in, got.String(), err, want)
		}
	}
	for _, in := range []string{
		"-1", "+1", "abc", "1e3", "12abc", "1.2.3", ".", "1 000",
		"0.0000000000000000001", // a 19th fraction digit
		strings.Repeat("9", 60), // wraps modulo 2^256
		"115792089237316195423570985008687907853269984665640564039457.584007913129639936", // 2^256 wei
	} {
		if got, err := weiOf(in); err == nil {
			t.Errorf("weiOf(%q) = %s, want an error", in, got.String())
		}
	}

	for in, want := range map[string]uint64{"": 0, "12": 12, " 7 ": 7, "18446744073709551615": 1<<64 - 1} {
		if got, err := uintOf(in); err != nil || got != want {
			t.Errorf("uintOf(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"12abc", "-1", "+1", "abc", "1.5", "18446744073709551616"} {
		if got, err := uintOf(in); err == nil {
			t.Errorf("uintOf(%q) = %d, want an error", in, got)
		}
	}
}

// --- helpers ---------------------------------------------------------------

func extractAddr(t *testing.T, html string) string {
	t.Helper()
	i := strings.Index(html, "/contract/0x")
	if i < 0 {
		t.Fatalf("no contract link in:\n%s", html)
	}
	return html[i+len("/contract/") : i+len("/contract/")+42]
}

func lastAddr(t *testing.T, html string) string {
	t.Helper()
	i := strings.LastIndex(html, "/contract/0x")
	if i < 0 {
		t.Fatal("no contract link")
	}
	return html[i+len("/contract/") : i+len("/contract/")+42]
}

func hexOf(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, c := range b {
		out = append(out, digits[c>>4], digits[c&0xf])
	}
	return string(out)
}

// TestDashboardReadsStateFromChain: the dashboard shows each version's
// state and tenant as the version contract holds them. An unconfirmed
// successor has no tenant yet, so its old tenant is not offered PAY
// RENT (a call that reverts), and a stored row carrying a stale state
// shows the state the chain holds.
func TestDashboardReadsStateFromChain(t *testing.T) {
	a := rig(t)
	landlord, err := a.Register("dash_landlord", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := a.Register("dash_tenant", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := a.Rental.DeployRental(landlord.Addr(), core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "dash-house",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Rental.Confirm(tenant.Addr(), v1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	v2, err := a.Rental.Modify(landlord.Addr(), v1.Contract.Address, core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "dash-house",
		MaintenanceFee: ethtypes.Ether(1), Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	actions := func(u *User) map[string]DashboardRow {
		t.Helper()
		rows, err := a.Dashboard(u)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]DashboardRow{}
		for _, r := range rows {
			out[strings.ToLower(r.Address)] = r
		}
		return out
	}
	key := func(addr ethtypes.Address) string { return strings.ToLower(addr.Hex()) }

	rows := actions(tenant)
	if r := rows[key(v2.Contract.Address)]; r.Role == "tenant" || r.Action == "PAY RENT" || r.State != core.StateActive {
		t.Fatalf("old tenant's row for unconfirmed v2: %+v", r)
	}
	if r := rows[key(v1.Contract.Address)]; r.Role != "tenant" || r.State != core.StateSuperseded {
		t.Fatalf("tenant's row for v1: %+v", r)
	}

	if err := a.Rental.ConfirmModification(tenant.Addr(), v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if err := a.Rental.Terminate(tenant.Addr(), v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	stale, err := a.Manager.GetRow(v2.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	stale.State = core.StateActive
	if err := a.Manager.Store.Put(core.TableContracts, key(v2.Contract.Address), stale); err != nil {
		t.Fatal(err)
	}
	// A fresh manager decodes the stored bytes; a.Manager answers from
	// its memo.
	a = New(core.NewManager(a.Manager.Client, a.Manager.IPFS, a.Manager.Store))
	if r := actions(tenant)[key(v2.Contract.Address)]; r.State != core.StateTerminated || r.Action != "TERMINATED" {
		t.Fatalf("terminated v2 stored as active shows %+v", r)
	}
}
