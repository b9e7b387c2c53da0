package app

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/obs"
	"legalchain/internal/web3"
	"legalchain/internal/xtrace"
)

// apiRig registers a landlord, deploys a rental through the HTML
// form, and returns the authenticated browser and the contract address.
func apiRig(t *testing.T) (*browser, *App, string) {
	t.Helper()
	return apiRigOn(t, rig(t))
}

// apiRigOn is apiRig over an app the caller built.
func apiRigOn(t *testing.T, a *App) (*browser, *App, string) {
	t.Helper()
	// Mirror production wiring: the node serves the app behind
	// obs.LogRequests, which assigns request IDs and opens root spans.
	srv := httptest.NewServer(obs.LogRequests(nil, a.Handler()))
	t.Cleanup(srv.Close)
	landlord := newBrowser(t, srv)
	landlord.register("api_landlord", "pw")
	resp, body := landlord.post("/deploy", url.Values{
		"artifact": {"BaseRental"}, "rent": {"1"}, "deposit": {"2"},
		"months": {"12"}, "house": {"api-house"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %s", resp.StatusCode, body)
	}
	_, dash := landlord.get("/dashboard")
	addr := extractAddr(t, dash)
	return landlord, a, addr
}

func getJSON(t *testing.T, b *browser, path string, out interface{}) int {
	t.Helper()
	resp, err := b.c.Get(b.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v (%s)", path, err, data)
		}
	}
	return resp.StatusCode
}

// postJSON sends a JSON body through the browser's cookie-carrying
// client and decodes the JSON reply.
func postJSON(t *testing.T, b *browser, path string, payload, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := b.c.Post(b.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v (%s)", path, err, data)
		}
	}
	return resp.StatusCode
}

// v1Envelope is the uniform error shape of /api/v1/.
type v1Envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func TestV1MeAndList(t *testing.T) {
	b, _, addr := apiRig(t)
	var me map[string]interface{}
	if code := getJSON(t, b, "/api/v1/me", &me); code != 200 {
		t.Fatalf("me: code %d", code)
	}
	if me["name"] != "api_landlord" || me["balanceWei"] == "" {
		t.Fatalf("me = %v", me)
	}
	// In-process backends pin a head view: the response names the chain
	// snapshot the balance was read from.
	head, ok := me["head"].(map[string]interface{})
	if !ok {
		t.Fatalf("me has no head object: %v", me)
	}
	if head["hash"] == "" || head["stateRoot"] == "" {
		t.Fatalf("head = %v", head)
	}
	if _, ok := head["number"].(float64); !ok {
		t.Fatalf("head.number = %v", head["number"])
	}
	var list struct {
		Contracts []map[string]interface{} `json:"contracts"`
	}
	if code := getJSON(t, b, "/api/v1/contracts", &list); code != 200 {
		t.Fatalf("list: code %d", code)
	}
	if len(list.Contracts) != 1 || list.Contracts[0]["Address"] != addr {
		t.Fatalf("contracts = %v", list.Contracts)
	}
}

func TestV1DeployAndDetail(t *testing.T) {
	b, _, _ := apiRig(t)
	var dep struct {
		Address string                 `json:"address"`
		GasUsed float64                `json:"gasUsed"`
		Row     map[string]interface{} `json:"row"`
	}
	code := postJSON(t, b, "/api/v1/contracts", map[string]interface{}{
		"artifact": "BaseRental", "rentEth": "2", "depositEth": "4",
		"months": 6, "house": "v1-house", "document": "v1 legal text",
	}, &dep)
	if code != http.StatusCreated {
		t.Fatalf("deploy: code %d (%+v)", code, dep)
	}
	if len(dep.Address) != 42 || dep.GasUsed == 0 {
		t.Fatalf("deploy = %+v", dep)
	}

	var detail struct {
		Row      map[string]interface{} `json:"row"`
		Head     map[string]interface{} `json:"head"`
		Live     map[string]string      `json:"live"`
		Versions []map[string]interface{}
		Verified bool `json:"verified"`
	}
	if code := getJSON(t, b, "/api/v1/contracts/"+dep.Address, &detail); code != 200 {
		t.Fatalf("detail: code %d", code)
	}
	if detail.Head["hash"] == "" || detail.Head["stateRoot"] == "" {
		t.Fatalf("detail head = %v", detail.Head)
	}
	if detail.Live["house"] != "v1-house" {
		t.Fatalf("live = %v", detail.Live)
	}
	if detail.Live["rent"] != "2000000000000000000" {
		t.Fatalf("rent = %v", detail.Live["rent"])
	}
	if !detail.Verified {
		t.Fatal("fresh single-version chain should verify")
	}
}

func TestV1Actions(t *testing.T) {
	landlord, _, addr := apiRig(t)
	jar, _ := cookiejar.New(nil)
	tenant := &browser{t: t, c: &http.Client{Jar: jar}, url: landlord.url}
	tenant.register("v1_tenant", "pw")

	var ok map[string]interface{}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "confirm"}, &ok); code != 200 {
		t.Fatalf("confirm: code %d (%v)", code, ok)
	}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "pay"}, &ok); code != 200 {
		t.Fatalf("pay: code %d (%v)", code, ok)
	}

	// Landlord proposes a modification; the reply carries the new row.
	var mod struct {
		NewVersion map[string]interface{} `json:"newVersion"`
	}
	code := postJSON(t, landlord, "/api/v1/contracts/"+addr+"/actions", map[string]interface{}{
		"action": "modify",
		"terms": map[string]interface{}{
			"rentEth": "1.5", "depositEth": "2", "months": 12, "house": "api-house",
			"maintenanceEth": "0.1", "discountEth": "0", "fineEth": "1",
		},
	}, &mod)
	if code != 200 || mod.NewVersion["address"] == nil {
		t.Fatalf("modify: code %d (%+v)", code, mod)
	}

	var detail struct {
		Versions []map[string]interface{} `json:"versions"`
		Verified bool                     `json:"verified"`
	}
	if code := getJSON(t, landlord, "/api/v1/contracts/"+addr, &detail); code != 200 {
		t.Fatalf("detail: code %d", code)
	}
	if len(detail.Versions) != 2 || !detail.Verified {
		t.Fatalf("versions = %+v verified=%v", detail.Versions, detail.Verified)
	}

	// Payments made on v1 survive into the aggregated history.
	var paid struct {
		Payments []map[string]interface{} `json:"payments"`
	}
	if code := getJSON(t, tenant, "/api/v1/contracts/"+addr, &paid); code != 200 {
		t.Fatal("tenant detail")
	}
	if len(paid.Payments) != 1 {
		t.Fatalf("payments = %+v", paid.Payments)
	}
}

// TestV1TenantReadBeforeModify: a tenant reading the contract before
// the first modification leaves the shared DataStorage undeployed, so
// the landlord's modification (the first write) deploys it and owns it.
func TestV1TenantReadBeforeModify(t *testing.T) {
	landlord, a, addr := apiRig(t)
	jar, _ := cookiejar.New(nil)
	tenant := &browser{t: t, c: &http.Client{Jar: jar}, url: landlord.url}
	tenant.register("early_reader", "pw")
	var out map[string]interface{}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "confirm"}, &out); code != 200 {
		t.Fatalf("confirm: code %d (%v)", code, out)
	}
	if code := getJSON(t, tenant, "/api/v1/contracts/"+addr, nil); code != 200 {
		t.Fatalf("tenant detail: code %d", code)
	}
	if ds := a.Manager.DataStorageAddress(); !ds.IsZero() {
		t.Fatalf("a read deployed DataStorage at %s", ds)
	}

	code := postJSON(t, landlord, "/api/v1/contracts/"+addr+"/actions", map[string]interface{}{
		"action": "modify",
		"terms": map[string]interface{}{
			"rentEth": "1.5", "depositEth": "2", "months": 12, "house": "api-house",
			"maintenanceEth": "0.1", "discountEth": "0", "fineEth": "1",
		},
	}, &out)
	if code != 200 {
		t.Fatalf("modify after a tenant read: code %d (%v)", code, out)
	}
}

// TestModifySupersededConflict: once a version has a successor, a
// second modification of it is refused as a conflict, 409, on /api/v1
// (code "superseded") and on the HTML form, and the line keeps two
// versions.
func TestModifySupersededConflict(t *testing.T) {
	landlord, a, addr := apiRig(t)
	terms := map[string]interface{}{
		"rentEth": "1.5", "depositEth": "2", "months": 12, "house": "api-house",
		"maintenanceEth": "0.1", "discountEth": "0", "fineEth": "1",
	}
	var out map[string]interface{}
	if code := postJSON(t, landlord, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "modify", "terms": terms}, &out); code != http.StatusOK {
		t.Fatalf("first modify: code %d (%v)", code, out)
	}
	var env v1Envelope
	if code := postJSON(t, landlord, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "modify", "terms": terms}, &env); code != http.StatusConflict || env.Error.Code != v1Superseded {
		t.Fatalf("second modify: code %d, envelope %+v; want 409 %s", code, env.Error, v1Superseded)
	}
	resp, body := landlord.post("/contract/"+addr+"/modify", url.Values{
		"rent": {"1"}, "deposit": {"2"}, "months": {"12"}, "house": {"api-house"},
		"maintenance": {"0.5"}, "discount": {"0"}, "fine": {"1"},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second modify by form: %d %s", resp.StatusCode, body)
	}
	if line, err := a.Manager.WalkChain(ethtypes.HexToAddress(addr)); err != nil || len(line) != 2 {
		t.Fatalf("line = %d versions, %v; want 2", len(line), err)
	}
}

func TestV1ErrorEnvelope(t *testing.T) {
	b, _, addr := apiRig(t)

	// Unauthenticated requests get the envelope with code "unauthorized".
	srv := httptest.NewServer(rig(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/me")
	if err != nil {
		t.Fatal(err)
	}
	var env v1Envelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != 401 || env.Error.Code != "unauthorized" {
		t.Fatalf("unauthenticated: %d %+v", resp.StatusCode, env)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   interface{}
		status int
		code   string
	}{
		{"bad address", "GET", "/api/v1/contracts/short", nil, 400, "bad_request"},
		{"unknown contract", "GET", "/api/v1/contracts/0x0000000000000000000000000000000000000abc", nil, 404, "not_found"},
		{"unknown subresource", "GET", "/api/v1/contracts/" + addr + "/nope", nil, 404, "not_found"},
		{"method not allowed", "DELETE", "/api/v1/me", nil, 405, "method_not_allowed"},
		{"unknown action", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{"action": "explode"}, 400, "bad_request"},
		{"missing action", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{}, 400, "bad_request"},
		{"modify without terms", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{"action": "modify"}, 400, "bad_request"},
		{"deploy with negative rent", "POST", "/api/v1/contracts",
			map[string]interface{}{"artifact": "BaseRental", "rentEth": "-1", "depositEth": "2", "months": 12}, 400, "bad_request"},
		{"modify with a 19th fraction digit", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{"action": "modify", "terms": map[string]interface{}{
				"rentEth": "1", "fineEth": "0.0000000000000000001"}}, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != nil {
				raw, _ := json.Marshal(tc.body)
				body = bytes.NewReader(raw)
			}
			req, err := http.NewRequest(tc.method, b.url+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := b.c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env v1Envelope
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("non-envelope body: %s", data)
			}
			if resp.StatusCode != tc.status || env.Error.Code != tc.code {
				t.Fatalf("got %d %q, want %d %q (%s)",
					resp.StatusCode, env.Error.Code, tc.status, tc.code, data)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestV1PayTraceHierarchy is the cross-tier acceptance test: a traced
// POST /api/v1/contracts/{addr}/actions pay produces one trace, keyed
// by the caller's X-Request-Id, whose spans walk every tier of the
// stack — http (obs middleware) → rpc (web3 client) → chain
// (SendTransaction) → evm (call frames) → blockdb (segment append).
func TestV1PayTraceHierarchy(t *testing.T) {
	xtrace.SetEnabled(true)
	xtrace.Reset()
	t.Cleanup(func() { xtrace.SetEnabled(false); xtrace.Reset() })

	landlord, _, addr := apiRig(t)
	jar, _ := cookiejar.New(nil)
	tenant := &browser{t: t, c: &http.Client{Jar: jar}, url: landlord.url}
	tenant.register("trace_tenant", "pw")
	var ok map[string]interface{}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "confirm"}, &ok); code != 200 {
		t.Fatalf("confirm: code %d (%v)", code, ok)
	}

	const rid = "trace-hierarchy-test"
	body, _ := json.Marshal(map[string]interface{}{"action": "pay"})
	req, err := http.NewRequest(http.MethodPost,
		tenant.url+"/api/v1/contracts/"+addr+"/actions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := tenant.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var payOut map[string]interface{}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pay: code %d (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &payOut); err != nil {
		t.Fatal(err)
	}
	// The action result carries the transaction hash for tracing.
	txh, _ := payOut["txHash"].(string)
	if len(txh) != 66 {
		t.Fatalf("pay result txHash = %q", payOut["txHash"])
	}

	// The obs middleware reused the request ID as the trace ID, so the
	// caller can look its own trace up.
	td := xtrace.Lookup(rid)
	if td == nil {
		t.Fatalf("no trace recorded under %q", rid)
	}
	tiers := map[string]bool{}
	for _, sp := range td.Spans {
		tiers[sp.Tier] = true
	}
	for _, want := range []string{"http", "rpc", "chain", "evm", "blockdb"} {
		if !tiers[want] {
			t.Fatalf("trace %s missing tier %q (have %v)", rid, want, tiers)
		}
	}
	if got := td.Root(); !strings.HasPrefix(got, "http:POST ") {
		t.Fatalf("root = %q", got)
	}

	// The payment surfaces in the detail JSON with its hash and a
	// ready-made debug_traceTransaction invocation.
	var detail struct {
		Payments []struct {
			TxHash string                 `json:"txHash"`
			Trace  map[string]interface{} `json:"trace"`
		} `json:"payments"`
	}
	if code := getJSON(t, tenant, "/api/v1/contracts/"+addr, &detail); code != 200 {
		t.Fatal("detail")
	}
	if len(detail.Payments) != 1 || detail.Payments[0].TxHash != txh {
		t.Fatalf("payments = %+v (want txHash %s)", detail.Payments, txh)
	}
	if m, _ := detail.Payments[0].Trace["method"].(string); m != "debug_traceTransaction" {
		t.Fatalf("trace hint = %+v", detail.Payments[0].Trace)
	}
}

// TestV1ErrorRequestID: error envelopes echo the request ID assigned
// (or propagated) by the obs middleware.
func TestV1ErrorRequestID(t *testing.T) {
	b, _, _ := apiRig(t)
	req, err := http.NewRequest(http.MethodGet, b.url+"/api/v1/contracts/short", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "envelope-rid-1")
	resp, err := b.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"requestId"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || env.Error.Code != "bad_request" {
		t.Fatalf("status %d env %+v", resp.StatusCode, env)
	}
	if env.Error.RequestID != "envelope-rid-1" {
		t.Fatalf("requestId = %q", env.Error.RequestID)
	}
}

// pointerCounter counts the storage words that hold a version's
// previous or next pointer — the reads a walk of the evidence line is
// made of — and the eth_calls, log scans and receipt lookups that reach
// the node.
type pointerCounter struct {
	*web3.LocalBackend
	pointers map[pointerWord]bool // set once, before the counted requests
	reads    atomic.Int64
	calls    atomic.Int64
	filters  atomic.Int64
	receipts atomic.Int64
}

// pointerWord is one storage slot of one version.
type pointerWord struct {
	addr ethtypes.Address
	slot ethtypes.Hash
}

func (b *pointerCounter) StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error) {
	if b.pointers[pointerWord{addr, slot}] {
		b.reads.Add(1)
	}
	return b.LocalBackend.StorageAt(addr, slot)
}

func (b *pointerCounter) CallContract(msg web3.CallMsg) ([]byte, error) {
	b.calls.Add(1)
	return b.LocalBackend.CallContract(msg)
}

func (b *pointerCounter) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	b.filters.Add(1)
	return b.LocalBackend.FilterLogs(q)
}

func (b *pointerCounter) TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error) {
	b.receipts.Add(1)
	return b.LocalBackend.TransactionReceipt(h)
}

// paidLine extends the agreement at addr, which its tenant confirmed and
// paid once, to three versions: v2 accepted and paid twice, v3 open.
func paidLine(t *testing.T, a *App, addr ethtypes.Address) []ethtypes.Address {
	t.Helper()
	row, err := a.Manager.GetRow(addr)
	if err != nil {
		t.Fatal(err)
	}
	owner := ethtypes.HexToAddress(row.Landlord)
	tenant, err := a.Register("line_tenant", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Rental.Confirm(tenant.Addr(), addr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Rental.PayRent(tenant.Addr(), addr); err != nil {
		t.Fatal(err)
	}
	line := []ethtypes.Address{addr}
	for v := 2; v <= 3; v++ {
		next, err := a.Rental.Modify(owner, line[len(line)-1], core.ModifiedTerms{
			Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
			House: "api-house", MaintenanceFee: ethtypes.Ether(1), Fine: ethtypes.Ether(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, next.Contract.Address)
		if v == 3 {
			break
		}
		if err := a.Rental.ConfirmModification(tenant.Addr(), next.Contract.Address); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if _, err := a.Rental.PayRent(tenant.Addr(), next.Contract.Address); err != nil {
				t.Fatal(err)
			}
		}
	}
	return line
}

// TestContractPagesWalkChainOnce pins the cost of the two contract pages
// that show both the version line and the cross-version rent history:
// one pointer word per version and direction, whichever version the page
// is asked for — the history must reuse the line the page walked — no
// eth_call: every field, state and payment is a storage read, and one
// log scan: the payments of every version are joined to their
// transactions at once.
func TestContractPagesWalkChainOnce(t *testing.T) {
	var node *pointerCounter
	landlord, a, addr := apiRigOn(t, rigOver(t, func(b *web3.LocalBackend) web3.Backend {
		node = &pointerCounter{LocalBackend: b}
		return node
	}))
	line := paidLine(t, a, ethtypes.HexToAddress(addr))
	node.pointers = map[pointerWord]bool{}
	for i, v := range line {
		art := contracts.MustArtifact("RentalAgreementV2")
		if i == 0 {
			art = contracts.MustArtifact("BaseRental")
		}
		for _, name := range []string{"previous", "next"} {
			decl, ok := art.Layout.Var(name)
			if !ok {
				t.Fatalf("%s declares no %s", art.Name, name)
			}
			node.pointers[pointerWord{v, minisol.StorageSlot(decl.Slot)}] = true
		}
	}
	for _, page := range []string{"/api/v1/contracts/", "/contract/"} {
		for i, v := range line {
			before, calls, filters := node.reads.Load(), node.calls.Load(), node.filters.Load()
			resp, body := landlord.get(page + v.Hex())
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s%s: %d %s", page, v.Hex(), resp.StatusCode, body)
			}
			if !strings.Contains(body, "api-house") {
				t.Fatalf("GET %sv%d shows no house: %s", page, i+1, body)
			}
			if got, want := node.reads.Load()-before, int64(2*len(line)); got != want || want != 6 {
				t.Errorf("GET %sv%d read %d pointer words, want %d (6: previous+next per version)", page, i+1, got, want)
			}
			if got := node.calls.Load() - calls; got != 0 {
				t.Errorf("GET %sv%d sent %d eth_calls, want 0", page, i+1, got)
			}
			if got := node.filters.Load() - filters; got != 1 {
				t.Errorf("GET %sv%d sent %d FilterLogs, want 1", page, i+1, got)
			}
		}
	}
}

// paymentsByReceipt is the /api/v1/contracts/{addr}/payments body as
// the handler wrote it when it read each traceable payment's block from
// its transaction's receipt.
func paymentsByReceipt(t *testing.T, a *App, node *pointerCounter, addr ethtypes.Address) string {
	t.Helper()
	hist, err := a.Rental.RentHistory(ethtypes.Address{}, addr)
	if err != nil {
		t.Fatal(err)
	}
	type payJSON struct {
		Version     int    `json:"version"`
		Month       uint64 `json:"month"`
		Amount      string `json:"amountWei"`
		TxHash      string `json:"txHash,omitempty"`
		BlockNumber uint64 `json:"blockNumber,omitempty"`
	}
	pays := make([]payJSON, 0, len(hist))
	for _, p := range hist {
		pj := payJSON{Version: p.Version, Month: p.Month, Amount: p.Amount.String()}
		if !p.TxHash.IsZero() {
			rcpt, ok, err := node.LocalBackend.TransactionReceipt(p.TxHash)
			if err != nil || !ok {
				t.Fatalf("no receipt for %s (%v)", p.TxHash.Hex(), err)
			}
			pj.TxHash, pj.BlockNumber = p.TxHash.Hex(), rcpt.BlockNumber
		}
		pays = append(pays, pj)
	}
	return encodeOracle(t, map[string]interface{}{"payments": pays, "total": len(pays), "head": v1HeadMap(a)})
}

// TestPaymentsBlockFromLog: the payments list names each payment's
// block from the paidRent log the history joins it by, so a read looks
// up no receipt, and its body is the one the receipts gave.
func TestPaymentsBlockFromLog(t *testing.T) {
	var node *pointerCounter
	landlord, a, addr := apiRigOn(t, rigOver(t, func(b *web3.LocalBackend) web3.Backend {
		node = &pointerCounter{LocalBackend: b}
		return node
	}))
	for i, v := range paidLine(t, a, ethtypes.HexToAddress(addr)) {
		receipts := node.receipts.Load()
		resp, body := landlord.get("/api/v1/contracts/" + v.Hex() + "/payments")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET v%d payments: %d %s", i+1, resp.StatusCode, body)
		}
		if got := node.receipts.Load() - receipts; got != 0 {
			t.Errorf("GET v%d payments looked up %d receipts, want 0", i+1, got)
		}
		if !strings.Contains(body, `"blockNumber"`) {
			t.Errorf("GET v%d payments names no block: %s", i+1, body)
		}
		sameBody(t, fmt.Sprintf("v%d payments", i+1), body, paymentsByReceipt(t, a, node, v))
	}
}

// TestV1OversizeBodyRefused: both JSON-accepting v1 routes stop reading
// at the body cap and answer 413 in the usual envelope.
func TestV1OversizeBodyRefused(t *testing.T) {
	b, _, addr := apiRig(t)
	huge := map[string]string{"document": strings.Repeat("x", maxV1Body)}
	for _, path := range []string{"/api/v1/contracts", "/api/v1/contracts/" + addr + "/actions"} {
		var env struct {
			Error struct {
				Code      string `json:"code"`
				RequestID string `json:"requestId"`
			} `json:"error"`
		}
		if code := postJSON(t, b, path, huge, &env); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: code %d, want 413", path, code)
		}
		if env.Error.Code != v1TooLarge || env.Error.RequestID == "" {
			t.Errorf("POST %s: envelope %+v", path, env.Error)
		}
	}
}
