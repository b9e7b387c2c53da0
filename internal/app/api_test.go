package app

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"legalchain/internal/obs"
)

// apiRig registers a landlord+tenant, deploys and modifies a rental
// through the service layer, and returns an authenticated browser.
func apiRig(t *testing.T) (*browser, *App, string) {
	t.Helper()
	return apiRigOn(t, rig(t))
}

// apiRigOn is apiRig over an app the caller built.
func apiRigOn(t *testing.T, a *App) (*browser, *App, string) {
	t.Helper()
	// Mirror production wiring: rentald serves the app behind
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

func TestAPIMe(t *testing.T) {
	b, _, _ := apiRig(t)
	var me map[string]interface{}
	if code := getJSON(t, b, "/api/me", &me); code != 200 {
		t.Fatalf("code %d", code)
	}
	if me["name"] != "api_landlord" {
		t.Fatalf("me = %v", me)
	}
	if me["balanceEth"] == "" || me["address"] == "" {
		t.Fatal("missing fields")
	}
}

func TestAPIContracts(t *testing.T) {
	b, _, addr := apiRig(t)
	var rows []map[string]interface{}
	if code := getJSON(t, b, "/api/contracts", &rows); code != 200 {
		t.Fatalf("code %d", code)
	}
	if len(rows) != 1 || rows[0]["Address"] != addr {
		t.Fatalf("rows = %v", rows)
	}
	// Detail endpoint with live chain data.
	var detail map[string]interface{}
	if code := getJSON(t, b, "/api/contracts/"+addr, &detail); code != 200 {
		t.Fatalf("code %d", code)
	}
	live := detail["live"].(map[string]interface{})
	if live["house"] != "api-house" {
		t.Fatalf("live = %v", live)
	}
	if live["rent"] != "1000000000000000000" {
		t.Fatalf("rent = %v", live["rent"])
	}
}

func TestAPIChainAndHistory(t *testing.T) {
	b, a, addr := apiRig(t)
	// Build a second version through the service layer.
	u, err := a.SessionUser(sessionTokenOf(t, b))
	if err != nil {
		t.Fatal(err)
	}
	_, body := b.post("/contract/"+addr+"/modify", url.Values{
		"rent": {"1"}, "deposit": {"2"}, "months": {"12"},
		"house": {"api-house"}, "maintenance": {"0.1"}, "discount": {"0"}, "fine": {"1"},
	})
	_ = body
	_ = u
	var chainResp struct {
		Chain    []map[string]interface{} `json:"chain"`
		Verified bool                     `json:"verified"`
	}
	if code := getJSON(t, b, "/api/contracts/"+addr+"/chain", &chainResp); code != 200 {
		t.Fatalf("code %d", code)
	}
	if len(chainResp.Chain) != 2 || !chainResp.Verified {
		t.Fatalf("chain = %+v", chainResp)
	}
	var hist []map[string]interface{}
	if code := getJSON(t, b, "/api/contracts/"+addr+"/history", &hist); code != 200 {
		t.Fatal("history endpoint")
	}
	// Unknown endpoint 404s.
	if code := getJSON(t, b, "/api/contracts/"+addr+"/nope", nil); code != 404 {
		t.Fatal("unknown endpoint accepted")
	}
	// Bad address 400s.
	if code := getJSON(t, b, "/api/contracts/short", nil); code != 400 {
		t.Fatal("bad address accepted")
	}
}

func TestAPIRequiresAuth(t *testing.T) {
	a := rig(t)
	// Mirror production wiring: rentald serves the app behind
	// obs.LogRequests, which assigns request IDs and opens root spans.
	srv := httptest.NewServer(obs.LogRequests(nil, a.Handler()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/me")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated API: %d", resp.StatusCode)
	}
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	if out["error"] == "" {
		t.Fatal("no JSON error body")
	}
}

// sessionTokenOf extracts the session cookie value from the browser jar.
func sessionTokenOf(t *testing.T, b *browser) string {
	t.Helper()
	u, _ := url.Parse(b.url)
	for _, c := range b.c.Jar.Cookies(u) {
		if c.Name == "legalchain_session" {
			return c.Value
		}
	}
	t.Fatal("no session cookie")
	return ""
}
