package app

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// getterDetail is what the contract detail read showed before its
// fields went to storage, rebuilt from the getters at the current head:
// got, a decoded detail body, with every member the page once read
// through a getter eth_call — the row's state and tenant, each
// version's state, the live map and each payment's month and amount —
// replaced by the getters' answer. It is the oracle for the body.
func getterDetail(t *testing.T, a *App, addr ethtypes.Address, got map[string]interface{}) map[string]interface{} {
	t.Helper()
	var want map[string]interface{}
	remarshal(t, got, &want)
	bind := func(v ethtypes.Address) *web3.BoundContract {
		bound, err := a.Manager.BindVersion(v)
		if err != nil {
			t.Fatal(err)
		}
		return bound
	}
	callUint := func(v ethtypes.Address, name string, args ...interface{}) (uint256.Int, bool) {
		out, err := bind(v).CallUint(v, name, args...)
		return out, err == nil
	}

	// Lifecycle states, derived as deriveStates derives them, over the
	// state() getter.
	versions := want["versions"].([]interface{})
	states := map[string]string{}
	prevEnum := -1
	for _, raw := range versions {
		node := raw.(map[string]interface{})
		v := ethtypes.HexToAddress(node["address"].(string))
		enum := -1
		_, st := bind(v).ABI.Methods["state"]
		if _, term := bind(v).ABI.Methods["terminateContract"]; st && term {
			n, ok := callUint(v, "state")
			if !ok {
				t.Fatalf("state() of %s fails", v)
			}
			enum = int(n.Uint64())
		}
		switch {
		case enum == 2:
			node["state"] = core.StateTerminated
		case node["next"] != nil:
			node["state"] = core.StateSuperseded
		case enum == 0 && prevEnum == 2:
			node["state"] = core.StateRejected
		default:
			node["state"] = core.StateActive
		}
		states[v.Hex()] = node["state"].(string)
		prevEnum = enum
	}
	row := want["row"].(map[string]interface{})
	row["state"] = states[addr.Hex()]
	delete(row, "tenant")
	if tenant, err := bind(addr).CallAddress(addr, "tenant"); err == nil && !tenant.IsZero() {
		row["tenant"] = tenant.Hex()
	}

	live := map[string]interface{}{}
	for _, name := range []string{"rent", "deposit", "state", "monthCounter"} {
		if n, ok := callUint(addr, name); ok {
			live[name] = n.String()
		}
	}
	if house, err := bind(addr).CallString(addr, "house"); err == nil {
		live["house"] = house
	}
	want["live"] = live

	// Payments: the paidrents(i) getters of each version, oldest first.
	pays := want["payments"].([]interface{})
	k := 0
	for _, raw := range versions {
		node := raw.(map[string]interface{})
		v := ethtypes.HexToAddress(node["address"].(string))
		count, ok := callUint(v, "monthCounter")
		if !ok {
			continue
		}
		for i := uint64(0); i < count.Uint64(); i++ {
			vals, err := bind(v).Call(v, "paidrents", i)
			if err != nil || k >= len(pays) {
				t.Fatalf("paidrents(%d) of %s: %v, or the body has %d payments", i, v, err, len(pays))
			}
			p := pays[k].(map[string]interface{})
			p["version"] = node["version"]
			p["month"] = json.Number(vals[0].(uint256.Int).String())
			p["amountWei"] = vals[1].(uint256.Int).String()
			k++
		}
	}
	if k != len(pays) {
		t.Fatalf("the getters hold %d payments, the body %d", k, len(pays))
	}
	return want
}

// remarshal decodes the JSON encoding of in into out, numbers kept as
// json.Number.
func remarshal(t *testing.T, in, out interface{}) {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestContractDetailMatchesGetters: on a three-version line with
// payments, the detail body of each version, encoded again, is byte for
// byte the body whose getter-read members the getters answer at the
// same head.
func TestContractDetailMatchesGetters(t *testing.T) {
	var node *pointerCounter
	landlord, a, addr := apiRigOn(t, rigOver(t, func(b *web3.LocalBackend) web3.Backend {
		node = &pointerCounter{LocalBackend: b}
		return node
	}))
	line := paidLine(t, a, ethtypes.HexToAddress(addr))
	for i, v := range line {
		resp, body := landlord.get("/api/v1/contracts/" + v.Hex())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET v%d: %d %s", i+1, resp.StatusCode, body)
		}
		var got map[string]interface{}
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		dec.UseNumber()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		calls := node.calls.Load()
		want := getterDetail(t, a, v, got)
		if node.calls.Load() == calls {
			t.Fatal("the oracle sent no eth_call: it read no getter")
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("v%d: body\n%s\ngetters\n%s", i+1, gotJSON, wantJSON)
		}
		if pays := got["payments"].([]interface{}); len(pays) != 3 {
			t.Errorf("v%d: %d payments, want 3", i+1, len(pays))
		}
	}
}

// TestRawUploadHasNoFields: a version deployed from an artifact uploaded
// as raw ABI and bytecode has no published layout, so it has no fields:
// its detail shows no live map, no tenant and no payments, though its
// storage holds a tenant and a payment, and it is not rental-shaped.
func TestRawUploadHasNoFields(t *testing.T) {
	landlord, a, _ := apiRig(t)
	u, err := a.Register("raw_uploader", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	base := contracts.MustArtifact("BaseRental")
	if _, err := a.UploadArtifact(u, "rawrental", string(base.ABIJSON), "0x"+hexOf(base.Bytecode)); err != nil {
		t.Fatal(err)
	}
	resp, body := landlord.post("/deploy", url.Values{
		"artifact": {"rawrental"}, "rent": {"1"}, "deposit": {"2"},
		"months": {"12"}, "house": {"raw-house"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %s", resp.StatusCode, body)
	}
	var dep ethtypes.Address
	for _, row := range a.Manager.Rows() {
		if row.Name == "rawrental" {
			dep = ethtypes.HexToAddress(row.Address)
		}
	}
	if dep.IsZero() {
		t.Fatal("no rawrental row")
	}
	// The tenant confirms and pays through the contract itself: the
	// service reads the deposit and the rent as fields, and there are none.
	tenant, err := a.Register("raw_tenant", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Rental.Confirm(tenant.Addr(), dep); !errors.Is(err, core.ErrNoField) {
		t.Fatalf("Confirm of a raw upload: %v, want %v", err, core.ErrNoField)
	}
	bound, err := a.Manager.BindVersion(dep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bound.Transact(web3.TxOpts{From: tenant.Addr(), Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	if _, err := bound.Transact(web3.TxOpts{From: tenant.Addr(), Value: ethtypes.Ether(1)}, "payRent"); err != nil {
		t.Fatal(err)
	}

	var detail map[string]interface{}
	if code := getJSON(t, landlord, "/api/v1/contracts/"+dep.Hex(), &detail); code != http.StatusOK {
		t.Fatalf("detail: %d %v", code, detail)
	}
	row := detail["row"].(map[string]interface{})
	for _, key := range []string{"live", "payments", "versions"} {
		if v, ok := detail[key]; ok {
			t.Errorf("raw upload shows %s: %v", key, v)
		}
	}
	if row["tenant"] != nil || row["state"] != core.StateActive {
		t.Errorf("raw upload row: tenant %v, state %v; want no tenant, %s", row["tenant"], row["state"], core.StateActive)
	}
	if n, err := bound.CallUint(tenant.Addr(), "monthCounter"); err != nil || n.Uint64() != 1 {
		t.Fatalf("the raw version holds %v payments (%v), want 1", n, err)
	}
}
