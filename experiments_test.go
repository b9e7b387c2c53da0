package legalchain_test

// Integration tests reproducing the paper's figures (the per-experiment
// index of DESIGN.md §4). Each test drives the corresponding artifact's
// behaviour end to end through the public API and asserts the paper's
// qualitative claims.

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/web3"
)

// TestFig1_FourTierTrace traces one user action through all four tiers:
// an HTTP request (presentation) reaches the contract manager
// (business), reads the registry (data) and the chain (blockchain).
func TestFig1_FourTierTrace(t *testing.T) {
	r := newRig(t)
	u, err := r.App.Register("four_tier", "u@x.io", "pw")
	if err != nil {
		t.Fatal(err)
	}
	dep := r.deployV1(t)

	// Tier 4 (blockchain): code is on chain.
	if len(r.BC.GetCode(dep.Contract.Address)) == 0 {
		t.Fatal("blockchain tier missing code")
	}
	// Tier 3 (data): the registry row and the legal document exist.
	if _, err := r.Manager.GetRow(dep.Contract.Address); err != nil {
		t.Fatal("data tier missing row")
	}
	if _, err := r.Manager.LegalDocument(dep.Contract.Address); err != nil {
		t.Fatal("data tier missing document")
	}
	// Tier 2 (business): the manager builds the dashboard model.
	rows, err := r.App.Dashboard(u)
	if err != nil || len(rows) != 1 {
		t.Fatalf("business tier dashboard: %v", err)
	}
	// Tier 1 (presentation): the HTTP layer renders it.
	srv := httptest.NewServer(r.App.Handler())
	defer srv.Close()
	token, _ := r.App.Login("four_tier", "pw")
	req, _ := httpNewRequest("GET", srv.URL+"/dashboard", token)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "BaseRental") {
		t.Fatalf("presentation tier: %d", resp.StatusCode)
	}
}

// TestFig2_EvidenceLine builds a five-version chain and checks that the
// walked evidence line equals the deployment order, is verified, and is
// reachable from every member.
func TestFig2_EvidenceLine(t *testing.T) {
	r := newRig(t)
	deps := r.buildChainOfVersions(t, 5)
	for _, start := range deps {
		line, err := r.Manager.WalkChain(start.Contract.Address)
		if err != nil {
			t.Fatal(err)
		}
		if len(line) != 5 {
			t.Fatalf("line length %d from %s", len(line), start.Contract.Address)
		}
		for i, node := range line {
			if node.Address != deps[i].Contract.Address {
				t.Fatalf("order mismatch at %d", i)
			}
		}
		if err := core.VerifyChain(line); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig3_DataSeparation checks the DataStorage mechanism: the new
// version can read its predecessor's data knowing only the old address.
func TestFig3_DataSeparation(t *testing.T) {
	r := newRig(t)
	v1 := r.deployV1(t)
	if err := r.Rental.Confirm(r.Tenant, v1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Rental.PayRent(r.Tenant, v1.Contract.Address); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := r.Rental.Modify(r.Landlord, v1.Contract.Address, standardTerms())
	if err != nil {
		t.Fatal(err)
	}
	// New version knows its predecessor (on chain) ...
	prevAddr, err := v2.Contract.CallAddress(r.Landlord, "getPrev")
	if err != nil || prevAddr != v1.Contract.Address {
		t.Fatal("prev pointer wrong")
	}
	// ... and can read the old data from the storage contract.
	snap, err := r.Manager.LoadSnapshot(r.Landlord, prevAddr)
	if err != nil {
		t.Fatal(err)
	}
	if snap["monthCounter"] != "4" {
		t.Fatalf("old monthCounter = %q", snap["monthCounter"])
	}
}

// TestFig4_SequenceOfActions replays the sequence diagram exactly:
// upload/deploy by landlord, confirm + deposit by tenant, rent transfer
// tenant -> landlord, further months, termination with refund.
func TestFig4_SequenceOfActions(t *testing.T) {
	r := newRig(t)
	dep := r.deployV1(t)
	// Deposit moves tenant -> contract.
	if err := r.Rental.Confirm(r.Tenant, dep.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if got := r.BC.GetBalance(dep.Contract.Address); got != ethtypes.Ether(2) {
		t.Fatalf("escrowed deposit = %s", ethtypes.FormatEther(got))
	}
	// Rent moves tenant -> landlord.
	llBefore := r.BC.GetBalance(r.Landlord)
	if _, err := r.Rental.PayRent(r.Tenant, dep.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if diff := r.BC.GetBalance(r.Landlord).Sub(llBefore); diff != ethtypes.Ether(1) {
		t.Fatalf("rent received = %s", ethtypes.FormatEther(diff))
	}
	// Early termination by the tenant: half deposit penalty.
	if err := r.Rental.Terminate(r.Tenant, dep.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if got := r.BC.GetBalance(dep.Contract.Address); !got.IsZero() {
		t.Fatalf("contract kept %s after termination", ethtypes.FormatEther(got))
	}
	if row := r.describe(t, dep.Contract.Address); row.State != core.StateTerminated {
		t.Fatal("version not terminated")
	}
}

// TestFig5_BaseContractArtifacts checks the compiled Fig. 5 contract:
// it fits the code-size limit, exposes the paper's members and the
// selectors are canonical keccak-derived values.
func TestFig5_BaseContractArtifacts(t *testing.T) {
	art := contracts.MustArtifact("BaseRental")
	if len(art.Runtime) > evm.MaxCodeSize {
		t.Fatalf("runtime %d exceeds EIP-170", len(art.Runtime))
	}
	for _, m := range []string{"confirmAgreement", "payRent", "terminateContract",
		"getNext", "getPrev", "setNext", "setPrev",
		"paidrents", "rent", "house", "state", "createdTimestamp"} {
		if _, ok := art.ABI.Methods[m]; !ok {
			t.Errorf("missing method %s", m)
		}
	}
	for _, e := range []string{"agreementConfirmed", "paidRent", "contractTerminated"} {
		if _, ok := art.ABI.Events[e]; !ok {
			t.Errorf("missing event %s", e)
		}
	}
	// Selector sanity: getNext() must be keccak("getNext()")[0:4].
	want := ethtypes.Keccak256([]byte("getNext()"))
	got := art.ABI.Methods["getNext"].ID()
	if string(got[:]) != string(want[:4]) {
		t.Fatal("selector derivation broken")
	}
}

// TestFig6_UpgradedContract checks the updated contract of Fig. 6: the
// inherited surface persists and the new function exists.
func TestFig6_UpgradedContract(t *testing.T) {
	art := contracts.MustArtifact("RentalAgreementV2")
	for _, m := range []string{"payRent", "payMaintenanceFee", "maintenanceFee", "discount", "fine"} {
		if _, ok := art.ABI.Methods[m]; !ok {
			t.Errorf("missing method %s", m)
		}
	}
	// The overridden payRent has the same selector as the base one —
	// clients need not change.
	base := contracts.MustArtifact("BaseRental")
	if base.ABI.Methods["payRent"].ID() != art.ABI.Methods["payRent"].ID() {
		t.Fatal("payRent selector changed across versions")
	}
}

// TestFig7_Dashboard seeds a user with each contract state and checks
// the dashboard annotations.
func TestFig7_Dashboard(t *testing.T) {
	r := newRig(t)
	landlordUser, err := r.App.Register("fig7_landlord", "l@x.io", "pw")
	if err != nil {
		t.Fatal(err)
	}
	// Deployable (awaiting tenant).
	if _, err := r.Rental.DeployRental(landlordUser.Addr(), core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(1), Months: 6, House: "open-house",
	}); err != nil {
		t.Fatal(err)
	}
	// Another landlord's open contract: joinable.
	r.deployV1(t)
	rows, err := r.App.Dashboard(landlordUser)
	if err != nil {
		t.Fatal(err)
	}
	var sawAwaiting, sawConfirm bool
	for _, row := range rows {
		switch row.Action {
		case "AWAITING TENANT":
			sawAwaiting = true
		case "CONFIRM AGREEMENT":
			sawConfirm = true
		}
	}
	if !sawAwaiting || !sawConfirm {
		t.Fatalf("dashboard actions: %+v", rows)
	}
}

// TestFig8_DeployAndTransact is the paper's snippet as a test: deploy
// via the web3 layer, transact, read the receipt.
func TestFig8_DeployAndTransact(t *testing.T) {
	r := newRig(t)
	art := contracts.MustArtifact("DataStorage")
	bound, rcpt, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.ContractAddress == nil || *rcpt.ContractAddress != bound.Address {
		t.Fatal("creation receipt address mismatch")
	}
	rcpt2, err := bound.Transact(web3.TxOpts{From: r.Landlord}, "setValue",
		bound.Address, "greeting", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if rcpt2.GasUsed == 0 || !rcpt2.Succeeded() {
		t.Fatal("transact receipt")
	}
	v, err := bound.CallString(r.Landlord, "getValue", bound.Address, "greeting")
	if err != nil || v != "hello" {
		t.Fatal("call after transact")
	}
}

// TestFig9_UploadContract uploads an artifact as bytecode+ABI (the two
// files of the upload form) and deploys it from the stored copy.
func TestFig9_UploadContract(t *testing.T) {
	r := newRig(t)
	u, err := r.App.Register("fig9", "u@x.io", "pw")
	if err != nil {
		t.Fatal(err)
	}
	src := contracts.Sources()["DataStorage"]
	if _, err := r.App.CompileArtifact(u, src, "DataStorage"); err != nil {
		t.Fatal(err)
	}
	art, err := r.App.GetArtifact("DataStorage")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := r.Manager.DeployVersion(u.Addr(), art, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BC.GetCode(dep.Contract.Address)) == 0 {
		t.Fatal("uploaded artifact not deployable")
	}
}

// TestFig10_DeployViaWeb drives the deploy form over HTTP and asserts a
// row appears with an address and the receipt-backed state.
func TestFig10_DeployViaWeb(t *testing.T) {
	r := newRig(t)
	srv := httptest.NewServer(r.App.Handler())
	defer srv.Close()
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	mustPost := func(path string, form url.Values) string {
		resp, err := c.PostForm(srv.URL+path, form)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	mustPost("/register", url.Values{"name": {"fig10"}, "password": {"pw"}})
	mustPost("/login", url.Values{"name": {"fig10"}, "password": {"pw"}})
	mustPost("/deploy", url.Values{
		"artifact": {"BaseRental"}, "rent": {"1"}, "deposit": {"2"},
		"months": {"12"}, "house": {"web-deployed"},
	})
	resp, err := c.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "web-deployed") {
		t.Fatalf("deployed contract missing from dashboard:\n%s", body)
	}
}

// TestFig11_TerminateModify covers the terminate-or-modify screen: both
// branches, including the tenant's reject path from the paper's
// lifecycle ("if the tenant rejects the contract the previous contract
// is terminated").
func TestFig11_TerminateModify(t *testing.T) {
	r := newRig(t)

	// Branch 1: modify then tenant ACCEPTS.
	a1 := r.deployV1(t)
	if err := r.Rental.Confirm(r.Tenant, a1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	a2, err := r.Rental.Modify(r.Landlord, a1.Contract.Address, standardTerms())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rental.ConfirmModification(r.Tenant, a2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	row := r.describe(t, a2.Contract.Address)
	if row.State != core.StateActive || row.Tenant == "" {
		t.Fatalf("accepted modification row: %+v", row)
	}

	// Branch 2: modify then tenant REJECTS.
	b1 := r.deployV1(t)
	if err := r.Rental.Confirm(r.Tenant, b1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	b2, err := r.Rental.Modify(r.Landlord, b1.Contract.Address, standardTerms())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rental.RejectModification(r.Tenant, b2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	oldRow := r.describe(t, b1.Contract.Address)
	newRow := r.describe(t, b2.Contract.Address)
	if oldRow.State != core.StateTerminated || newRow.State != core.StateRejected {
		t.Fatalf("reject states: old=%s new=%s", oldRow.State, newRow.State)
	}

	// Branch 3: plain terminate.
	c1 := r.deployV1(t)
	if err := r.Rental.Confirm(r.Tenant, c1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if err := r.Rental.Terminate(r.Landlord, c1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	cRow := r.describe(t, c1.Contract.Address)
	if cRow.State != core.StateTerminated {
		t.Fatal("terminate branch")
	}
}

// TestEtherConservation is the global invariant behind every experiment:
// no flow creates or destroys ether — it only moves between tenant,
// landlord, contracts and the coinbase (fees).
func TestEtherConservation(t *testing.T) {
	r := newRig(t)
	supply0 := r.BC.TotalSupply()
	dep := r.deployV1(t)
	r.Rental.Confirm(r.Tenant, dep.Contract.Address)
	for i := 0; i < 3; i++ {
		r.Rental.PayRent(r.Tenant, dep.Contract.Address)
	}
	v2, err := r.Rental.Modify(r.Landlord, dep.Contract.Address, standardTerms())
	if err != nil {
		t.Fatal(err)
	}
	r.Rental.ConfirmModification(r.Tenant, v2.Contract.Address)
	r.Rental.Terminate(r.Tenant, v2.Contract.Address)
	if got := r.BC.TotalSupply(); got != supply0 {
		t.Fatalf("supply drifted: %s -> %s", supply0, got)
	}
}
