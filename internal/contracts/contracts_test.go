package contracts

import (
	"fmt"
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/minisol"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

func rig(t *testing.T) (*web3.Client, []wallet.Account) {
	t.Helper()
	accs := wallet.DevAccounts("contracts test", 4)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	bc := chain.New(g)
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
	if err != nil {
		t.Fatal(err)
	}
	return client, accs
}

func TestAllBuiltinsCompile(t *testing.T) {
	for _, name := range []string{"DataStorage", "BaseRental", "RentalAgreementV2", "FreelanceEscrow"} {
		art, err := Artifact(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(art.Bytecode) == 0 || len(art.Runtime) == 0 {
			t.Fatalf("%s: empty code", name)
		}
		if len(art.ABIJSON) == 0 {
			t.Fatalf("%s: no ABI", name)
		}
	}
	if _, err := Artifact("Nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Sources()) != 4 {
		t.Fatal("sources map")
	}
}

// TestArtifactABIsStoreSelectorsAndTopics: every built-in artifact and
// both hand-built ABIs carry keccak(signature) for each method and event
// from construction, and reading it back does not hash again (building
// the signature string is what would allocate).
func TestArtifactABIsStoreSelectorsAndTopics(t *testing.T) {
	abis := map[string]*abi.ABI{"Notary": NotaryABI(), "Proxy": ProxyABI()}
	for name := range Sources() {
		abis[name] = MustArtifact(name).ABI
		parsed, err := abi.ParseJSON(MustArtifact(name).ABIJSON)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		abis[name+" (ABIJSON)"] = parsed
	}
	for name, a := range abis {
		if len(a.Methods) == 0 {
			t.Fatalf("%s: no methods", name)
		}
		for mname, m := range a.Methods {
			h := ethtypes.Keccak256([]byte(m.Signature()))
			if m.ID() != [4]byte(h[:4]) {
				t.Errorf("%s.%s: stored selector %x, fresh %x", name, mname, m.ID(), h[:4])
			}
		}
		for ename, e := range a.Events {
			want := ethtypes.Keccak256([]byte(e.Signature()))
			if e.Topic() != want {
				t.Errorf("%s.%s: stored topic %s, fresh %s", name, ename, e.Topic(), want)
			}
			if got, ok := a.EventByTopic(want); !ok || got.Name != ename {
				t.Errorf("%s: EventByTopic(%s) = %q, %v", name, ename, got.Name, ok)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, m := range a.Methods {
				_ = m.ID()
			}
			for _, e := range a.Events {
				_ = e.Topic()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: reading selectors and topics allocated %.0f times: not stored at construction", name, allocs)
		}
	}
}

func TestBaseRentalFullLifecycle(t *testing.T) {
	client, accs := rig(t)
	landlord, tenant := accs[0], accs[1]
	art := MustArtifact("BaseRental")

	rental, _, err := client.Deploy(
		web3.TxOpts{From: landlord.Address},
		art.ABI, art.Bytecode,
		ethtypes.Ether(1), ethtypes.Ether(2), uint64(12), "10115-Berlin-42",
	)
	if err != nil {
		t.Fatal(err)
	}
	// Landlord cannot be the tenant.
	if _, err := rental.Transact(web3.TxOpts{From: landlord.Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err == nil {
		t.Fatal("landlord confirmed own agreement")
	}
	// Wrong deposit rejected.
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "confirmAgreement"); err == nil {
		t.Fatal("wrong deposit accepted")
	}
	// Proper confirmation.
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	st, _ := rental.CallUint(tenant.Address, "state")
	if st.Uint64() != 1 { // Started
		t.Fatalf("state = %s", st)
	}
	// Rent flows to the landlord.
	before, _ := client.Backend().GetBalance(landlord.Address)
	for month := 1; month <= 3; month++ {
		if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := client.Backend().GetBalance(landlord.Address)
	if after.Sub(before) != ethtypes.Ether(3) {
		t.Fatalf("landlord received %s", ethtypes.FormatEther(after.Sub(before)))
	}
	// Rent history recorded on chain.
	n, _ := rental.CallUint(tenant.Address, "monthCounter")
	if n.Uint64() != 3 {
		t.Fatal("monthCounter")
	}
	out, err := rental.Call(tenant.Address, "paidrents", uint64(1))
	if err != nil || out[0].(uint256.Int).Uint64() != 2 || out[1].(uint256.Int).Uint64() != ethtypes.Ether(1).Uint64() {
		t.Fatalf("paidrents(1) = %v, %v", out, err)
	}
	// Non-party cannot terminate.
	if _, err := rental.Transact(web3.TxOpts{From: accs[2].Address}, "terminateContract"); err == nil {
		t.Fatal("stranger terminated")
	}
	// Early tenant termination: half deposit back, half to landlord.
	tenantBefore, _ := client.Backend().GetBalance(tenant.Address)
	llBefore, _ := client.Backend().GetBalance(landlord.Address)
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address}, "terminateContract"); err != nil {
		t.Fatal(err)
	}
	tenantAfter, _ := client.Backend().GetBalance(tenant.Address)
	llAfter, _ := client.Backend().GetBalance(landlord.Address)
	if llAfter.Sub(llBefore) != ethtypes.Ether(1) {
		t.Fatalf("landlord penalty share = %s", ethtypes.FormatEther(llAfter.Sub(llBefore)))
	}
	// Tenant got 1 ether back minus gas.
	gotBack := tenantAfter.Sub(tenantBefore)
	if gotBack.Gt(ethtypes.Ether(1)) || gotBack.Lt(ethtypes.Ether(1).Sub(ethtypes.Gwei(10_000_000))) {
		t.Fatalf("tenant refund = %s", ethtypes.FormatEther(gotBack))
	}
	st, _ = rental.CallUint(tenant.Address, "state")
	if st.Uint64() != 2 { // Terminated
		t.Fatal("not terminated")
	}
	// No further rent.
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err == nil {
		t.Fatal("rent accepted after termination")
	}
}

func TestRentalV2ClausesDiffer(t *testing.T) {
	client, accs := rig(t)
	landlord, tenant := accs[0], accs[1]
	art := MustArtifact("RentalAgreementV2")
	// rent 2, deposit 4, 12 months, maintenance 1, discount 0.5e, fine 1
	half := uint256.FromBig(ethtypes.Ether(1).ToBig())
	half = half.Div(uint256.NewUint64(2))
	v2, _, err := client.Deploy(web3.TxOpts{From: landlord.Address}, art.ABI, art.Bytecode,
		ethtypes.Ether(2), ethtypes.Ether(4), uint64(12), "10115-Berlin-42",
		ethtypes.Ether(1), half, ethtypes.Ether(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(4)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	// Old rent amount now fails (discount applies).
	if _, err := v2.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "payRent"); err == nil {
		t.Fatal("undiscounted rent accepted")
	}
	discounted := ethtypes.Ether(2).Sub(half)
	if _, err := v2.Transact(web3.TxOpts{From: tenant.Address, Value: discounted}, "payRent"); err != nil {
		t.Fatal(err)
	}
	// The new clause exists and works.
	if _, err := v2.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payMaintenanceFee"); err != nil {
		t.Fatal(err)
	}
	paid, _ := v2.CallUint(tenant.Address, "maintenancePaid")
	if paid != ethtypes.Ether(1) {
		t.Fatal("maintenance not recorded")
	}
	// Early termination uses the explicit fine (1 ether of the 4 deposit).
	llBefore, _ := client.Backend().GetBalance(landlord.Address)
	if _, err := v2.Transact(web3.TxOpts{From: tenant.Address}, "terminateContract"); err != nil {
		t.Fatal(err)
	}
	llAfter, _ := client.Backend().GetBalance(landlord.Address)
	if llAfter.Sub(llBefore) != ethtypes.Ether(1) {
		t.Fatalf("fine paid = %s", ethtypes.FormatEther(llAfter.Sub(llBefore)))
	}
}

func TestVersionPointers(t *testing.T) {
	client, accs := rig(t)
	landlord := accs[0]
	art := MustArtifact("BaseRental")
	v1, _, err := client.Deploy(web3.TxOpts{From: landlord.Address}, art.ABI, art.Bytecode,
		ethtypes.Ether(1), ethtypes.Ether(1), uint64(6), "house-1")
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := client.Deploy(web3.TxOpts{From: landlord.Address}, art.ABI, art.Bytecode,
		ethtypes.Ether(2), ethtypes.Ether(1), uint64(6), "house-1")
	if err != nil {
		t.Fatal(err)
	}
	// Only the landlord may link.
	if _, err := v1.Transact(web3.TxOpts{From: accs[1].Address}, "setNext", v2.Address); err == nil {
		t.Fatal("stranger linked versions")
	}
	if _, err := v1.Transact(web3.TxOpts{From: landlord.Address}, "setNext", v2.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Transact(web3.TxOpts{From: landlord.Address}, "setPrev", v1.Address); err != nil {
		t.Fatal(err)
	}
	next, err := v1.CallAddress(landlord.Address, "getNext")
	if err != nil || next != v2.Address {
		t.Fatalf("getNext = %s, %v", next, err)
	}
	prev, err := v2.CallAddress(landlord.Address, "getPrev")
	if err != nil || prev != v1.Address {
		t.Fatalf("getPrev = %s, %v", prev, err)
	}
}

func TestDataStorageContract(t *testing.T) {
	client, accs := rig(t)
	manager := accs[0]
	art := MustArtifact("DataStorage")
	ds, _, err := client.Deploy(web3.TxOpts{From: manager.Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	target := ethtypes.HexToAddress("0x00000000000000000000000000000000000000f1")
	for k, v := range map[string]string{"rent": "1500", "house": "22B Baker Street"} {
		if _, err := ds.Transact(web3.TxOpts{From: manager.Address}, "setValue", target, k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite does not duplicate the key.
	if _, err := ds.Transact(web3.TxOpts{From: manager.Address}, "setValue", target, "rent", "1600"); err != nil {
		t.Fatal(err)
	}
	got, err := ds.CallString(manager.Address, "getValue", target, "rent")
	if err != nil || got != "1600" {
		t.Fatalf("getValue = %q, %v", got, err)
	}
	n, _ := ds.CallUint(manager.Address, "keyCount", target)
	if n.Uint64() != 2 {
		t.Fatalf("keyCount = %s", n)
	}
	// Key enumeration.
	keys := map[string]bool{}
	for i := uint64(0); i < 2; i++ {
		k, err := ds.CallString(manager.Address, "keyAt", target, i)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if !keys["rent"] || !keys["house"] {
		t.Fatalf("keys = %v", keys)
	}
	// Access control.
	if _, err := ds.Transact(web3.TxOpts{From: accs[1].Address}, "setValue", target, "x", "y"); err == nil {
		t.Fatal("non-owner wrote")
	}
}

func TestEscrowLifecycle(t *testing.T) {
	client, accs := rig(t)
	clientAcc, freelancer := accs[0], accs[1]
	art := MustArtifact("FreelanceEscrow")
	esc, _, err := client.Deploy(web3.TxOpts{From: clientAcc.Address}, art.ABI, art.Bytecode,
		freelancer.Address, ethtypes.Ether(2), uint64(3), "design the landing page")
	if err != nil {
		t.Fatal(err)
	}
	// Underfunding fails.
	if _, err := esc.Transact(web3.TxOpts{From: clientAcc.Address, Value: ethtypes.Ether(5)}, "fund"); err == nil {
		t.Fatal("partial funding accepted")
	}
	if _, err := esc.Transact(web3.TxOpts{From: clientAcc.Address, Value: ethtypes.Ether(6)}, "fund"); err != nil {
		t.Fatal(err)
	}
	before, _ := client.Backend().GetBalance(freelancer.Address)
	esc.Transact(web3.TxOpts{From: clientAcc.Address}, "approveMilestone")
	esc.Transact(web3.TxOpts{From: clientAcc.Address}, "approveMilestone")
	after, _ := client.Backend().GetBalance(freelancer.Address)
	if after.Sub(before) != ethtypes.Ether(4) {
		t.Fatal("milestones not paid")
	}
	// Cancel refunds the remainder.
	cBefore, _ := client.Backend().GetBalance(clientAcc.Address)
	if _, err := esc.Transact(web3.TxOpts{From: freelancer.Address}, "cancel"); err != nil {
		t.Fatal(err)
	}
	cAfter, _ := client.Backend().GetBalance(clientAcc.Address)
	if cAfter.Sub(cBefore) != ethtypes.Ether(2) {
		t.Fatalf("refund = %s", ethtypes.FormatEther(cAfter.Sub(cBefore)))
	}
}

func TestProxyDelegatesAndUpgrades(t *testing.T) {
	client, accs := rig(t)
	admin := accs[0]
	// Two counter implementations with different behaviour.
	implAt := func(delta int) (*web3.BoundContract, *minisol.Artifact) {
		src := fmt.Sprintf(`
		contract Impl {
			uint public count;
			function increment() public { count += %d; }
		}`, delta)
		art, err := minisol.CompileContract(src, "Impl")
		if err != nil {
			t.Fatal(err)
		}
		bound, _, err := client.Deploy(web3.TxOpts{From: admin.Address}, art.ABI, art.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		return bound, art
	}
	impl1Bound, counterArt := implAt(1)
	impl2Bound, _ := implAt(100)
	impl1, impl2 := impl1Bound.Address, impl2Bound.Address

	// Deploy the proxy pointing at impl1 via its raw creation payload.
	emptyABI := &abi.ABI{Methods: map[string]abi.Method{}, Events: map[string]abi.Event{}}
	proxyBound, proxyRcpt, err := client.Deploy(
		web3.TxOpts{From: admin.Address, GasLimit: 500_000}, emptyABI, PackProxyDeploy(impl1))
	if err != nil {
		t.Fatal(err)
	}
	proxyAddr := proxyBound.Address
	_ = proxyRcpt
	proxied := client.Bind(proxyAddr, counterArt.ABI)
	if _, err := proxied.Transact(web3.TxOpts{From: accs[1].Address, GasLimit: 500_000}, "increment"); err != nil {
		t.Fatal(err)
	}
	v, err := proxied.CallUint(accs[1].Address, "count")
	if err != nil || v.Uint64() != 1 {
		t.Fatalf("count via proxy = %s, %v", v, err)
	}
	// Upgrade to impl2; storage (count) is preserved, logic changes.
	mgmt := client.Bind(proxyAddr, ProxyABI())
	if _, err := mgmt.Transact(web3.TxOpts{From: admin.Address, GasLimit: 100_000}, "upgradeTo", impl2); err != nil {
		t.Fatal(err)
	}
	if _, err := proxied.Transact(web3.TxOpts{From: accs[1].Address, GasLimit: 500_000}, "increment"); err != nil {
		t.Fatal(err)
	}
	v, _ = proxied.CallUint(accs[1].Address, "count")
	if v.Uint64() != 101 {
		t.Fatalf("count after upgrade = %s", v)
	}
	// Non-admin upgradeTo falls through to the implementation and reverts.
	if _, err := mgmt.Transact(web3.TxOpts{From: accs[1].Address, GasLimit: 100_000}, "upgradeTo", impl1); err == nil {
		t.Fatal("non-admin upgraded")
	}
	v, _ = proxied.CallUint(accs[1].Address, "count")
	if v.Uint64() != 101 {
		t.Fatal("unauthorized upgrade took effect")
	}
}
