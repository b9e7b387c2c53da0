package watch

import (
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// rig builds a dev chain with funded accounts and a web3 client over
// it. The blockchain itself is the tower's Source.
func rig(t *testing.T, n int) (*chain.Blockchain, *web3.Client, []wallet.Account) {
	t.Helper()
	accs := wallet.DevAccounts("watch test", n)
	bc := chain.New(rigGenesis(accs))
	t.Cleanup(func() { bc.Close() })
	return bc, clientFor(t, bc, accs), accs
}

func rigGenesis(accs []wallet.Account) *chain.Genesis {
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	return g
}

// clientFor returns a web3 client over bc that signs for accs.
func clientFor(t *testing.T, bc *chain.Blockchain, accs []wallet.Account) *web3.Client {
	t.Helper()
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func deployRental(t *testing.T, client *web3.Client, landlord wallet.Account, months uint64) *web3.BoundContract {
	t.Helper()
	art := contracts.MustArtifact("BaseRental")
	c, _, err := client.Deploy(web3.TxOpts{From: landlord.Address}, art.ABI, art.Bytecode,
		ethtypes.Ether(1), ethtypes.Ether(2), months, "10115-Berlin-42")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTowerLifecycle drives one rental through every lifecycle state
// and checks the tower's view after each step.
func TestTowerLifecycle(t *testing.T) {
	bc, client, accs := rig(t, 3)
	landlord, tenant := accs[0], accs[1]

	tower, err := New(bc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tower.Close()

	rental := deployRental(t, client, landlord, 12)
	tower.Sync()
	st := tower.Status()
	if st.Tracked != 1 || st.States[StateDrafted] != 1 {
		t.Fatalf("after deploy: %+v", st)
	}
	cs := st.Contracts[0]
	if cs.Template != "BaseRental" || cs.Months != 12 || cs.RentWei != ethtypes.Ether(1).String() || cs.DepositWei != ethtypes.Ether(2).String() {
		t.Fatalf("terms: %+v", cs)
	}
	if len(cs.Obligations) != 0 {
		t.Fatalf("drafted contract owes nothing, got %+v", cs.Obligations)
	}

	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	st = tower.Status()
	if st.States[StateSigned] != 1 {
		t.Fatalf("after confirm: %+v", st.States)
	}
	if len(st.Contracts[0].Obligations) != 1 || st.Contracts[0].Obligations[0].Kind != "rent-due" {
		t.Fatalf("signed contract owes rent, got %+v", st.Contracts[0].Obligations)
	}

	for month := 1; month <= 2; month++ {
		if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err != nil {
			t.Fatal(err)
		}
	}
	tower.Sync()
	st = tower.Status()
	if st.States[StateActive] != 1 || st.Contracts[0].MonthsPaid != 2 {
		t.Fatalf("after rent: %+v", st.Contracts[0])
	}

	// Link a successor: the original goes modified-pending with a
	// confirm-modification obligation.
	v2 := deployRental(t, client, landlord, 12)
	if _, err := rental.Transact(web3.TxOpts{From: landlord.Address}, "setNext", v2.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Transact(web3.TxOpts{From: landlord.Address}, "setPrev", rental.Address); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	st = tower.Status()
	if st.States[StateModifiedPending] != 1 {
		t.Fatalf("after link: %+v", st.States)
	}
	var pending *ContractStatus
	for i := range st.Contracts {
		if st.Contracts[i].Address == rental.Address.Hex() {
			pending = &st.Contracts[i]
		}
	}
	if pending == nil || pending.State != StateModifiedPending {
		t.Fatalf("original not pending: %+v", st.Contracts)
	}
	if len(pending.Obligations) != 1 || pending.Obligations[0].Kind != "confirm-modification" {
		t.Fatalf("obligations: %+v", pending.Obligations)
	}

	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address}, "terminateContract"); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	st = tower.Status()
	if st.States[StateTerminated] != 1 {
		t.Fatalf("after terminate: %+v", st.States)
	}

	// The timeline replays the whole story in order.
	var types []string
	for _, ev := range tower.Timeline(rental.Address) {
		types = append(types, ev.Type)
	}
	want := []string{"created", "signed", "payment", "payment", "modify-pending", "terminated"}
	if len(types) != len(want) {
		t.Fatalf("timeline %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("timeline %v, want %v", types, want)
		}
	}
	// The successor's timeline carries its own creation and link.
	var v2types []string
	for _, ev := range tower.Timeline(v2.Address) {
		v2types = append(v2types, ev.Type)
	}
	if len(v2types) != 2 || v2types[0] != "created" || v2types[1] != "version-linked" {
		t.Fatalf("successor timeline %v", v2types)
	}
	if st.LagBlocks != 0 {
		t.Fatalf("lag %d after sync", st.LagBlocks)
	}
}

// TestTowerIgnoresForeignContracts: non-rental deployments (data
// stores, escrows) and plain transfers never enter the tower.
func TestTowerIgnoresForeignContracts(t *testing.T) {
	bc, client, accs := rig(t, 2)
	tower, err := New(bc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tower.Close()

	art := contracts.MustArtifact("DataStorage")
	if _, _, err := client.Deploy(web3.TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	if st := tower.Status(); st.Tracked != 0 {
		t.Fatalf("tracked %d foreign contracts", st.Tracked)
	}
}

// TestAlertFiresExactlyOnce is the acceptance scenario: a tenant stops
// paying, `overdue > 0 for 2 blocks` fires exactly once, the firing is
// visible in the contract's timeline and the alert history, and the
// rule rearms after the tenant catches up.
func TestAlertFiresExactlyOnce(t *testing.T) {
	bc, client, accs := rig(t, 3)
	landlord, tenant, other := accs[0], accs[1], accs[2]

	rules, err := ParseRules("missed-rent: overdue > 0 for 2 blocks")
	if err != nil {
		t.Fatal(err)
	}
	tower, err := New(bc, Config{RentPeriod: 2, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	defer tower.Close()

	rental := deployRental(t, client, landlord, 12)
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	if st := tower.Status(); st.AlertsTotal != 0 {
		t.Fatalf("premature alert: %+v", st)
	}

	// The tenant goes silent; unrelated transfers keep sealing blocks.
	// Rent was due RentPeriod=2 blocks after signing, so the obligation
	// turns overdue, and after two consecutive overdue blocks the rule
	// must transition to firing — once.
	for i := 0; i < 6; i++ {
		if _, err := client.Transfer(web3.TxOpts{From: other.Address, Value: ethtypes.Ether(1)}, landlord.Address); err != nil {
			t.Fatal(err)
		}
		tower.Sync()
	}
	st := tower.Status()
	if st.Overdue == 0 {
		t.Fatalf("rent not overdue: %+v", st.Contracts[0])
	}
	if st.AlertsTotal != 1 || st.AlertsFiring != 1 {
		t.Fatalf("alerts total=%d firing=%d, want exactly one", st.AlertsTotal, st.AlertsFiring)
	}
	alerts := tower.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "missed-rent" || alerts[0].Value < 1 {
		t.Fatalf("alert history %+v", alerts)
	}
	found := false
	for _, c := range alerts[0].Contracts {
		if c == rental.Address.Hex() {
			found = true
		}
	}
	if !found {
		t.Fatalf("alert does not implicate the contract: %+v", alerts[0])
	}
	// ... and therefore appears in the contract's timeline.
	sawAlert := false
	for _, ev := range tower.Timeline(rental.Address) {
		if ev.Type == "alert" && ev.Rule == "missed-rent" {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Fatal("alert missing from timeline")
	}
	// AlertsSince is the SSE read: everything after the last seen seq.
	if got := tower.AlertsSince(alerts[0].Seq); len(got) != 0 {
		t.Fatalf("AlertsSince past the end returned %+v", got)
	}
	if got := tower.AlertsSince(0); len(got) != 1 {
		t.Fatalf("AlertsSince(0) returned %d alerts", len(got))
	}

	// Tenant catches up: the obligation clears and the rule rearms
	// without a second firing.
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	st = tower.Status()
	if st.AlertsFiring != 0 {
		t.Fatalf("still firing after payment: %+v", st.Rules)
	}
	if st.AlertsTotal != 1 {
		t.Fatalf("re-fired: total %d", st.AlertsTotal)
	}
}

// TestTowerBackgroundLoop exercises Start/Close: the hub-driven path
// must fold without explicit Sync calls.
func TestTowerBackgroundLoop(t *testing.T) {
	bc, client, accs := rig(t, 2)
	tower, err := New(bc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tower.Start()
	defer tower.Close()

	rental := deployRental(t, client, accs[0], 6)
	if _, err := rental.Transact(web3.TxOpts{From: accs[1].Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	// The loop is asynchronous; Sync is the deterministic barrier and is
	// safe concurrently with it.
	tower.Sync()
	st := tower.Status()
	if st.Tracked != 1 || st.States[StateSigned] != 1 {
		t.Fatalf("background fold: %+v", st.States)
	}
}

// TestFoldDelayObserved: each fold batch past the build-time head
// observes one publish → fold-start delay; a batch with nothing new, and
// the refold up to the build-time head, observe none.
func TestFoldDelayObserved(t *testing.T) {
	bc, client, accs := rig(t, 2)
	if _, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address); err != nil {
		t.Fatal(err)
	}
	tower, err := New(bc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tower.Close()
	before := mFoldDelay.Count()
	tower.Sync() // the refold of the build-time head
	if n := mFoldDelay.Count() - before; n != 0 {
		t.Fatalf("the refold observed %d delays, want 0", n)
	}
	for i := 1; i <= 3; i++ {
		if _, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address); err != nil {
			t.Fatal(err)
		}
		tower.Sync()
		tower.Sync() // nothing new: no batch
		if n := mFoldDelay.Count() - before; n != uint64(i) {
			t.Fatalf("after %d blocks: %d delays observed, want %d", i, n, i)
		}
	}
	if p50, p99 := tower.FoldDelay(); p50 <= 0 || p99 < p50 {
		t.Fatalf("FoldDelay = %v, %v", p50, p99)
	}
}
