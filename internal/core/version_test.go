package core

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/rpc"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
	"legalchain/internal/web3"
)

// getterPointers is the pointer reader as it was before the walk read
// storage: getPrev and getNext eth_calls through the version's
// published ABI, and a version whose ABI has no getPrev is not
// versioned. It is the oracle for the slot reads.
func getterPointers(m *Manager) func(ethtypes.Address) (prev, next ethtypes.Address, err error) {
	return func(addr ethtypes.Address) (prev, next ethtypes.Address, err error) {
		bound, err := m.BindVersion(addr)
		if err != nil {
			return prev, next, err
		}
		if _, ok := bound.ABI.Methods["getPrev"]; !ok {
			return prev, next, fmt.Errorf("%w: %s", ErrNotVersioned, addr)
		}
		if prev, err = bound.CallAddress(addr, "getPrev"); err != nil {
			return prev, next, err
		}
		next, err = bound.CallAddress(addr, "getNext")
		return prev, next, err
	}
}

// deployLinkable deploys one version of each case-study artifact that
// declares getPrev and getNext, with landlord as the account that may
// link it: BaseRental, its modification RentalAgreementV2 (whose
// pointers it inherits), FreelanceEscrow (pointers at other slots), and
// BaseRental again.
func deployLinkable(t testing.TB, m *Manager, landlord, other ethtypes.Address) []ethtypes.Address {
	t.Helper()
	rental := []interface{}{ethtypes.Ether(1), ethtypes.Ether(2), uint256.NewUint64(12), "10115-Berlin-42"}
	var out []ethtypes.Address
	for _, d := range []struct {
		name string
		args []interface{}
	}{
		{"BaseRental", rental},
		{"RentalAgreementV2", v2Args()},
		{"FreelanceEscrow", []interface{}{other, ethtypes.Ether(1), uint256.NewUint64(3), "a website"}},
		{"BaseRental", rental},
	} {
		dep, err := m.DeployVersion(landlord, contracts.MustArtifact(d.name), nil, d.args...)
		if err != nil {
			t.Fatalf("deploying %s: %v", d.name, err)
		}
		out = append(out, dep.Contract.Address)
	}
	return out
}

// relink sends one raw setNext or setPrev from landlord.
func relink(t testing.TB, m *Manager, landlord, addr ethtypes.Address, method string, to ethtypes.Address) {
	t.Helper()
	bound, err := m.BindVersion(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bound.Transact(web3.TxOpts{From: landlord}, method, to); err != nil {
		t.Fatalf("%s(%s) on %s: %v", method, to, addr, err)
	}
}

// TestPointerSlotsMatchGetters: for every case-study artifact that
// declares getPrev and getNext, the pointers read at its layout's slots
// are what its getters return — unlinked, linked by ModifyContract, and
// after raw setNext/setPrev relinks to a zero address, to itself and
// across artifacts — and what the script set.
func TestPointerSlotsMatchGetters(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	vs := deployLinkable(t, m, landlord, accs[1].Address)
	linked, err := NewRentalService(m).Modify(landlord, vs[0], ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	vs = append(vs, linked.Contract.Address)
	want := map[ethtypes.Address][2]ethtypes.Address{vs[0]: {{}, vs[4]}, vs[4]: {vs[0], {}}}
	oracle := getterPointers(m)
	check := func(step string) {
		t.Helper()
		for i, v := range vs {
			prev, next, err := m.pointers(v)
			oprev, onext, oerr := oracle(v)
			if err != nil || oerr != nil || prev != oprev || next != onext {
				t.Errorf("%s: v%d: slots (%s, %s, %v), getters (%s, %s, %v)", step, i, prev, next, err, oprev, onext, oerr)
			}
			if w := want[v]; prev != w[0] || next != w[1] {
				t.Errorf("%s: v%d: slots read (%s, %s), the script set (%s, %s)", step, i, prev, next, w[0], w[1])
			}
		}
	}
	check("unlinked, v0 → v4 modified")
	zero := ethtypes.Address{}
	for _, op := range []struct {
		v      int
		method string
		to     ethtypes.Address
	}{
		{1, "setNext", vs[2]}, {2, "setPrev", vs[1]}, // across artifacts
		{2, "setNext", vs[3]}, {3, "setPrev", vs[2]},
		{2, "setNext", vs[2]}, {3, "setPrev", vs[3]}, // self-links
		{2, "setNext", zero}, {3, "setPrev", zero}, // zero again
		{0, "setNext", vs[3]}, {4, "setPrev", vs[4]}, // a fork of the linked pair
		{1, "setPrev", vs[1]}, {1, "setNext", vs[1]},
	} {
		relink(t, m, landlord, vs[op.v], op.method, op.to)
		w := want[vs[op.v]]
		w[map[string]int{"setPrev": 0, "setNext": 1}[op.method]] = op.to
		want[vs[op.v]] = w
		check(fmt.Sprintf("v%d.%s(%s)", op.v, op.method, op.to))
	}
}

// errorClass names the error kinds a walk tells apart.
func errorClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrChainCorrupted):
		return "corrupted"
	case errors.Is(err, ErrNotVersioned):
		return "not versioned"
	}
	return "other"
}

// FuzzWalkChain runs a script of raw setNext and setPrev transactions
// over four deployed versions of three artifacts — cycles, forks,
// self-links, zero addresses, and links to a registered contract that is
// not versioned or to an address with no registry row — then walks from
// every version through the slot reader and through the getter oracle.
// Both return the same line or an error of the same class. The script
// is applied to all-zero pointers, so a state depends on its input
// only: each input sends only the links that differ from the last.
func FuzzWalkChain(f *testing.F) {
	m, accs := rigOver(f, func(b *web3.LocalBackend) web3.Backend { return b })
	landlord := accs[0].Address
	vs := deployLinkable(f, m, landlord, accs[1].Address)
	ds, err := m.EnsureDataStorage(landlord)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.publish(ContractRow{Address: ds.Address.Hex(), Name: "DataStorage", Version: 1}, contracts.MustArtifact("DataStorage"), nil); err != nil {
		f.Fatal(err)
	}
	// Targets: zero, the four versions, DataStorage, an unknown address.
	targets := append([]ethtypes.Address{{}}, vs...)
	targets = append(targets, ds.Address, ethtypes.HexToAddress("0x00000000000000000000000000000000000000ee"))
	oracle := getterPointers(m)

	// An op is two bytes: version (low two bits) and setNext or setPrev
	// (bit 2); then the target.
	f.Add([]byte{})
	f.Add([]byte{0, 2, 5, 1, 1, 3, 6, 2, 2, 4, 7, 3}) // the line v0 … v3
	f.Add([]byte{0, 2, 5, 1, 1, 1, 4, 2})             // a cycle of two
	f.Add([]byte{0, 1, 4, 1, 5, 1})                   // self-links
	f.Add([]byte{0, 2, 5, 1, 1, 3, 0, 3, 7, 1})       // a fork at v0
	f.Add([]byte{0, 5, 1, 6, 4, 6})                   // links out of the line
	f.Fuzz(func(t *testing.T, script []byte) {
		var want [4][2]ethtypes.Address // [version][prev, next]
		for i := 0; i+1 < len(script) && i < 32; i += 2 {
			want[script[i]&3][1-script[i]>>2&1] = targets[int(script[i+1])%len(targets)]
		}
		for i, v := range vs {
			prev, next, err := oracle(v)
			if err != nil {
				t.Fatal(err)
			}
			if prev != want[i][0] {
				relink(t, m, landlord, v, "setPrev", want[i][0])
			}
			if next != want[i][1] {
				relink(t, m, landlord, v, "setNext", want[i][1])
			}
		}
		for i, v := range vs {
			got, err := m.WalkChain(v)
			line, oerr := m.walk(v, oracle)
			if errorClass(err) != errorClass(oerr) || !reflect.DeepEqual(got, line) {
				t.Fatalf("walk from v%d: slots %v (%v), getters %v (%v)", i, got, err, line, oerr)
			}
		}
	})
}

// TestWalkChainOverRPC: a manager whose node is a JSON-RPC client walks
// the evidence line, audits it and aggregates its rent history with
// the answers a manager over the chain in process gets, and reads the
// pointers, states and payments with eth_getStorageAt: no eth_call is
// sent. Over RPC the node has no head view to run the audit's behaviour
// diffs on, so those are left out of the comparison.
func TestWalkChainOverRPC(t *testing.T) {
	var bc *chain.Blockchain
	m, accs := rigOver(t, func(b *web3.LocalBackend) web3.Backend {
		bc = b.BC
		return b
	})
	landlord, tenant := accs[0].Address, accs[1].Address
	line := evidenceLine(t, m, landlord, tenant)

	counter := &methodCounter{next: rpc.NewServer(bc, nil), n: map[string]int{}}
	srv := httptest.NewServer(counter)
	defer srv.Close()
	client, err := web3.NewClient(rpc.Dial(srv.URL), m.Client.Keystore())
	if err != nil {
		t.Fatal(err)
	}
	remote := NewManager(client, m.IPFS, m.Store)
	for i, addr := range line {
		counter.take()
		walked, err := remote.WalkChain(addr)
		if n := counter.take(); len(n) != 1 || n["eth_getStorageAt"] != 2*len(line) {
			t.Errorf("v%d: WalkChain over rpc asked %v; want %d eth_getStorageAt only", i+1, n, 2*len(line))
		}
		want, werr := m.WalkChain(addr)
		if err != nil || werr != nil || len(walked) != len(line) || !reflect.DeepEqual(walked, want) {
			t.Errorf("v%d: WalkChain over rpc %v (%v), in process %v (%v)", i+1, walked, err, want, werr)
		}

		report, err := remote.AuditChain(tenant, addr)
		wantReport, werr := m.AuditChain(tenant, addr)
		if err != nil || werr != nil {
			t.Fatalf("v%d: AuditChain over rpc %v, in process %v", i+1, err, werr)
		}
		for j := range wantReport.Pairs {
			wantReport.Pairs[j].Behaviour = nil
		}
		if !report.ChainVerified || !reflect.DeepEqual(report, wantReport) {
			t.Errorf("v%d: AuditChain over rpc %+v, in process %+v", i+1, report, wantReport)
		}

		hist, err := NewRentalService(remote).RentHistory(tenant, addr)
		wantHist, werr := NewRentalService(m).RentHistory(tenant, addr)
		if err != nil || werr != nil || len(hist) != len(line) || !reflect.DeepEqual(hist, wantHist) {
			t.Errorf("v%d: RentHistory over rpc %v (%v), in process %v (%v)", i+1, hist, err, wantHist, werr)
		}
		states, err := remote.WalkStates(addr)
		wantStates, werr := m.WalkStates(addr)
		if err != nil || werr != nil || !reflect.DeepEqual(states, wantStates) {
			t.Errorf("v%d: WalkStates over rpc %v (%v), in process %v (%v)", i+1, states, err, wantStates, werr)
		}
		if n := counter.take(); n["eth_call"] != 0 {
			t.Errorf("v%d: the reads over rpc sent %d eth_calls (%v), want none", i+1, n["eth_call"], counter.selectors)
		}
	}
	// The counter counts: one getter through the remote client is one
	// eth_call.
	bound, err := remote.BindVersion(line[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bound.CallUint(tenant, "monthCounter"); err != nil {
		t.Fatal(err)
	}
	if n := counter.take(); n["eth_call"] != 1 {
		t.Errorf("a getter over rpc counted %v, want one eth_call", n)
	}

	// The headless guard: over JSON-RPC the manager has no head view to
	// fork, so every declared property is unverifiable and the guard
	// sends no transaction. In process the same candidate passes.
	terms := ModifiedTerms{Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1), Discount: uint256.Zero, Fine: ethtypes.Ether(1)}
	props := rentalProperties(terms)
	art := contracts.MustArtifact("RentalAgreementV2")
	head := line[len(line)-1]
	if rep, err := m.VerifyUpgrade(landlord, head, art, props, v2Args()...); err != nil || !rep.OK() {
		t.Fatalf("in process: VerifyUpgrade %+v, %v", rep, err)
	}
	counter.take()
	rep, err := remote.VerifyUpgrade(landlord, head, art, props, v2Args()...)
	if err != nil {
		t.Fatal(err)
	}
	if n := counter.take(); n["eth_sendRawTransaction"] != 0 {
		t.Errorf("headless VerifyUpgrade sent %d transactions (%v)", n["eth_sendRawTransaction"], n)
	}
	if len(rep.Properties) != len(props) || len(rep.Failures) != len(props) {
		t.Fatalf("headless VerifyUpgrade: %d property results, %d failures for %d properties: %+v",
			len(rep.Properties), len(rep.Failures), len(props), rep)
	}
	for i, p := range props {
		if res, f := rep.Properties[i], rep.Failures[i]; res.OK || res.Name != p.Name || f.Rule != upgrade.RulePropertyUnverifiable || f.Subject != p.Name {
			t.Errorf("property %s: result %+v, failure %+v; want %s", p.Name, res, f, upgrade.RulePropertyUnverifiable)
		}
	}
}
