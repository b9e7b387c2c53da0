package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// getterField is a public field read as it was before the reads went to
// storage: the variable's getter eth_call through the version's
// published ABI, rendered by renderValue. It is the oracle for the
// storage reads.
func getterField(m *Manager, addr ethtypes.Address, name string) (string, error) {
	bound, err := m.BindVersion(addr)
	if err != nil {
		return "", err
	}
	if method, ok := bound.ABI.Methods[name]; !ok || len(method.Inputs) != 0 || len(method.Outputs) != 1 {
		return "", fmt.Errorf("no one-value getter %s", name)
	}
	out, err := bound.Call(addr, name)
	if err != nil {
		return "", err
	}
	return renderValue(out[0])
}

// renderValue renders one decoded getter output as SnapshotContract
// writes a field: words decimal, addresses as hex, strings verbatim.
func renderValue(v interface{}) (string, error) {
	switch x := v.(type) {
	case uint256.Int:
		return x.String(), nil
	case ethtypes.Address:
		return x.Hex(), nil
	case string:
		return x, nil
	case bool:
		return fmt.Sprint(x), nil
	}
	return "", fmt.Errorf("unsupported getter value type %T", v)
}

// getterPayments is the history reader as it was: the monthCounter
// getter, then the paidrents(i) getter for each i below it.
func getterPayments(m *Manager, addr ethtypes.Address) ([]PaymentRecord, error) {
	bound, err := m.BindVersion(addr)
	if err != nil {
		return nil, err
	}
	count, err := bound.CallUint(addr, "monthCounter")
	if err != nil {
		return nil, err
	}
	var out []PaymentRecord
	for i := uint64(0); i < count.Uint64(); i++ {
		vals, err := bound.Call(addr, "paidrents", i)
		if err != nil {
			return nil, err
		}
		out = append(out, PaymentRecord{Month: vals[0].(uint256.Int).Uint64(), Amount: vals[1].(uint256.Int)})
	}
	return out, nil
}

// storageField reads name through whichever of the three storage
// readers answers, rendered as getterField renders it. At most one may
// answer: a reader refuses a variable of another type with ErrNoField.
func storageField(m *Manager, addr ethtypes.Address, name string) (string, error) {
	var answers []string
	collect := func(v string, err error) error {
		if err == nil {
			answers = append(answers, v)
		} else if !errors.Is(err, ErrNoField) {
			return err
		}
		return nil
	}
	w, err := m.FieldUint(addr, name)
	if err := collect(w.String(), err); err != nil {
		return "", err
	}
	a, err := m.FieldAddress(addr, name)
	if err := collect(a.Hex(), err); err != nil {
		return "", err
	}
	if err := collect(m.FieldString(addr, name)); err != nil {
		return "", err
	}
	switch len(answers) {
	case 0:
		return "", fmt.Errorf("%w: %s", ErrNoField, name)
	case 1:
		return answers[0], nil
	}
	return "", fmt.Errorf("%s answered by %d readers: %v", name, len(answers), answers)
}

// fieldNames is every variable any case-study artifact declares, and a
// name none declares.
func fieldNames() []string {
	seen := map[string]bool{"noSuchField": true}
	for _, name := range []string{"BaseRental", "RentalAgreementV2", "FreelanceEscrow"} {
		for _, v := range contracts.MustArtifact(name).Layout.Vars {
			seen[v.Name] = true
		}
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// checkFields compares, for every version and every name of fieldNames,
// the storage read with the getter oracle: both answer the same value,
// or the getter fails and the storage read is ErrNoField. It compares
// each version's payments with the paidrents getters' likewise, and
// returns how many reads answered.
func checkFields(t testing.TB, m *Manager, step string, versions []ethtypes.Address) int {
	t.Helper()
	answered := 0
	for i, v := range versions {
		for _, name := range fieldNames() {
			got, err := storageField(m, v, name)
			want, werr := getterField(m, v, name)
			switch {
			case werr != nil && !errors.Is(err, ErrNoField):
				t.Errorf("%s: v%d.%s: storage %q (%v), getter fails (%v)", step, i, name, got, err, werr)
			case werr == nil && (err != nil || got != want):
				t.Errorf("%s: v%d.%s: storage %q (%v), getter %q", step, i, name, got, err, want)
			case werr == nil:
				answered++
			}
		}
		got, err := m.payments(v)
		want, werr := getterPayments(m, v)
		if (werr != nil) != errors.Is(err, ErrNoField) || (werr == nil && (err != nil || !reflect.DeepEqual(got, want))) {
			t.Errorf("%s: v%d payments: storage %v (%v), getters %v (%v)", step, i, got, err, want, werr)
		}
	}
	return answered
}

// TestFieldWordsMatchGetters: every public scalar of BaseRental,
// RentalAgreementV2 and FreelanceEscrow read from storage is what its
// getter returns, and each version's paidrents(i) for every i, at each
// stage of the lifecycles: created, started, paid ×k, proxy set,
// modified, terminated, rejected; house in short (< 32 bytes) and long
// form. A name a version does not declare is ErrNoField where its
// getter fails.
func TestFieldWordsMatchGetters(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant, freelancer := accs[0].Address, accs[1].Address, accs[2].Address
	svc := NewRentalService(m)
	deploy := func(house string) ethtypes.Address {
		dep, err := svc.DeployRental(landlord, RentalTerms{Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: house})
		if err != nil {
			t.Fatal(err)
		}
		return dep.Contract.Address
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	transact := func(addr, from ethtypes.Address, value uint256.Int, method string, args ...interface{}) {
		t.Helper()
		bound, err := m.BindVersion(addr)
		must(err)
		_, err = bound.Transact(web3.TxOpts{From: from, Value: value}, method, args...)
		must(err)
	}
	short, long := deploy("10115-Berlin-42"), deploy(strings.Repeat("Unter den Linden ", 6))
	esc, err := m.DeployVersion(landlord, contracts.MustArtifact("FreelanceEscrow"), nil, freelancer, ethtypes.Ether(1), uint256.NewUint64(3), "a website")
	must(err)
	versions := []ethtypes.Address{short, long, esc.Contract.Address}
	check := func(step string) {
		t.Helper()
		if n := checkFields(t, m, step, versions); n < 30 {
			t.Errorf("%s: only %d fields answered", step, n)
		}
	}
	check("created")

	must(svc.Confirm(tenant, short))
	must(svc.Confirm(tenant, long))
	transact(esc.Contract.Address, landlord, ethtypes.Ether(3), "fund")
	check("started")
	for k := 1; k <= 3; k++ {
		for _, v := range []ethtypes.Address{short, long} {
			_, err := svc.PayRent(tenant, v)
			must(err)
		}
		if k < 3 {
			transact(esc.Contract.Address, landlord, uint256.Zero, "approveMilestone")
		}
		check(fmt.Sprintf("paid ×%d", k))
	}
	transact(long, landlord, uint256.Zero, "setPaymentProxy", accs[3].Address)
	check("proxy set")

	v2, err := svc.Modify(landlord, short, ModifiedTerms{
		Rent: ethtypes.Ether(3), Deposit: ethtypes.Ether(2), Months: 12,
		House: strings.Repeat("Hauptstraße ", 4), MaintenanceFee: ethtypes.Ether(1),
		Discount: ethtypes.Ether(1), Fine: ethtypes.Ether(1),
	})
	must(err)
	versions = append(versions, v2.Contract.Address)
	check("modified")
	must(svc.ConfirmModification(tenant, v2.Contract.Address))
	for k := 0; k < 2; k++ {
		_, err := svc.PayRent(tenant, v2.Contract.Address)
		must(err)
	}
	_, err = svc.PayMaintenance(tenant, v2.Contract.Address)
	must(err)
	check("modification confirmed and paid")

	must(svc.Terminate(landlord, long))
	transact(esc.Contract.Address, freelancer, uint256.Zero, "cancel")
	check("terminated")

	v3, err := svc.Modify(landlord, v2.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 6, House: "",
		MaintenanceFee: ethtypes.Ether(1), Fine: ethtypes.Ether(1),
	})
	must(err)
	versions = append(versions, v3.Contract.Address)
	must(svc.RejectModification(tenant, v3.Contract.Address))
	check("rejected")
	line, err := m.WalkStates(short)
	must(err)
	var states []string
	for _, v := range line {
		states = append(states, v.State)
	}
	if want := []string{StateTerminated, StateTerminated, StateRejected}; !reflect.DeepEqual(states, want) {
		t.Errorf("states %v, want %v", states, want)
	}
}

// FuzzFieldWords runs a random lifecycle script — confirm, pay, set or
// clear the payment proxy, modify with a house of random length, accept
// or reject the modification, terminate by either party, pay
// maintenance — over a fresh agreement whose house has a random length,
// then compares every field and every payment of every version read
// from storage with the getter oracle. A step the contract refuses is
// skipped, as a user's refused action is.
func FuzzFieldWords(f *testing.F) {
	m, accs := rigOver(f, func(b *web3.LocalBackend) web3.Backend { return b })
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	// The first byte is v1's house length; then one byte per step: the
	// step (low three bits) and its argument (the rest).
	f.Add([]byte{15})
	f.Add([]byte{40, 0, 1, 1, 3 | 5<<3, 4, 1})             // paid, modified, accepted, paid
	f.Add([]byte{31, 0, 1, 3 | 31<<3, 5, 6})               // rejected, then terminate refused
	f.Add([]byte{32, 0, 2 | 8<<3, 1, 2, 1, 6 | 8<<3, 7})   // proxy set and cleared, terminated
	f.Add([]byte{0, 0, 3, 4, 7, 1, 3 | 31<<3, 4, 1, 6, 1}) // three versions
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 12 {
			return
		}
		dep, err := svc.DeployRental(landlord, RentalTerms{
			Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 2,
			House: strings.Repeat("h", int(script[0])%80),
		})
		if err != nil {
			t.Fatal(err)
		}
		versions := []ethtypes.Address{dep.Contract.Address}
		for _, b := range script[1:] {
			tail, arg := versions[len(versions)-1], int(b>>3)
			switch b & 7 {
			case 0:
				svc.Confirm(tenant, tail)
			case 1:
				svc.PayRent(tenant, tail)
			case 2:
				proxy := ethtypes.Address{}
				if arg&1 == 0 {
					proxy = accs[3].Address
				}
				if bound, err := m.BindVersion(tail); err == nil {
					bound.Transact(web3.TxOpts{From: landlord}, "setPaymentProxy", proxy)
				}
			case 3:
				next, err := svc.Modify(landlord, tail, ModifiedTerms{
					Rent: ethtypes.Ether(2), Deposit: ethtypes.Ether(1), Months: 2,
					House: strings.Repeat("m", arg), MaintenanceFee: ethtypes.Ether(1),
					Discount: uint256.NewUint64(uint64(arg)), Fine: ethtypes.Ether(1),
				})
				if err == nil {
					versions = append(versions, next.Contract.Address)
				}
			case 4:
				svc.ConfirmModification(tenant, tail)
			case 5:
				svc.RejectModification(tenant, tail)
			case 6:
				party := tenant
				if arg&1 == 1 {
					party = landlord
				}
				svc.Terminate(party, tail)
			case 7:
				svc.PayMaintenance(tenant, tail)
			}
		}
		checkFields(t, m, fmt.Sprintf("script %x", script), versions)
	})
}
