package core

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/seglog"
	"legalchain/internal/uint256"
)

// durableRig is rig with the registry in a WAL-backed docstore and the
// blobs in a file store, both under dir, the way rentald -datadir keeps
// them. It returns the manager and the opener of a fresh one over the
// same chain and directory.
func durableRig(t *testing.T, dir string) (*Manager, func() *Manager, []ethtypes.Address) {
	t.Helper()
	m, accs := rig(t)
	reopen := func() *Manager {
		store, err := docstore.Open(filepath.Join(dir, "db"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		blobs, err := ipfs.NewFileStore(filepath.Join(dir, "ipfs"))
		if err != nil {
			t.Fatal(err)
		}
		return NewManager(m.Client, ipfs.NewNode(blobs), store)
	}
	return reopen(), reopen, []ethtypes.Address{accs[0].Address, accs[1].Address}
}

func describe(t *testing.T, m *Manager, addr ethtypes.Address) ContractRow {
	t.Helper()
	row, err := m.GetRow(addr)
	if err == nil {
		row, err = m.Describe(row, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestTerminateCrashWindowRestart: the registry is not written after a
// transaction, so a node that loses its docstore between terminateContract
// and whatever came next still shows the termination after a restart. A
// build that wrote the row after the transaction failed Terminate with
// docstore.ErrClosed and showed the version active for good.
func TestTerminateCrashWindowRestart(t *testing.T) {
	dir := t.TempDir()
	m, reopen, accs := durableRig(t, dir)
	landlord, tenant := accs[0], accs[1]
	svc := NewRentalService(m)
	addr := deployRental(t, m, landlord).Contract.Address
	if err := svc.Confirm(tenant, addr); err != nil {
		t.Fatal(err)
	}
	m.Store.Close()
	if err := svc.Terminate(tenant, addr); err != nil {
		t.Fatalf("Terminate with the docstore gone = %v", err)
	}

	row := describe(t, reopen(), addr)
	if row.State != StateTerminated || row.Tenant != tenant.Hex() {
		t.Fatalf("after restart: state %q tenant %q, want %q and %s", row.State, row.Tenant, StateTerminated, tenant.Hex())
	}
}

// TestLifecycleWritesEachRowOnce: one durable Fig. 4 lifecycle journals
// exactly two registry rows, one per version, and no stored row carries
// a derived field.
func TestLifecycleWritesEachRowOnce(t *testing.T) {
	dir := t.TempDir()
	m, reopen, accs := durableRig(t, dir)
	landlord, tenant := accs[0], accs[1]
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, v1, 1)
	v2, err := svc.Modify(landlord, v1, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ConfirmModification(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if err := svc.Terminate(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	m.Store.Close()

	// Count the registry writes the journal holds.
	writes := 0
	log, _, err := seglog.Open(filepath.Join(dir, "db"), "wal-", 0, func(_ seglog.Pos, payload []byte) error {
		var rec struct{ Op, Table string }
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Table == TableContracts {
			writes++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if writes != 2 {
		t.Errorf("a lifecycle wrote the contracts table %d times, want 2 (one row per version)", writes)
	}

	fresh := reopen()
	fresh.Store.Scan(TableContracts, func(key string, raw json.RawMessage) bool {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for _, derived := range []string{"state", "tenant", "next"} {
			if _, ok := fields[derived]; ok {
				t.Errorf("stored row %s carries %q: %s", key, derived, raw)
			}
		}
		return true
	})
	if got := describe(t, fresh, v1).State; got != StateTerminated {
		t.Errorf("v1 reads %q, want %q", got, StateTerminated)
	}
	if got := describe(t, fresh, v2.Contract.Address).State; got != StateTerminated {
		t.Errorf("v2 reads %q, want %q", got, StateTerminated)
	}
}

// TestStaleStoredStateIgnored: a row that an older build stored with a
// state is shown with the state the chain holds.
func TestStaleStoredStateIgnored(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	addr := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, addr, 1)
	if err := svc.Terminate(tenant, addr); err != nil {
		t.Fatal(err)
	}
	var raw map[string]interface{}
	if err := m.Store.Get(TableContracts, strings.ToLower(addr.Hex()), &raw); err != nil {
		t.Fatal(err)
	}
	raw["state"], raw["tenant"], raw["next"] = StateActive, landlord.Hex(), tenant.Hex()
	if err := m.Store.Put(TableContracts, strings.ToLower(addr.Hex()), raw); err != nil {
		t.Fatal(err)
	}
	// A fresh manager decodes the stored bytes; m answers from its memo.
	fresh := NewManager(m.Client, m.IPFS, m.Store)
	row := describe(t, fresh, addr)
	if row.State != StateTerminated || row.Tenant != tenant.Hex() || row.Next != "" {
		t.Fatalf("stale row shows state %q tenant %q next %q; want %q, %s and none", row.State, row.Tenant, row.Next, StateTerminated, tenant.Hex())
	}
	if rows := NewManager(m.Client, m.IPFS, m.Store).Rows(); len(rows) != 1 || rows[0].State != "" || rows[0].Tenant != "" || rows[0].Next != "" {
		t.Fatalf("Rows() = %+v, want one row without derived fields", rows)
	}
}

// TestDerivedStates pins each row of the derivation against the chain
// facts that produce it, including the cases where the rows a build
// once stored said something else.
func TestDerivedStates(t *testing.T) {
	terms := ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}
	states := func(t *testing.T, m *Manager, addr ethtypes.Address) []string {
		t.Helper()
		line, err := m.WalkStates(addr)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i, v := range line {
			// Describe without the walk agrees with the walked line.
			if got := describe(t, m, v.Address).State; got != v.State {
				t.Fatalf("v%d: Describe says %q, the walked line %q", i+1, got, v.State)
			}
			out = append(out, v.State)
		}
		return out
	}
	want := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("states %v, want %v", got, want)
		}
	}

	t.Run("UnconfirmedSuccessorHasNoTenant", func(t *testing.T) {
		m, accs := rig(t)
		svc := NewRentalService(m)
		v1 := deployRental(t, m, accs[0].Address).Contract.Address
		svcConfirmAndPay(t, svc, accs[1].Address, v1, 1)
		v2, err := svc.Modify(accs[0].Address, v1, terms)
		if err != nil {
			t.Fatal(err)
		}
		want(t, states(t, m, v1), StateSuperseded, StateActive)
		if row := describe(t, m, v2.Contract.Address); row.Tenant != "" {
			t.Fatalf("unconfirmed v2 names tenant %s", row.Tenant)
		}
		if row := describe(t, m, v1); row.Tenant != accs[1].Address.Hex() || row.Next != v2.Contract.Address.Hex() {
			t.Fatalf("v1 = %+v", row)
		}
	})
	t.Run("NeverStartedPredecessorIsInactive", func(t *testing.T) {
		m, accs := rig(t)
		svc := NewRentalService(m)
		v1 := deployRental(t, m, accs[0].Address).Contract.Address
		v2, err := svc.Modify(accs[0].Address, v1, terms)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ConfirmModification(accs[1].Address, v2.Contract.Address); err != nil {
			t.Fatal(err)
		}
		want(t, states(t, m, v1), StateSuperseded, StateActive)
	})
	t.Run("Rejected", func(t *testing.T) {
		m, accs := rig(t)
		svc := NewRentalService(m)
		v1 := deployRental(t, m, accs[0].Address).Contract.Address
		svcConfirmAndPay(t, svc, accs[1].Address, v1, 1)
		v2, err := svc.Modify(accs[0].Address, v1, terms)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.RejectModification(accs[1].Address, v2.Contract.Address); err != nil {
			t.Fatal(err)
		}
		want(t, states(t, m, v1), StateTerminated, StateRejected)
	})
	t.Run("RefusedConsentLeavesAnOpenModification", func(t *testing.T) {
		m, accs := rig(t)
		svc := NewRentalService(m)
		v1 := deployRental(t, m, accs[0].Address).Contract.Address
		svcConfirmAndPay(t, svc, accs[1].Address, v1, 1)
		ks := m.Client.Keystore()
		_, err := svc.ModifyWithConsent(accs[0].Address, v1, terms, func(newAddr ethtypes.Address) ([]byte, error) {
			return SignConsent(ks, accs[2].Address, v1, newAddr)
		})
		if !errors.Is(err, ErrBadConsent) {
			t.Fatalf("stranger consent = %v", err)
		}
		want(t, states(t, m, v1), StateSuperseded, StateActive)
	})
	t.Run("NotRentalShaped", func(t *testing.T) {
		m, accs := rig(t)
		ds, err := m.EnsureDataStorage(accs[0].Address)
		if err != nil {
			t.Fatal(err)
		}
		row := ContractRow{Address: ds.Address.Hex(), Name: "DataStorage", Version: 1}
		if _, err := m.publish(row, contracts.MustArtifact("DataStorage"), nil); err != nil {
			t.Fatal(err)
		}
		if got := describe(t, m, ds.Address); got.State != StateActive || got.Tenant != "" || got.Next != "" {
			t.Fatalf("DataStorage = %+v", got)
		}
	})
}

// A stored row whose version cannot be bound has no state to show.
func TestDescribeUnboundRow(t *testing.T) {
	m, _ := rig(t)
	row := ContractRow{Address: "0x00000000000000000000000000000000000000ff", Name: "gone", Version: 1}
	if _, err := m.Describe(row, nil); !errors.Is(err, ErrNoABI) {
		t.Fatalf("Describe of an unregistered version = %v, want %v", err, ErrNoABI)
	}
}
