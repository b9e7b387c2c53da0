package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
)

// degradedSrc drops most of BaseRental's public surface — the upgrade
// guard must refuse to link it as a successor.
const degradedSrc = `
pragma solidity ^0.5.0;

contract Degraded {
	uint public rent;
	address public next;
	address public previous;

	constructor(uint _rent) public payable { rent = _rent; }

	function setNext(address _next) public { next = _next; }
	function setPrev(address _previous) public { previous = _previous; }
	function getPrev() public view returns (address addr) { return previous; }
}
`

func v2Args() []interface{} {
	return []interface{}{ethtypes.Ether(1), ethtypes.Ether(2), uint256.NewUint64(12),
		"10115-Berlin-42", ethtypes.Ether(1), uint256.Zero, ethtypes.Ether(1)}
}

// expectRejection runs ModifyContract expecting the guard to refuse, and
// returns the structured report.
func expectRejection(t *testing.T, m *Manager, landlord, prevAddr ethtypes.Address,
	art *minisol.Artifact, opts ModifyOptions, args ...interface{}) *upgrade.Report {
	t.Helper()
	_, err := m.ModifyContract(landlord, prevAddr, art, opts, args...)
	if err == nil {
		t.Fatal("incompatible candidate was admitted")
	}
	var rej *upgrade.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *upgrade.RejectionError", err)
	}
	return rej.Report
}

// requireUnlinked asserts the guard refused BEFORE touching the chain:
// the predecessor's next pointer is still zero and its row still active.
func requireUnlinked(t *testing.T, m *Manager, viewer, prevAddr ethtypes.Address) {
	t.Helper()
	bound, err := m.BindVersion(prevAddr)
	if err != nil {
		t.Fatal(err)
	}
	next, err := bound.CallAddress(viewer, "getNext")
	if err != nil {
		t.Fatal(err)
	}
	if !next.IsZero() {
		t.Fatalf("rejected candidate was still linked: next = %s", next)
	}
	row, err := m.GetRow(prevAddr)
	if err == nil {
		row, err = m.Describe(row, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if row.State != StateActive {
		t.Fatalf("predecessor state = %q after rejection", row.State)
	}
}

func TestModifyRejectsRemovedSelector(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord)

	art, err := minisol.CompileContract(degradedSrc, "Degraded")
	if err != nil {
		t.Fatal(err)
	}
	report := expectRejection(t, m, landlord, v1.Contract.Address, art, ModifyOptions{}, ethtypes.Ether(1))

	found := false
	for _, f := range report.Failures {
		if f.Rule == upgrade.RuleSelectorRemoved && strings.Contains(f.Subject, "payRent") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s failure for payRent in %+v", upgrade.RuleSelectorRemoved, report.Failures)
	}
	requireUnlinked(t, m, landlord, v1.Contract.Address)

	// The rejection is part of the evidence line, recoverable later.
	rejs, err := m.Rejections(landlord, v1.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 || rejs[0].Candidate != "Degraded" {
		t.Fatalf("recorded rejections = %+v", rejs)
	}
}

// TestRejectionsNotInherited: a rejection stays in the evidence line of
// the version it was recorded against. After reject, modify, reject
// again, each version reports its own one and the audit lists two.
func TestRejectionsNotInherited(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord).Contract.Address
	art, err := minisol.CompileContract(degradedSrc, "Degraded")
	if err != nil {
		t.Fatal(err)
	}
	expectRejection(t, m, landlord, v1, art, ModifyOptions{}, ethtypes.Ether(1))
	next, err := NewRentalService(m).Modify(landlord, v1, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	v2 := next.Contract.Address
	expectRejection(t, m, landlord, v2, art, ModifyOptions{}, ethtypes.Ether(1))

	for _, v := range []ethtypes.Address{v1, v2} {
		if rejs, err := m.Rejections(landlord, v); err != nil || len(rejs) != 1 {
			t.Errorf("Rejections(%s) = %d reports, %v; want 1", v, len(rejs), err)
		}
		// The count starts afresh in each namespace, not from v1's.
		if n, err := m.ownValue(v, rejectionCountKey); err != nil || n != "1" {
			t.Errorf("rejection count of %s = %q, %v; want 1", v, n, err)
		}
	}
	report, err := m.AuditChain(landlord, v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) != 2 {
		t.Errorf("audit lists %d rejections, want 2", len(report.Rejections))
	}

	// The layout an inheriting reader wrote: v2's count went on from
	// v1's, so v2 holds count 2 and index 1 only. Index 0 lives in v1's
	// namespace alone and is skipped.
	raw, err := json.Marshal(report.Rejections[0])
	if err != nil {
		t.Fatal(err)
	}
	v3 := ethtypes.HexToAddress("0x00000000000000000000000000000000000000c3")
	if _, err := m.AdoptNamespace(landlord, v3, v2); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{rejectionKeyPrefix + "1": string(raw), rejectionCountKey: "2"} {
		if _, err := m.SetValue(landlord, v3, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if rejs, err := m.Rejections(landlord, v3); err != nil || len(rejs) != 1 {
		t.Errorf("Rejections of an inherited count = %d reports, %v; want 1", len(rejs), err)
	}
}

func TestModifyRejectsReassignedSlot(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord)

	// Same ABI surface, tampered layout: two retained fields swap slots.
	orig := contracts.MustArtifact("RentalAgreementV2")
	art := *orig
	layout := *orig.Layout
	layout.Vars = append([]minisol.LayoutVar(nil), orig.Layout.Vars...)
	layout.Vars[1].Slot, layout.Vars[2].Slot = layout.Vars[2].Slot, layout.Vars[1].Slot
	art.Layout = &layout

	report := expectRejection(t, m, landlord, v1.Contract.Address, &art, ModifyOptions{}, v2Args()...)
	found := false
	for _, f := range report.Failures {
		if f.Rule == upgrade.RuleSlotMoved {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s failure in %+v", upgrade.RuleSlotMoved, report.Failures)
	}
	requireUnlinked(t, m, landlord, v1.Contract.Address)
}

func TestModifyRejectsFailingProperty(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord)

	art := contracts.MustArtifact("RentalAgreementV2")
	opts := ModifyOptions{Properties: []upgrade.Property{
		{Name: "rent-is-two-ether", Method: "rent", Want: ethtypes.Ether(2).String()},
	}}
	report := expectRejection(t, m, landlord, v1.Contract.Address, art, opts, v2Args()...)

	found := false
	for _, f := range report.Failures {
		if f.Rule == upgrade.RulePropertyFailed {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s failure in %+v", upgrade.RulePropertyFailed, report.Failures)
	}
	if len(report.Properties) != 1 || report.Properties[0].OK ||
		report.Properties[0].Got != ethtypes.Ether(1).String() {
		t.Fatalf("property results = %+v", report.Properties)
	}
	requireUnlinked(t, m, landlord, v1.Contract.Address)
}

func TestModifyAdmitsCompatibleWithProperties(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)

	// The rental service declares matching properties by default; the
	// modification must sail through and record nothing.
	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rejs, _ := m.Rejections(landlord, v1.Contract.Address); len(rejs) != 0 {
		t.Fatalf("clean modification recorded rejections: %+v", rejs)
	}
	// The new version's layout is published for the next round.
	layout, err := m.ResolveLayout(v2.Contract.Address)
	if err != nil || layout == nil {
		t.Fatalf("layout not published: %v", err)
	}
	if _, ok := layout.Var("maintenanceFee"); !ok {
		t.Fatalf("published layout lacks maintenanceFee: %+v", layout)
	}
}

func TestInPlaceMigrationAdoptsNamespace(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)

	// Seed extra pairs beyond the snapshot keys.
	for _, kv := range [][2]string{{"clause.pets", "allowed"}, {"clause.parking", "spot 7"}} {
		if _, err := m.SetValue(landlord, v1.Contract.Address, kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The whole namespace is visible under v2 without per-pair copies.
	snap, err := m.LoadSnapshot(landlord, v2.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if snap["clause.pets"] != "allowed" || snap["house"] != "10115-Berlin-42" {
		t.Fatalf("adopted snapshot = %+v", snap)
	}
	if v, err := m.GetValue(landlord, v2.Contract.Address, "clause.parking"); err != nil || v != "spot 7" {
		t.Fatalf("GetValue through alias = %q, %v", v, err)
	}

	// Writes under v2 shadow the adopted value without touching v1's.
	if _, err := m.SetValue(landlord, v2.Contract.Address, "clause.pets", "forbidden"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.GetValue(landlord, v2.Contract.Address, "clause.pets"); v != "forbidden" {
		t.Fatalf("override = %q", v)
	}
	if v, _ := m.GetValue(landlord, v1.Contract.Address, "clause.pets"); v != "allowed" {
		t.Fatalf("predecessor namespace mutated: %q", v)
	}
}

// TestAdoptionBeatsCopyOnGas pins the FlexiContracts claim the in-place
// path exists for: adoption cost is constant while the per-pair
// re-import grows with the pair count.
func TestAdoptionBeatsCopyOnGas(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord)

	for i := 0; i < 6; i++ {
		key := "k" + string(rune('0'+i))
		if _, err := m.SetValue(landlord, v1.Contract.Address, key, "value-"+key); err != nil {
			t.Fatal(err)
		}
	}
	copyDst := ethtypes.HexToAddress("0x00000000000000000000000000000000000000a1")
	adoptDst := ethtypes.HexToAddress("0x00000000000000000000000000000000000000a2")
	_, copyGas, err := m.MigrateData(landlord, v1.Contract.Address, copyDst)
	if err != nil {
		t.Fatal(err)
	}
	adoptGas, err := m.AdoptNamespace(landlord, adoptDst, v1.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("migration gas for %d pairs: copy=%d adopt=%d", 6, copyGas, adoptGas)
	if adoptGas*2 >= copyGas {
		t.Fatalf("adoption gas %d not clearly below copy gas %d for 6 pairs", adoptGas, copyGas)
	}
}

func TestAuditChainReportsDiffs(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	if err := svc.Confirm(tenant, v1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := svc.Modify(landlord, v2.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(2), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	report, err := m.AuditChain(landlord, v3.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if !report.ChainVerified || len(report.Versions) != 3 || len(report.Pairs) != 2 {
		t.Fatalf("report shape: verified=%v versions=%d pairs=%d",
			report.ChainVerified, len(report.Versions), len(report.Pairs))
	}
	for _, v := range report.Versions {
		if !v.HasABI || !v.HasLayout || v.CodeSize == 0 || v.CodeHash == "" {
			t.Fatalf("version node incomplete: %+v", v)
		}
	}
	p01 := report.Pairs[0]
	if !p01.BytecodeChanged || p01.CodeSizeDelta <= 0 {
		t.Fatalf("v1->v2 bytecode diff: %+v", p01)
	}
	if p01.ABI == nil || len(p01.ABI.AddedMethods) == 0 {
		t.Fatalf("v1->v2 ABI diff missing the maintenance surface: %+v", p01.ABI)
	}
	if p01.Layout == nil || !p01.Layout.Compatible || len(p01.Layout.Added) == 0 {
		t.Fatalf("v1->v2 layout diff: %+v", p01.Layout)
	}
	if len(p01.Behaviour) == 0 {
		t.Fatal("v1->v2 behaviour diff empty: no shared zero-arg views traced")
	}
	p12 := report.Pairs[1]
	if p12.BytecodeChanged || (p12.ABI != nil && !p12.ABI.Empty()) {
		t.Fatalf("v2->v3 share code+ABI but diff says otherwise: %+v", p12)
	}
}

// lossyStore is a blob store that has lost one blob, as a damaged data
// directory would have.
type lossyStore struct {
	ipfs.Store
	lost ipfs.CID
}

func (s *lossyStore) Get(cid ipfs.CID) ([]byte, error) {
	if cid == s.lost {
		return nil, ipfs.ErrNotFound
	}
	return s.Store.Get(cid)
}

// TestVerifyUpgradeFailsClosedWithoutLayout: a registry row that names a
// layout the content store no longer holds, or names a blob that is no
// layout, makes the guard return an error instead of a report that
// skipped the layout check. Only a row that names no layout at all gets
// the note.
func TestVerifyUpgradeFailsClosedWithoutLayout(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord).Contract.Address
	row, err := m.GetRow(v1)
	if err != nil || row.LayoutCID == "" {
		t.Fatalf("row = %+v, %v; want a layout CID", row, err)
	}
	cand := contracts.MustArtifact("RentalAgreementV2")
	verify := func(blobs ipfs.Store) (*upgrade.Report, error) {
		// A fresh manager, so nothing parsed before is remembered.
		return NewManager(m.Client, ipfs.NewNode(blobs), m.Store).VerifyUpgrade(landlord, v1, cand, nil, v2Args()...)
	}

	if report, err := verify(&lossyStore{Store: m.IPFS.Blobs, lost: ipfs.CID(row.LayoutCID)}); err == nil {
		t.Fatalf("deleted layout blob: report %+v, want an error", report)
	}
	tampered := row
	tampered.LayoutCID = row.ABICID
	if err := m.Store.Put(TableContracts, strings.ToLower(row.Address), tampered); err != nil {
		t.Fatal(err)
	}
	if report, err := verify(m.IPFS.Blobs); err == nil {
		t.Fatalf("ABI blob named as the layout: report %+v, want an error", report)
	}
	tampered.LayoutCID = ""
	if err := m.Store.Put(TableContracts, strings.ToLower(row.Address), tampered); err != nil {
		t.Fatal(err)
	}
	report, err := verify(m.IPFS.Blobs)
	if err != nil || report.LayoutChecked || len(report.Notes) != 1 || !strings.Contains(report.Notes[0], "layout check skipped") {
		t.Fatalf("row without a layout: report %+v, %v; want one skipped-layout note", report, err)
	}
}
