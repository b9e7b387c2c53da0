package core

import (
	"errors"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

func TestSealAndVerifyHistory(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 3)

	digest, err := svc.SealHistory(landlord, v1.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if digest.IsZero() {
		t.Fatal("zero digest")
	}
	// Verification passes against the untouched history.
	if err := svc.VerifyHistory(v1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	// Simulate tampering with the sealed commitment (the data contract
	// owner could try this): verification must fail afterwards.
	if _, err := m.SetValue(landlord, v1.Contract.Address, HistoryCommitmentKey,
		ethtypes.Keccak256([]byte("forged")).Hex()); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyHistory(v1.Contract.Address); !errors.Is(err, ErrHistoryTampered) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyHistoryNoCommitment(t *testing.T) {
	m, accs := rig(t)
	svc := NewRentalService(m)
	v1 := deployRental(t, m, accs[0].Address)
	if err := svc.VerifyHistory(v1.Contract.Address); !errors.Is(err, ErrNoCommitment) {
		t.Fatalf("err = %v", err)
	}
}

// TestVerifyHistoryNotInherited: sealing v1 and linking v2 leaves v2
// without a commitment of its own, so verifying v2 reports none instead
// of checking v2's history against v1's digest.
func TestVerifyHistoryNotInherited(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 2)
	v2, err := svc.ModifyWithConsent(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}, func(newAddr ethtypes.Address) ([]byte, error) {
		return SignConsent(m.Client.Keystore(), tenant, v1.Contract.Address, newAddr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyHistory(v1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyHistory(v2.Contract.Address); !errors.Is(err, ErrNoCommitment) {
		t.Fatalf("VerifyHistory(v2) = %v, want %v", err, ErrNoCommitment)
	}
}

func TestHistoryDigestSensitivity(t *testing.T) {
	addr := ethtypes.HexToAddress("0x00000000000000000000000000000000000000aa")
	recs := []PaymentRecord{{Month: 1, Amount: uint256.NewUint64(100)}, {Month: 2, Amount: uint256.NewUint64(100)}}
	base := historyDigest(addr, recs)
	// Amount change detected.
	changed := []PaymentRecord{{Month: 1, Amount: uint256.NewUint64(100)}, {Month: 2, Amount: uint256.NewUint64(101)}}
	if historyDigest(addr, changed) == base {
		t.Fatal("amount change not detected")
	}
	// Reordering detected.
	reordered := []PaymentRecord{recs[1], recs[0]}
	if historyDigest(addr, reordered) == base {
		t.Fatal("reorder not detected")
	}
	// Truncation detected.
	if historyDigest(addr, recs[:1]) == base {
		t.Fatal("truncation not detected")
	}
	// Address binding.
	other := ethtypes.HexToAddress("0x00000000000000000000000000000000000000bb")
	if historyDigest(other, recs) == base {
		t.Fatal("commitment not bound to the contract address")
	}
}

func TestSignedConsentFlow(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 2)

	ks := m.Client.Keystore()
	// Happy path: the real tenant signs.
	dep, err := svc.ModifyWithConsent(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}, func(newAddr ethtypes.Address) ([]byte, error) {
		return SignConsent(ks, tenant, v1.Contract.Address, newAddr)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The old version's history was sealed as part of the flow.
	if err := svc.VerifyHistory(v1.Contract.Address); err != nil {
		t.Fatal(err)
	}

	// Adversarial path: a stranger signs the consent — rejected, and the
	// new deployment is marked rejected. The tenant first confirms v2 so
	// it records them on chain.
	if err := svc.ConfirmModification(tenant, dep.Contract.Address); err != nil {
		t.Fatal(err)
	}
	v3, err := svc.ModifyWithConsent(landlord, dep.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(2), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}, func(newAddr ethtypes.Address) ([]byte, error) {
		return SignConsent(ks, accs[2].Address, dep.Contract.Address, newAddr)
	})
	if !errors.Is(err, ErrBadConsent) {
		t.Fatalf("stranger consent: %v", err)
	}
	if v3 != nil {
		t.Fatal("deployment returned despite bad consent")
	}
}

func TestConsentBoundToAddressPair(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 1)
	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ks := m.Client.Keystore()
	good, err := SignConsent(ks, tenant, v1.Contract.Address, v2.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyConsent(v1.Contract.Address, v2.Contract.Address, good); err != nil {
		t.Fatal(err)
	}
	// The same signature must not authorize a DIFFERENT new address
	// (replay protection across modifications).
	other := ethtypes.HexToAddress("0x00000000000000000000000000000000000000ee")
	if err := svc.VerifyConsent(v1.Contract.Address, other, good); !errors.Is(err, ErrBadConsent) {
		t.Fatalf("replayed consent accepted: %v", err)
	}
	// Garbage signature rejected.
	if err := svc.VerifyConsent(v1.Contract.Address, v2.Contract.Address, []byte{1, 2, 3}); !errors.Is(err, ErrBadConsent) {
		t.Fatal("garbage consent accepted")
	}
}
