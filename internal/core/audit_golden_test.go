package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
)

// goldenTerms is the modification the golden lines apply; the rent
// moves with the version so that the rent views differ between pairs.
func goldenTerms(v int) ModifiedTerms {
	return ModifiedTerms{
		Rent: ethtypes.Ether(int64(v)), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}
}

// buildDeepLine builds a line of the repository benchmark's audit_deep
// shape: a confirmed BaseRental with four data keys, extended to eight
// versions, each paid once and each modification confirmed. It returns
// the line, oldest first.
func buildDeepLine(t *testing.T, m *Manager, landlord, tenant ethtypes.Address) []ethtypes.Address {
	t.Helper()
	svc := NewRentalService(m)
	line := []ethtypes.Address{deployRental(t, m, landlord).Contract.Address}
	if err := svc.Confirm(tenant, line[0]); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if _, err := m.SetValue(landlord, line[0], fmt.Sprintf("clause-%d", k), fmt.Sprintf("value-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 2; ; v++ {
		cur := line[len(line)-1]
		if _, err := svc.PayRent(tenant, cur); err != nil {
			t.Fatal(err)
		}
		if v > 8 {
			return line
		}
		next, err := svc.Modify(landlord, cur, goldenTerms(v))
		if err != nil {
			t.Fatalf("building version %d: %v", v, err)
		}
		if err := svc.ConfirmModification(tenant, next.Contract.Address); err != nil {
			t.Fatal(err)
		}
		line = append(line, next.Contract.Address)
	}
}

// buildDiffLine builds a two-version line whose pair changes both ABI
// and layout (BaseRental → RentalAgreementV2), with a candidate the
// guard refused recorded on v1 and the modification rejected by the
// tenant.
func buildDiffLine(t *testing.T, m *Manager, landlord, tenant ethtypes.Address) []ethtypes.Address {
	t.Helper()
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, v1, 1)
	degraded, err := minisol.CompileContract(degradedSrc, "Degraded")
	if err != nil {
		t.Fatal(err)
	}
	expectRejection(t, m, landlord, v1, degraded, ModifyOptions{}, ethtypes.Ether(1))
	v2, err := svc.Modify(landlord, v1, goldenTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RejectModification(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	return []ethtypes.Address{v1, v2.Contract.Address}
}

// TestAuditChainMatchesGolden renders AuditChain's report of two lines
// as JSON and compares it byte for byte with the report the audit wrote
// before it hashed and diffed each distinct artifact once
// (testdata/audit_*.golden.json). Every version of a line audits to the
// same report.
func TestAuditChainMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T, *Manager, ethtypes.Address, ethtypes.Address) []ethtypes.Address
	}{
		{"deep", buildDeepLine},
		{"diffs", buildDiffLine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, accs := rig(t)
			landlord, tenant := accs[0].Address, accs[1].Address
			line := tc.build(t, m, landlord, tenant)
			want, err := os.ReadFile(filepath.Join("testdata", "audit_"+tc.name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range line {
				report, err := m.AuditChain(tenant, from)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(report, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				if !bytes.Equal(got, want) {
					t.Fatalf("AuditChain(%s) differs from the golden report at line %d:\n%s",
						from, firstDiffLine(got, want), got)
				}
			}
		})
	}
}

// firstDiffLine returns the 1-based number of the first line where a and
// b differ.
func firstDiffLine(a, b []byte) int {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
