package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
)

// runAudit builds a three-version evidence line on an in-process stack
// (the demo scenario plus one further modification) and prints the full
// chain audit: per-version code and stored artifacts, and for each
// adjacent pair the bytecode, ABI-surface, storage-layout and traced
// behaviour deltas. With -json the raw upgrade.AuditReport is printed
// instead of the text rendering.
func runAudit(rest []string) {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the raw audit report as JSON")
	fs.Parse(rest)

	st := newDevStack()
	defer st.store.Close()
	landlord, tenant, m, svc := st.landlord, st.tenant, st.m, st.svc

	v1, err := svc.DeployRental(landlord.Address, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42",
	})
	check(err)
	check(svc.Confirm(tenant.Address, v1.Contract.Address))
	for i := 0; i < 2; i++ {
		_, err := svc.PayRent(tenant.Address, v1.Contract.Address)
		check(err)
	}

	v2, err := svc.Modify(landlord.Address, v1.Contract.Address, core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	check(err)
	check(svc.ConfirmModification(tenant.Address, v2.Contract.Address))

	v3, err := svc.Modify(landlord.Address, v2.Contract.Address, core.ModifiedTerms{
		Rent: ethtypes.Ether(2), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: ethtypes.Ether(1), Fine: ethtypes.Ether(1),
	})
	check(err)

	report, err := m.AuditChain(landlord.Address, v3.Contract.Address)
	check(err)

	if *jsonOut {
		raw, err := json.MarshalIndent(report, "", "  ")
		check(err)
		fmt.Println(string(raw))
		return
	}
	printAuditText(report)
}

// printAuditText renders an audit report for humans.
func printAuditText(r *upgrade.AuditReport) {
	fmt.Printf("audit of evidence line %s .. %s\n", r.Root, r.Head)
	fmt.Printf("chain pointers verified: %v\n\n", r.ChainVerified)
	fmt.Println("versions:")
	for _, v := range r.Versions {
		artifacts := ""
		if v.HasABI {
			artifacts += " abi"
		}
		if v.HasLayout {
			artifacts += " layout"
		}
		fmt.Printf("  v%-2d %s  code %5d B  hash %s.. stored:%s\n",
			v.Index+1, v.Address, v.CodeSize, v.CodeHash[:10], artifacts)
	}
	for _, p := range r.Pairs {
		fmt.Printf("\n%s -> %s\n", p.From, p.To)
		fmt.Printf("  bytecode: changed=%v size %+d B\n", p.BytecodeChanged, p.CodeSizeDelta)
		if p.ABI != nil {
			if p.ABI.Empty() {
				fmt.Println("  abi: unchanged")
			} else {
				for _, s := range p.ABI.AddedMethods {
					fmt.Printf("  abi: + %s\n", s)
				}
				for _, s := range p.ABI.RemovedMethods {
					fmt.Printf("  abi: - %s\n", s)
				}
				for _, c := range p.ABI.ChangedMethods {
					fmt.Printf("  abi: ~ %s (%s: %s -> %s)\n", c.Name, c.What, c.Old, c.New)
				}
				for _, s := range p.ABI.AddedEvents {
					fmt.Printf("  abi: + event %s\n", s)
				}
				for _, s := range p.ABI.RemovedEvents {
					fmt.Printf("  abi: - event %s\n", s)
				}
			}
		}
		if p.Layout != nil {
			fmt.Printf("  layout: compatible=%v", p.Layout.Compatible)
			for _, v := range p.Layout.Added {
				fmt.Printf("  +%s@%d", v.Name, v.Slot)
			}
			for _, v := range p.Layout.Removed {
				fmt.Printf("  -%s@%d", v.Name, v.Slot)
			}
			for _, c := range p.Layout.Changed {
				fmt.Printf("  ~%s(%s)", c.Name, c.What)
			}
			fmt.Println()
		}
		for _, b := range p.Behaviour {
			if !b.Changed {
				continue
			}
			fmt.Printf("  behaviour: %s gas %d -> %d, steps %d -> %d, reverted %v -> %v\n",
				b.Method, b.OldGas, b.NewGas, b.OldSteps, b.NewSteps, b.OldReverted, b.NewReverted)
		}
	}
	if len(r.Rejections) > 0 {
		fmt.Println("\nrecorded upgrade rejections:")
		for _, rej := range r.Rejections {
			for _, f := range rej.Failures {
				fmt.Printf("  %s: %s (%s): %s\n", rej.Candidate, f.Rule, f.Subject, f.Detail)
			}
		}
	}
}
