package upgrade

import (
	"math/rand"
	"reflect"
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/contracts"
	"legalchain/internal/minisol"
)

// --- generators --------------------------------------------------------------

var fieldTypes = []struct {
	typ   string
	slots int
}{
	{"uint256", 1},
	{"address", 1},
	{"string", 1},
	{"bool", 1},
	{"mapping(address => uint256)", 1},
	{"uint256[]", 1},
	{"struct PaidRent", 2},
}

// randLayout builds a layout with Solidity's sequential slot assignment.
func randLayout(r *rand.Rand, name string) *minisol.Layout {
	n := 1 + r.Intn(8)
	l := &minisol.Layout{Contract: name}
	slot := 0
	for i := 0; i < n; i++ {
		ft := fieldTypes[r.Intn(len(fieldTypes))]
		l.Vars = append(l.Vars, minisol.LayoutVar{
			Name:   fieldName(i),
			Slot:   slot,
			Slots:  ft.slots,
			Type:   ft.typ,
			Public: r.Intn(2) == 0,
		})
		slot += ft.slots
	}
	return l
}

func fieldName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// evolveCompatible applies a random upgrade-safe evolution: drop some
// fields (keeping their slots orphaned) and append new ones past the
// frontier.
func evolveCompatible(r *rand.Rand, old *minisol.Layout) *minisol.Layout {
	out := &minisol.Layout{Contract: old.Contract + "V2"}
	for _, v := range old.Vars {
		if r.Intn(4) == 0 { // remove ~25% of fields
			continue
		}
		out.Vars = append(out.Vars, v)
	}
	slot := old.Frontier()
	for i, n := 0, r.Intn(4); i < n; i++ {
		ft := fieldTypes[r.Intn(len(fieldTypes))]
		out.Vars = append(out.Vars, minisol.LayoutVar{
			Name:  "new" + fieldName(i),
			Slot:  slot,
			Slots: ft.slots,
			Type:  ft.typ,
		})
		slot += ft.slots
	}
	return out
}

// breakLayout applies one random incompatible mutation to a copy of old.
// Returns nil when the layout has no mutable field for the chosen
// mutation (caller retries).
func breakLayout(r *rand.Rand, old *minisol.Layout) *minisol.Layout {
	out := &minisol.Layout{Contract: old.Contract + "V2"}
	out.Vars = append(out.Vars, old.Vars...)
	i := r.Intn(len(out.Vars))
	switch r.Intn(3) {
	case 0: // move a retained field
		out.Vars[i].Slot += 1 + r.Intn(3)
	case 1: // retype a retained field
		v := &out.Vars[i]
		for _, ft := range fieldTypes {
			if ft.typ != v.Type {
				v.Type = ft.typ
				v.Slots = ft.slots
				break
			}
		}
	case 2: // new field below the frontier (slot reuse)
		out.Vars = append(out.Vars, minisol.LayoutVar{
			Name: "reuser", Slot: r.Intn(old.Frontier() + 1), Slots: 1, Type: "uint256",
		})
		if out.Vars[len(out.Vars)-1].Slot >= old.Frontier() {
			return nil
		}
	}
	if EqualLayouts(old, out) {
		return nil
	}
	return out
}

// --- properties --------------------------------------------------------------

// TestLayoutDiffRoundTrip is the migration-plan round-trip property:
// for a random layout and a random compatible evolution of it, the diff
// must be compatible, and replaying the diff's migration plan onto the
// old layout must reproduce the new layout exactly.
func TestLayoutDiffRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		old := randLayout(r, "C")
		evolved := evolveCompatible(r, old)
		d := DiffLayout(old, evolved)
		if !d.Compatible {
			t.Fatalf("iter %d: compatible evolution diffed incompatible: old=%+v new=%+v diff=%+v", i, old, evolved, d)
		}
		applied := ApplyPlan(old, d, evolved.Contract)
		if !EqualLayouts(applied, evolved) {
			t.Fatalf("iter %d: round trip lost fields:\n old=%+v\n new=%+v\n got=%+v", i, old, evolved, applied)
		}
		plan := d.PlanFrom(old)
		if plan == nil || !plan.InPlace {
			t.Fatalf("iter %d: compatible diff produced no in-place plan", i)
		}
		if len(plan.Retained)+len(plan.Orphaned) != len(old.Vars) {
			t.Fatalf("iter %d: plan partitions %d retained + %d orphaned != %d old fields",
				i, len(plan.Retained), len(plan.Orphaned), len(old.Vars))
		}
	}
}

// TestLayoutDiffRejectsIncompatible: any single slot move, retype or
// slot reuse must be flagged incompatible and produce no migration plan.
func TestLayoutDiffRejectsIncompatible(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rejected := 0
	for i := 0; i < 2000; i++ {
		old := randLayout(r, "C")
		broken := breakLayout(r, old)
		if broken == nil {
			continue
		}
		d := DiffLayout(old, broken)
		if d.Compatible {
			t.Fatalf("iter %d: breaking mutation accepted:\n old=%+v\n new=%+v", i, old, broken)
		}
		if d.PlanFrom(old) != nil {
			t.Fatalf("iter %d: incompatible diff still produced a plan", i)
		}
		rep := &Report{}
		rep.checkLayout(d, old)
		if rep.OK() {
			t.Fatalf("iter %d: incompatible diff produced no failures", i)
		}
		rejected++
	}
	if rejected < 1000 {
		t.Fatalf("generator too weak: only %d broken layouts in 2000 iterations", rejected)
	}
}

// TestLayoutDiffIdentity: a layout diffed against itself is compatible
// with an empty delta and a plan retaining everything.
func TestLayoutDiffIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		l := randLayout(r, "C")
		d := DiffLayout(l, l)
		if !d.Compatible || len(d.Added) != 0 || len(d.Removed) != 0 || len(d.Changed) != 0 {
			t.Fatalf("self-diff not identity: %+v", d)
		}
		plan := d.PlanFrom(l)
		if len(plan.Retained) != len(l.Vars) || len(plan.Orphaned) != 0 {
			t.Fatalf("self-plan should retain all %d fields: %+v", len(l.Vars), plan)
		}
	}
}

// TestDiffOfOneParsedArtifactIsEmpty: a pair whose sides are one parsed
// ABI or layout, which the audit skips walking, diffs to what walking
// two parses of the same document gives.
func TestDiffOfOneParsedArtifactIsEmpty(t *testing.T) {
	art := contracts.MustArtifact("RentalAgreementV2")
	a, err := abi.ParseJSON(art.ABIJSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := abi.ParseJSON(art.ABIJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got, walked := DiffABI(a, a), DiffABI(a, b); !got.Empty() || !reflect.DeepEqual(got, walked) {
		t.Errorf("DiffABI of one ABI = %+v, of two parses %+v", got, walked)
	}
	l, err := minisol.ParseLayout(art.Layout.JSON())
	if err != nil {
		t.Fatal(err)
	}
	m, err := minisol.ParseLayout(art.Layout.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if got, walked := DiffLayout(l, l), DiffLayout(l, m); !reflect.DeepEqual(got, walked) || !got.Compatible {
		t.Errorf("DiffLayout of one layout = %+v, of two parses %+v", got, walked)
	}
}
