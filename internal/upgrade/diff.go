package upgrade

import (
	"sort"
	"strings"

	"legalchain/internal/abi"
	"legalchain/internal/minisol"
)

// --- ABI surface diff --------------------------------------------------------

// MethodDelta records one method present in both versions whose shape
// changed. What is "inputs", "outputs" or "mutability".
type MethodDelta struct {
	Name string `json:"name"`
	Old  string `json:"old"`
	New  string `json:"new"`
	What string `json:"what"`
}

// ABIDiff is the public-surface difference between two versions.
type ABIDiff struct {
	AddedMethods   []string      `json:"addedMethods,omitempty"`   // signatures
	RemovedMethods []string      `json:"removedMethods,omitempty"` // signatures
	ChangedMethods []MethodDelta `json:"changedMethods,omitempty"`
	AddedEvents    []string      `json:"addedEvents,omitempty"`
	RemovedEvents  []string      `json:"removedEvents,omitempty"`
}

// Empty reports whether the two surfaces are identical.
func (d *ABIDiff) Empty() bool {
	return len(d.AddedMethods) == 0 && len(d.RemovedMethods) == 0 &&
		len(d.ChangedMethods) == 0 && len(d.AddedEvents) == 0 && len(d.RemovedEvents) == 0
}

func argTypes(args []abi.Arg) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.Type.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// DiffABI computes the surface difference old → new, keyed by method
// and event name (this ABI dialect has no overloading). One parsed ABI
// on both sides has the empty diff without a walk.
func DiffABI(old, new *abi.ABI) *ABIDiff {
	d := &ABIDiff{}
	if old == new {
		return d
	}
	for _, name := range sortedKeys(old.Methods) {
		om := old.Methods[name]
		nm, ok := new.Methods[name]
		if !ok {
			d.RemovedMethods = append(d.RemovedMethods, om.Signature())
			continue
		}
		if argTypes(om.Inputs) != argTypes(nm.Inputs) {
			d.ChangedMethods = append(d.ChangedMethods, MethodDelta{
				Name: name, Old: om.Signature(), New: nm.Signature(), What: "inputs"})
		}
		if argTypes(om.Outputs) != argTypes(nm.Outputs) {
			d.ChangedMethods = append(d.ChangedMethods, MethodDelta{
				Name: name, Old: argTypes(om.Outputs), New: argTypes(nm.Outputs), What: "outputs"})
		}
		if om.StateMutability != nm.StateMutability {
			d.ChangedMethods = append(d.ChangedMethods, MethodDelta{
				Name: name, Old: om.StateMutability, New: nm.StateMutability, What: "mutability"})
		}
	}
	for _, name := range sortedKeys(new.Methods) {
		if _, ok := old.Methods[name]; !ok {
			d.AddedMethods = append(d.AddedMethods, new.Methods[name].Signature())
		}
	}
	for _, name := range sortedKeys(old.Events) {
		if _, ok := new.Events[name]; !ok {
			d.RemovedEvents = append(d.RemovedEvents, old.Events[name].Signature())
		}
	}
	for _, name := range sortedKeys(new.Events) {
		if _, ok := old.Events[name]; !ok {
			d.AddedEvents = append(d.AddedEvents, new.Events[name].Signature())
		}
	}
	return d
}

// checkABI folds the diff's breaking entries into report failures:
// removals and input changes break every existing caller (the selector
// disappears), output changes break decoders, and a view/pure method
// becoming state-changing silently breaks eth_call consumers.
func (r *Report) checkABI(d *ABIDiff) {
	r.ABIChecked = true
	r.ABIDiff = d
	for _, sig := range d.RemovedMethods {
		r.fail(RuleSelectorRemoved, sig, "public method of the previous version is missing in the candidate")
	}
	for _, c := range d.ChangedMethods {
		switch c.What {
		case "inputs":
			r.fail(RuleSignatureChanged, c.Name, "inputs changed %s -> %s (selector no longer matches)", c.Old, c.New)
		case "outputs":
			r.fail(RuleSignatureChanged, c.Name, "outputs changed %s -> %s", c.Old, c.New)
		case "mutability":
			if (c.Old == "view" || c.Old == "pure") && c.New != "view" && c.New != "pure" {
				r.fail(RuleMutabilityWeakened, c.Name, "mutability weakened %s -> %s", c.Old, c.New)
			} else {
				r.Notes = append(r.Notes, "method "+c.Name+" mutability changed "+c.Old+" -> "+c.New)
			}
		}
	}
}

// --- storage-layout diff -----------------------------------------------------

// FieldDelta records one retained field whose slot or type changed.
type FieldDelta struct {
	Name    string `json:"name"`
	OldSlot int    `json:"oldSlot"`
	NewSlot int    `json:"newSlot"`
	OldType string `json:"oldType"`
	NewType string `json:"newType"`
	What    string `json:"what"` // "moved" | "retyped"
}

// LayoutDiff is the storage-layout difference between two versions.
type LayoutDiff struct {
	Added      []minisol.LayoutVar `json:"added,omitempty"`
	Removed    []minisol.LayoutVar `json:"removed,omitempty"`
	Changed    []FieldDelta        `json:"changed,omitempty"`
	Compatible bool                `json:"compatible"`
}

// DiffLayout computes old → new and decides compatibility: every field
// present in both layouts must keep its slot and type; fields may be
// removed (their slots become orphaned); new fields must start at or
// past the predecessor's frontier so they can never alias live or
// orphaned data. One parsed layout on both sides has the empty,
// compatible diff without a walk.
func DiffLayout(old, new *minisol.Layout) *LayoutDiff {
	d := &LayoutDiff{Compatible: true}
	if old == new {
		return d
	}
	frontier := old.Frontier()
	for _, ov := range old.Vars {
		nv, ok := new.Var(ov.Name)
		if !ok {
			d.Removed = append(d.Removed, ov)
			continue
		}
		if nv.Slot != ov.Slot {
			d.Changed = append(d.Changed, FieldDelta{Name: ov.Name, OldSlot: ov.Slot, NewSlot: nv.Slot,
				OldType: ov.Type, NewType: nv.Type, What: "moved"})
			d.Compatible = false
		}
		if nv.Type != ov.Type || nv.Slots != ov.Slots {
			d.Changed = append(d.Changed, FieldDelta{Name: ov.Name, OldSlot: ov.Slot, NewSlot: nv.Slot,
				OldType: ov.Type, NewType: nv.Type, What: "retyped"})
			d.Compatible = false
		}
	}
	for _, nv := range new.Vars {
		if _, ok := old.Var(nv.Name); ok {
			continue
		}
		d.Added = append(d.Added, nv)
		if nv.Slot < frontier {
			d.Compatible = false
		}
	}
	return d
}

// checkLayout folds an incompatible diff into report failures and, for
// a compatible one, derives the migration plan.
func (r *Report) checkLayout(d *LayoutDiff, old *minisol.Layout) {
	r.LayoutChecked = true
	r.LayoutDiff = d
	oldFrontier := old.Frontier()
	for _, c := range d.Changed {
		switch c.What {
		case "moved":
			r.fail(RuleSlotMoved, c.Name, "slot %d -> %d; readers of the retained field would see foreign data", c.OldSlot, c.NewSlot)
		case "retyped":
			r.fail(RuleTypeChanged, c.Name, "type %q -> %q at slot %d", c.OldType, c.NewType, c.OldSlot)
		}
	}
	for _, a := range d.Added {
		if a.Slot < oldFrontier {
			r.fail(RuleSlotReused, a.Name, "new field at slot %d is below the predecessor frontier %d (would alias old data)", a.Slot, oldFrontier)
		}
	}
	if d.Compatible {
		r.Migration = d.PlanFrom(old)
	}
}

// --- migration plan ----------------------------------------------------------

// MigrationPlan is the FlexiContracts-style in-place migration derived
// from a compatible layout diff: retained fields keep their slots so no
// data moves, added fields are initialised by the candidate's
// constructor, orphaned fields stay where they are (their slots are
// guaranteed unused). InPlace is false only when the plan could not be
// derived (incompatible diff), forcing the pair-by-pair re-import path.
type MigrationPlan struct {
	Retained []string            `json:"retained,omitempty"` // fields adopted in place, no gas spent
	Added    []minisol.LayoutVar `json:"added,omitempty"`    // constructor-initialised
	Orphaned []minisol.LayoutVar `json:"orphaned,omitempty"` // left in the predecessor, never reused
	InPlace  bool                `json:"inPlace"`
}

// PlanFrom derives the migration plan of a compatible diff against the
// predecessor layout it was computed from (nil when incompatible).
func (d *LayoutDiff) PlanFrom(old *minisol.Layout) *MigrationPlan {
	if !d.Compatible {
		return nil
	}
	removed := map[string]bool{}
	for _, v := range d.Removed {
		removed[v.Name] = true
	}
	var retained []string
	for _, v := range old.Vars {
		if !removed[v.Name] {
			retained = append(retained, v.Name)
		}
	}
	return &MigrationPlan{Retained: retained, Added: d.Added, Orphaned: d.Removed, InPlace: true}
}

// ApplyPlan replays a compatible diff onto the old layout: removed
// fields drop out, retained fields keep their slots, added fields
// append. The result must equal the candidate layout — the round-trip
// property `make check` fuzzes.
func ApplyPlan(old *minisol.Layout, d *LayoutDiff, newName string) *minisol.Layout {
	removed := map[string]bool{}
	for _, v := range d.Removed {
		removed[v.Name] = true
	}
	out := &minisol.Layout{Contract: newName}
	for _, v := range old.Vars {
		if !removed[v.Name] {
			out.Vars = append(out.Vars, v)
		}
	}
	out.Vars = append(out.Vars, d.Added...)
	return out
}

// EqualLayouts compares two layouts field-set-wise (order-insensitive:
// the slot assignment, not declaration order, is what storage sees).
func EqualLayouts(a, b *minisol.Layout) bool {
	if len(a.Vars) != len(b.Vars) {
		return false
	}
	av := append([]minisol.LayoutVar(nil), a.Vars...)
	bv := append([]minisol.LayoutVar(nil), b.Vars...)
	sortVars(av)
	sortVars(bv)
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

func sortVars(vs []minisol.LayoutVar) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Slot != vs[j].Slot {
			return vs[i].Slot < vs[j].Slot
		}
		return vs[i].Name < vs[j].Name
	})
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
