package minisol

// Storage-layout export. The compiler already promises Solidity's layout
// rules (see layout_test.go); this file makes the assignment it computed
// a first-class, serializable artifact so other tiers can reason about
// it: the upgrade guard diffs a candidate version's layout against its
// predecessor's before the manager links them (no slot or type
// reassignment for retained fields), and `legalctl audit` renders the
// per-version layouts of an evidence line.

import (
	"encoding/json"
	"fmt"

	"legalchain/internal/jsonwire"
)

// LayoutVar is one state variable of a contract's storage layout: its
// declaration slot and its rendered type. Mappings and dynamic arrays
// occupy only their declaration slot (elements live at keccak-derived
// slots); structs occupy Slots consecutive slots.
type LayoutVar struct {
	Name   string `json:"name"`
	Slot   int    `json:"slot"`
	Slots  int    `json:"slots"` // consecutive slots occupied (>= 1)
	Type   string `json:"type"`
	Public bool   `json:"public,omitempty"`
}

// Layout is the full storage layout of one compiled contract, in slot
// order (inherited variables first, matching the on-chain assignment).
type Layout struct {
	Contract string      `json:"contract"`
	Vars     []LayoutVar `json:"vars"`
}

// LayoutOf extracts the storage layout from a resolved contract.
func LayoutOf(info *ContractInfo) *Layout {
	l := &Layout{Contract: info.Name}
	for _, v := range info.Vars {
		l.Vars = append(l.Vars, LayoutVar{
			Name:   v.Name,
			Slot:   v.Slot,
			Slots:  v.Type.Slots(),
			Type:   v.Type.String(),
			Public: v.Public,
		})
	}
	return l
}

// Var finds a variable by name.
func (l *Layout) Var(name string) (LayoutVar, bool) {
	for _, v := range l.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return LayoutVar{}, false
}

// Frontier returns the first slot past every declared variable — the
// slot where an appended field of the next version must start.
func (l *Layout) Frontier() int {
	end := 0
	for _, v := range l.Vars {
		if e := v.Slot + v.Slots; e > end {
			end = e
		}
	}
	return end
}

// JSON renders the layout canonically for content-addressed storage.
func (l *Layout) JSON() []byte {
	b, err := json.Marshal(l)
	if err != nil {
		// Layout holds only strings/ints; marshalling cannot fail.
		panic(err)
	}
	return b
}

// ParseLayout decodes a layout previously rendered by JSON, validating
// the invariants the differ relies on. It accepts what encoding/json
// accepts for the document's shape, and builds the same layout (see
// package jsonwire).
func ParseLayout(raw []byte) (*Layout, error) {
	var l Layout
	r := jsonwire.NewReader(raw)
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "contract"):
			r.String(&l.Contract)
		case jsonwire.Is(key, "vars"):
			l.Vars = jsonwire.Slice(r, l.Vars, func(v *LayoutVar) { readVar(r, v) })
		default:
			r.Skip()
		}
	})
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("minisol: bad layout JSON: %w", err)
	}
	if err := l.check(); err != nil {
		return nil, err
	}
	return &l, nil
}

// check validates the invariants the differ relies on: every variable
// is named, once, and occupies at least one slot from a non-negative
// one.
func (l *Layout) check() error {
	seen := map[string]bool{}
	for _, v := range l.Vars {
		if v.Name == "" {
			return fmt.Errorf("minisol: layout variable without a name")
		}
		if seen[v.Name] {
			return fmt.Errorf("minisol: duplicate layout variable %q", v.Name)
		}
		seen[v.Name] = true
		if v.Slot < 0 || v.Slots < 1 {
			return fmt.Errorf("minisol: layout variable %q has invalid slots [%d,+%d)", v.Name, v.Slot, v.Slots)
		}
	}
	return nil
}

func readVar(r *jsonwire.Reader, v *LayoutVar) {
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "name"):
			r.String(&v.Name)
		case jsonwire.Is(key, "slot"):
			r.Int(&v.Slot)
		case jsonwire.Is(key, "slots"):
			r.Int(&v.Slots)
		case jsonwire.Is(key, "type"):
			r.String(&v.Type)
		case jsonwire.Is(key, "public"):
			r.Bool(&v.Public)
		default:
			r.Skip()
		}
	})
}
