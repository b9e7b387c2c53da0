package core

import (
	"errors"
	"fmt"
	"slices"

	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
)

// VersionInfo is one node of the on-chain version chain, resolved during
// a walk.
type VersionInfo struct {
	Address ethtypes.Address
	Prev    ethtypes.Address // zero when head
	Next    ethtypes.Address // zero when tail
	// Registry enrichment (may be empty if the row is unknown locally).
	Version int
	Name    string
	// State is empty after WalkChain; WalkStates derives it.
	State string
}

// maxChainLength bounds walks so a (maliciously) cyclic chain terminates.
const maxChainLength = 4096

// pointers reads a version's previous and next pointers: two storage
// words, at the slots its published layout names. A version is versioned
// when its layout declares next and previous, each one address wide; a
// version without that layout is ErrNotVersioned. No getter runs, so a
// contract whose getPrev or getNext answers other than its storage is
// read by its storage.
func (m *Manager) pointers(addr ethtypes.Address) (prev, next ethtypes.Address, err error) {
	layout, err := m.ResolveLayout(addr)
	if err != nil {
		return prev, next, err
	}
	prevVar, okPrev := pointerVar(layout, "previous")
	nextVar, okNext := pointerVar(layout, "next")
	if !okPrev || !okNext {
		return prev, next, fmt.Errorf("%w: %s", ErrNotVersioned, addr)
	}
	node := m.Client.Backend()
	w, err := node.StorageAt(addr, minisol.StorageSlot(prevVar.Slot))
	if err != nil {
		return prev, next, err
	}
	prev = minisol.WordAddress(w)
	if w, err = node.StorageAt(addr, minisol.StorageSlot(nextVar.Slot)); err != nil {
		return prev, next, err
	}
	return prev, minisol.WordAddress(w), nil
}

// pointerVar returns the layout's variable name and whether it is a
// version pointer: an address in one slot.
func pointerVar(layout *minisol.Layout, name string) (minisol.LayoutVar, bool) {
	if layout == nil {
		return minisol.LayoutVar{}, false
	}
	v, ok := layout.Var(name)
	return v, ok && v.Type == "address" && v.Slots == 1
}

// WalkChain traverses the doubly linked version list from any member:
// backwards to the first version, then forwards to the last, reading
// each hop's pointers at the slots of the layout its registry row
// names. The returned slice is ordered v1..vN — the paper's evidence
// line of modifications.
//
// Every version's pointers are read from the chain once: the forward
// pass reuses what the backward pass read, so a walk costs two storage
// words per version wherever in the line it starts. A forward pass that
// does not pass start means the line forked at or before start (a
// predecessor linked to a second successor), and the walk fails with
// ErrChainCorrupted rather than report another line.
func (m *Manager) WalkChain(start ethtypes.Address) ([]VersionInfo, error) {
	return m.walk(start, m.pointers)
}

// walk is WalkChain over the given pointer reader: the tests walk one
// line through the slot reader and through the getters it replaced.
func (m *Manager) walk(start ethtypes.Address, pointers func(ethtypes.Address) (prev, next ethtypes.Address, err error)) ([]VersionInfo, error) {
	type links struct{ prev, next ethtypes.Address }
	// Find the head.
	head := start
	read := map[ethtypes.Address]links{}
	for i := 0; ; i++ {
		if i > maxChainLength {
			return nil, fmt.Errorf("%w: prev chain exceeds %d", ErrChainCorrupted, maxChainLength)
		}
		prev, next, err := pointers(head)
		if err != nil {
			return nil, err
		}
		read[head] = links{prev, next}
		if prev.IsZero() {
			break
		}
		if _, seen := read[prev]; seen {
			return nil, fmt.Errorf("%w: cycle at %s", ErrChainCorrupted, prev)
		}
		head = prev
	}
	// Walk forward collecting nodes.
	var out []VersionInfo
	cur := head
	fwd := map[ethtypes.Address]bool{}
	for i := 0; ; i++ {
		if i > maxChainLength {
			return nil, fmt.Errorf("%w: next chain exceeds %d", ErrChainCorrupted, maxChainLength)
		}
		if fwd[cur] {
			return nil, fmt.Errorf("%w: cycle at %s", ErrChainCorrupted, cur)
		}
		fwd[cur] = true
		l, ok := read[cur]
		if !ok {
			var err error
			if l.prev, l.next, err = pointers(cur); err != nil {
				return nil, err
			}
		}
		info := VersionInfo{Address: cur, Prev: l.prev, Next: l.next}
		if row, err := m.GetRow(cur); err == nil {
			info.Version = row.Version
			info.Name = row.Name
		}
		out = append(out, info)
		if l.next.IsZero() {
			break
		}
		cur = l.next
	}
	if !fwd[start] {
		return nil, fmt.Errorf("%w: the line from %s does not pass %s", ErrChainCorrupted, head, start)
	}
	return out, nil
}

// WalkStates is WalkChain with each version's State derived from the
// chain: prev and next come from the walk, and each version adds one
// storage word, its state.
func (m *Manager) WalkStates(start ethtypes.Address) ([]VersionInfo, error) {
	line, err := m.WalkChain(start)
	if err == nil {
		err = m.deriveStates(line)
	}
	return line, err
}

// A rental version's state() enum (BaseRental's State).
const enumCreated, enumStarted, enumTerminated = 0, 1, 2

// deriveStates is the one derivation of lifecycle state. Only a
// rental-shaped version, whose ABI has terminateContract and whose
// layout declares a public state, has its state enum read, as a storage
// word; line[i-1] is line[i]'s predecessor.
//
//	state is Terminated                                    terminated
//	next ≠ 0                                               inactive
//	last, Created, and the predecessor's state Terminated  rejected
//	otherwise                                              active
func (m *Manager) deriveStates(line []VersionInfo) error {
	prevEnum := -1
	for i, v := range line {
		parsed, err := m.ResolveABI(v.Address)
		if err != nil {
			return err
		}
		enum := -1 // not rental-shaped
		if _, term := parsed.Methods["terminateContract"]; term {
			n, err := m.FieldUint(v.Address, "state")
			switch {
			case err == nil:
				enum = int(n.Uint64())
			case !errors.Is(err, ErrNoField):
				return err
			}
		}
		switch {
		case enum == enumTerminated:
			line[i].State = StateTerminated
		case !v.Next.IsZero():
			line[i].State = StateSuperseded
		case enum == enumCreated && prevEnum == enumTerminated:
			line[i].State = StateRejected
		default:
			line[i].State = StateActive
		}
		prevEnum = enum
	}
	return nil
}

// Describe returns row, as GetRow or Rows returns it, with the fields
// its version contract holds: Next, State and Tenant (empty while zero,
// and for a version whose layout declares no public tenant). State and
// Next come from line, a line from WalkStates, when it holds the
// version. Without a walk, the version's pointers are read, and it is
// derived after its predecessor; a version that is not versioned has no
// Next.
func (m *Manager) Describe(row ContractRow, line []VersionInfo) (ContractRow, error) {
	v := VersionInfo{Address: ethtypes.HexToAddress(row.Address)}
	_, err := m.ResolveABI(v.Address)
	if i := slices.IndexFunc(line, func(w VersionInfo) bool { return w.Address == v.Address }); i >= 0 {
		v = line[i]
	} else if err == nil {
		if _, v.Next, err = m.pointers(v.Address); errors.Is(err, ErrNotVersioned) {
			err = nil
		}
		pair := []VersionInfo{v}
		if row.Prev != "" {
			v.Prev = ethtypes.HexToAddress(row.Prev)
			pair = []VersionInfo{{Address: v.Prev}, v}
		}
		if err == nil {
			err = m.deriveStates(pair)
		}
		v = pair[len(pair)-1]
	}
	if err != nil {
		return row, err
	}
	row.State = v.State
	if !v.Next.IsZero() {
		row.Next = v.Next.Hex()
	}
	if tenant, err := m.FieldAddress(v.Address, "tenant"); err == nil && !tenant.IsZero() {
		row.Tenant = tenant.Hex()
	}
	return row, nil
}

// VerifyChain checks the doubly-linked-list invariants of a walked
// chain: interior nodes satisfy next(prev(v)) == v and prev(next(v)) ==
// v, exactly one head and one tail exist, and versions are strictly
// increasing where known.
func VerifyChain(chain []VersionInfo) error {
	if len(chain) == 0 {
		return fmt.Errorf("core: empty chain")
	}
	if !chain[0].Prev.IsZero() {
		return fmt.Errorf("%w: head has a previous pointer", ErrChainCorrupted)
	}
	if !chain[len(chain)-1].Next.IsZero() {
		return fmt.Errorf("%w: tail has a next pointer", ErrChainCorrupted)
	}
	for i := 0; i < len(chain)-1; i++ {
		if chain[i].Next != chain[i+1].Address {
			return fmt.Errorf("%w: %s.next != %s", ErrChainCorrupted, chain[i].Address, chain[i+1].Address)
		}
		if chain[i+1].Prev != chain[i].Address {
			return fmt.Errorf("%w: %s.prev != %s", ErrChainCorrupted, chain[i+1].Address, chain[i].Address)
		}
		if chain[i].Version != 0 && chain[i+1].Version != 0 && chain[i+1].Version <= chain[i].Version {
			return fmt.Errorf("%w: non-increasing versions at %s", ErrChainCorrupted, chain[i+1].Address)
		}
	}
	return nil
}

// Head returns the first (oldest) version reachable from start.
func (m *Manager) Head(start ethtypes.Address) (ethtypes.Address, error) {
	chain, err := m.WalkChain(start)
	if err != nil {
		return ethtypes.Address{}, err
	}
	return chain[0].Address, nil
}

// Latest returns the newest version reachable from start.
func (m *Manager) Latest(start ethtypes.Address) (ethtypes.Address, error) {
	chain, err := m.WalkChain(start)
	if err != nil {
		return ethtypes.Address{}, err
	}
	return chain[len(chain)-1].Address, nil
}
