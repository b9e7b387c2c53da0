package core

import (
	"fmt"

	"legalchain/internal/ethtypes"
)

// VersionInfo is one node of the on-chain version chain, resolved during
// a walk.
type VersionInfo struct {
	Address ethtypes.Address
	Prev    ethtypes.Address // zero when head
	Next    ethtypes.Address // zero when tail
	// Registry enrichment (may be empty if the row is unknown locally).
	Version int
	State   string
	Name    string
}

// maxChainLength bounds walks so a (maliciously) cyclic chain terminates.
const maxChainLength = 4096

// pointers reads the next/prev pointers of one version through its
// published ABI.
func (m *Manager) pointers(addr ethtypes.Address) (prev, next ethtypes.Address, err error) {
	bound, err := m.BindVersion(addr)
	if err != nil {
		return prev, next, err
	}
	if _, ok := bound.ABI.Methods["getPrev"]; !ok {
		return prev, next, fmt.Errorf("%w: %s", ErrNotVersioned, addr)
	}
	if prev, err = bound.CallAddress(addr, "getPrev"); err != nil {
		return prev, next, err
	}
	if next, err = bound.CallAddress(addr, "getNext"); err != nil {
		return prev, next, err
	}
	return prev, next, nil
}

// WalkChain traverses the doubly linked version list from any member:
// backwards to the first version, then forwards to the last, resolving
// each hop's ABI from the content store. The returned slice is ordered
// v1..vN — the paper's evidence line of modifications.
//
// Every version's pointers are read from the chain once: the forward
// pass reuses what the backward pass read, so a walk costs one pointer
// read per version wherever in the line it starts.
func (m *Manager) WalkChain(start ethtypes.Address) ([]VersionInfo, error) {
	type links struct{ prev, next ethtypes.Address }
	// Find the head.
	head := start
	read := map[ethtypes.Address]links{}
	for i := 0; ; i++ {
		if i > maxChainLength {
			return nil, fmt.Errorf("%w: prev chain exceeds %d", ErrChainCorrupted, maxChainLength)
		}
		prev, next, err := m.pointers(head)
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
			if l.prev, l.next, err = m.pointers(cur); err != nil {
				return nil, err
			}
		}
		info := VersionInfo{Address: cur, Prev: l.prev, Next: l.next}
		if row, err := m.GetRow(cur); err == nil {
			info.Version = row.Version
			info.State = row.State
			info.Name = row.Name
		}
		out = append(out, info)
		if l.next.IsZero() {
			break
		}
		cur = l.next
	}
	return out, nil
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
