package upgrade

import (
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// countingBackend answers every call with a result derived from its
// target and counts the calls per (address, calldata).
type countingBackend struct {
	calls map[ethtypes.Address]map[string]int
}

func (b *countingBackend) Call(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *chain.CallResult {
	if b.calls[*to] == nil {
		b.calls[*to] = map[string]int{}
	}
	b.calls[*to][string(data)]++
	return &chain.CallResult{GasUsed: 100 + uint64(to[19]), Steps: uint64(to[19])}
}

// TestDiffBehaviourRunsEachVersionOnce: across the pairs of one audit,
// v1→v2 and v2→v3, v2 is the new side of the first pair and the old side
// of the second, and each of its views runs once. A second audit runs
// everything again: Runs is no cache across audits.
func TestDiffBehaviourRunsEachVersionOnce(t *testing.T) {
	art := compileFor(t, specV1)
	views := 0
	for _, m := range art.ABI.Methods {
		if len(m.Inputs) == 0 && m.ReadOnly() {
			views++
		}
	}
	if views < 3 {
		t.Fatalf("specV1 has %d zero-argument views, want at least 3", views)
	}
	v1, v2, v3 := ethtypes.Address{19: 1}, ethtypes.Address{19: 2}, ethtypes.Address{19: 3}
	tb := &countingBackend{calls: map[ethtypes.Address]map[string]int{}}
	for audit := 1; audit <= 2; audit++ {
		runs := NewRuns(tb, ethtypes.Address{19: 0xee})
		first := DiffBehaviour(runs, v1, v2, art.ABI, art.ABI)
		second := DiffBehaviour(runs, v2, v3, art.ABI, art.ABI)
		if len(first) != views || len(second) != views {
			t.Fatalf("audit %d: %d and %d deltas, want %d each", audit, len(first), len(second), views)
		}
		for i, d := range second {
			if d.OldGas != first[i].NewGas || d.OldSteps != first[i].NewSteps || d.OldSteps != 2 || !d.Changed {
				t.Fatalf("audit %d: v2's %s reads %+v in the second pair, %+v in the first", audit, d.Method, d, first[i])
			}
		}
		for _, addr := range []ethtypes.Address{v1, v2, v3} {
			if len(tb.calls[addr]) != views {
				t.Fatalf("audit %d: %d distinct views ran on %s, want %d", audit, len(tb.calls[addr]), addr, views)
			}
			for data, n := range tb.calls[addr] {
				if n != audit {
					t.Errorf("audit %d: view %x ran %d times on %s in all, want %d", audit, data, n, addr, audit)
				}
			}
		}
	}
	if DiffBehaviour(nil, v1, v2, art.ABI, art.ABI) != nil {
		t.Fatal("no runs, yet a behaviour diff")
	}
}

// TestDiffBehaviourListsViewsPerABIPair: the views a pair shares are
// listed per pair of ABIs, not per old ABI. v1 shares all its views with
// v2 (the same ABI) but only those v3's ABI also has with v3.
func TestDiffBehaviourListsViewsPerABIPair(t *testing.T) {
	a := compileFor(t, specV1)
	var view string
	for name, m := range a.ABI.Methods {
		if len(m.Inputs) == 0 && m.ReadOnly() {
			view = name
			break
		}
	}
	b := abi.New(nil, map[string]abi.Method{view: a.ABI.Methods[view]}, nil)
	v1, v2, v3 := ethtypes.Address{19: 1}, ethtypes.Address{19: 2}, ethtypes.Address{19: 3}
	runs := NewRuns(&countingBackend{calls: map[ethtypes.Address]map[string]int{}}, ethtypes.Address{19: 0xee})
	same := DiffBehaviour(runs, v1, v2, a.ABI, a.ABI)
	narrow := DiffBehaviour(runs, v1, v3, a.ABI, b)
	if len(same) < 2 || len(narrow) != 1 {
		t.Fatalf("%d deltas against one ABI, %d against an ABI with one shared view; want ≥ 2 and 1", len(same), len(narrow))
	}
}
