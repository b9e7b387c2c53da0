package chain

import (
	"legalchain/internal/ethtypes"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

// Fork is a disposable what-if copy of a head view: one shared
// copy-on-read overlay of the frozen state on which a sequence of
// creates and calls accumulates, without ever touching the live chain.
// The upgrade guard uses it to deploy a candidate contract version and
// run its declared property checks against real predecessor state
// before the real deployment is allowed to happen.
//
// A Fork is not safe for concurrent use; take one per verification.
type Fork struct {
	view *HeadView
	st   *state.StateDB
}

// Fork creates a what-if overlay pinned to this view. Like Call, the
// overlay materialises only what executions touch — O(touched), not
// O(all accounts).
func (v *HeadView) Fork() *Fork {
	return &Fork{view: v, st: v.st.Overlay()}
}

// BlockNumber returns the height the fork branched from.
func (f *Fork) BlockNumber() uint64 { return f.view.BlockNumber() }

// FundAccount credits an address so value-bearing speculative
// transactions don't fail on balance (ganache behaviour, matching what
// HeadView.Call does for eth_call).
func (f *Fork) FundAccount(addr ethtypes.Address, amount uint256.Int) {
	f.st.AddBalance(addr, amount)
}

// Create deploys initCode (bytecode ++ ABI-encoded constructor args) on
// the fork and returns the resulting contract address. State changes
// persist inside the fork for subsequent Create/Call invocations.
func (f *Fork) Create(from ethtypes.Address, initCode []byte, gas uint64, value uint256.Int) (ethtypes.Address, *CallResult) {
	return f.view.runMessage(f.st, nil, from, nil, initCode, value, gas)
}

// Call executes a message against the fork's accumulated state —
// eth_call semantics, except that effects persist inside the fork so a
// later call observes what an earlier one wrote.
func (f *Fork) Call(from ethtypes.Address, to ethtypes.Address, data []byte, gas uint64, value uint256.Int) *CallResult {
	_, res := f.view.runMessage(f.st, nil, from, &to, data, value, gas)
	return res
}

// GetCode reads code from the fork (deployed candidates included).
func (f *Fork) GetCode(addr ethtypes.Address) []byte { return f.st.GetCode(addr) }
