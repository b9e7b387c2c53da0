package upgrade

import (
	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
)

// Audit report types. `legalctl audit <addr>` and the REST audit
// endpoint walk an evidence line's doubly linked version list and
// render, for every adjacent pair, what actually changed between the
// versions: bytecode, public ABI surface, storage layout, and observed
// behaviour (gas, steps and outcome of the shared read-only methods). The
// core tier assembles AuditReport; this package owns the pairwise
// diffing so the shapes stay next to the rules they report on.

// VersionNode describes one deployed version in chain order (root
// first).
type VersionNode struct {
	Address   string          `json:"address"`
	Index     int             `json:"index"`
	CodeSize  int             `json:"codeSize"`
	CodeHash  string          `json:"codeHash"`
	HasABI    bool            `json:"hasAbi"`
	HasLayout bool            `json:"hasLayout"`
	Layout    *minisol.Layout `json:"layout,omitempty"`
}

// BehaviourDelta compares one shared read-only method run on both
// versions: gas burned, instruction steps, and revert outcome.
type BehaviourDelta struct {
	Method      string `json:"method"`
	OldGas      uint64 `json:"oldGas"`
	NewGas      uint64 `json:"newGas"`
	OldSteps    int    `json:"oldSteps"`
	NewSteps    int    `json:"newSteps"`
	OldReverted bool   `json:"oldReverted"`
	NewReverted bool   `json:"newReverted"`
	Changed     bool   `json:"changed"` // any of gas/steps/outcome differ
}

// PairDiff is the full delta between two adjacent versions.
type PairDiff struct {
	From            string           `json:"from"`
	To              string           `json:"to"`
	BytecodeChanged bool             `json:"bytecodeChanged"`
	CodeSizeDelta   int              `json:"codeSizeDelta"`
	ABI             *ABIDiff         `json:"abi,omitempty"`
	Layout          *LayoutDiff      `json:"layout,omitempty"`
	Behaviour       []BehaviourDelta `json:"behaviour,omitempty"`
}

// AuditReport is the rendered audit of one evidence line.
type AuditReport struct {
	Root          string        `json:"root"`
	Head          string        `json:"head"`
	ChainVerified bool          `json:"chainVerified"` // next/prev pointers mutually consistent
	Versions      []VersionNode `json:"versions"`
	Pairs         []PairDiff    `json:"pairs,omitempty"`
	Rejections    []*Report     `json:"rejections,omitempty"` // rejected candidates recorded in evidence
}

// TraceBackend is the slice of the chain tier behaviour diffing needs:
// one read-only call whose result carries its gas and the interpreter's
// own step count. *chain.HeadView satisfies it.
type TraceBackend interface {
	Call(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *chain.CallResult
}

// Runs runs the read-only calls of one audit, each (address, calldata)
// once. A middle version of a line is the new side of one pair and the
// old side of the next; its views run once, not twice. The backend is
// one immutable head view, so a second run could not differ. The views
// two ABIs share are listed, with their calldata, once per pair of ABIs:
// the versions of a line that publish one ABI share one parsed ABI. A
// Runs lives for one audit and is not safe for concurrent use: a later
// audit runs everything again.
type Runs struct {
	tb    TraceBackend
	from  ethtypes.Address
	done  map[runKey]*chain.CallResult
	views map[[2]*abi.ABI][]sharedView
}

type runKey struct {
	to   ethtypes.Address
	data string
}

// sharedView is a zero-argument read-only method of both ABIs of a
// pair: its signature and its calldata.
type sharedView struct {
	signature string
	data      string
}

// NewRuns returns an empty Runs that calls tb from from.
func NewRuns(tb TraceBackend, from ethtypes.Address) *Runs {
	return &Runs{tb: tb, from: from, done: map[runKey]*chain.CallResult{}, views: map[[2]*abi.ABI][]sharedView{}}
}

// call returns the result of calling to with data, running it the first
// time only.
func (r *Runs) call(to ethtypes.Address, data string) *chain.CallResult {
	k := runKey{to, data}
	res, ok := r.done[k]
	if !ok {
		res = r.tb.Call(r.from, &to, []byte(data), uint256.Zero, 0)
		r.done[k] = res
	}
	return res
}

// shared returns the views oldABI and newABI share, by name, listing
// them the first time only. Methods with inputs are left out (no
// meaningful common argument exists), as is anything state-changing
// (the report shouldn't suggest the audit mutated the chain — it never
// does).
func (r *Runs) shared(oldABI, newABI *abi.ABI) []sharedView {
	k := [2]*abi.ABI{oldABI, newABI}
	views, ok := r.views[k]
	if ok {
		return views
	}
	for _, name := range sortedKeys(oldABI.Methods) {
		om := oldABI.Methods[name]
		nm, ok := newABI.Methods[name]
		if !ok || len(om.Inputs) > 0 || len(nm.Inputs) > 0 || !om.ReadOnly() || !nm.ReadOnly() {
			continue
		}
		data, err := oldABI.Pack(name)
		if err != nil {
			continue
		}
		views = append(views, sharedView{signature: om.Signature(), data: string(data)})
	}
	r.views[k] = views
	return views
}

// DiffBehaviour runs every zero-argument read-only method the two
// versions share, on both, and reports the execution deltas; with nil
// runs (a backend with no head view to call) it reports none.
func DiffBehaviour(runs *Runs, oldAddr, newAddr ethtypes.Address, oldABI, newABI *abi.ABI) []BehaviourDelta {
	if runs == nil || oldABI == nil || newABI == nil {
		return nil
	}
	var out []BehaviourDelta
	for _, v := range runs.shared(oldABI, newABI) {
		oldRes, newRes := runs.call(oldAddr, v.data), runs.call(newAddr, v.data)
		d := BehaviourDelta{
			Method:      v.signature,
			OldGas:      oldRes.GasUsed,
			NewGas:      newRes.GasUsed,
			OldSteps:    int(oldRes.Steps),
			NewSteps:    int(newRes.Steps),
			OldReverted: oldRes.Err != nil,
			NewReverted: newRes.Err != nil,
		}
		d.Changed = d.OldGas != d.NewGas || d.OldSteps != d.NewSteps || d.OldReverted != d.NewReverted
		out = append(out, d)
	}
	return out
}
