package upgrade

import (
	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
)

// Spec is what the predecessor version promises: its published ABI, its
// stored storage layout (nil for versions deployed before layouts were
// published — the layout check is then skipped with a note), and any
// user-declared behavioural properties the candidate must satisfy.
type Spec struct {
	PrevAddress ethtypes.Address
	PrevABI     *abi.ABI
	PrevLayout  *minisol.Layout
	Properties  []Property
}

// Candidate is the version asking to join the evidence line.
type Candidate struct {
	Name     string
	ABI      *abi.ABI
	Layout   *minisol.Layout
	Bytecode []byte
	CtorArgs []interface{}
}

// Verify runs the three spec checks against a candidate and returns the
// full report; callers reject the upgrade when !report.OK(). The
// properties run on a what-if fork of view. A nil view is tolerated only
// when no properties are declared — declared-but-unexecutable
// properties fail conservatively (RulePropertyUnverifiable) rather than
// waving the candidate through.
func Verify(spec Spec, cand Candidate, view *chain.HeadView, from ethtypes.Address) *Report {
	r := &Report{Candidate: cand.Name, Prev: spec.PrevAddress.Hex()}

	if spec.PrevABI != nil && cand.ABI != nil {
		r.checkABI(DiffABI(spec.PrevABI, cand.ABI))
	}

	switch {
	case spec.PrevLayout == nil:
		r.Notes = append(r.Notes, "layout check skipped: predecessor has no stored layout")
	case cand.Layout == nil:
		r.Notes = append(r.Notes, "layout check skipped: candidate artifact carries no layout")
	default:
		r.checkLayout(DiffLayout(spec.PrevLayout, cand.Layout), spec.PrevLayout)
	}

	if len(spec.Properties) > 0 {
		r.checkProperties(spec.Properties, cand, view, from)
	}
	return r
}

// checkProperties deploys the candidate on a fork of the head view and
// runs each declared property as an eth_call against it.
func (r *Report) checkProperties(props []Property, cand Candidate, view *chain.HeadView, from ethtypes.Address) {
	if view == nil {
		for _, p := range props {
			r.Properties = append(r.Properties, PropertyResult{
				Name: p.Name, Method: p.Method, OK: false, Error: "no head view available to execute the check"})
			r.fail(RulePropertyUnverifiable, p.Name, "no head view available to execute the check")
		}
		return
	}

	fork := view.Fork()
	fork.FundAccount(from, ethtypes.Ether(1_000_000_000))

	initCode := cand.Bytecode
	if len(cand.CtorArgs) > 0 {
		ctorData, err := cand.ABI.PackConstructor(cand.CtorArgs...)
		if err != nil {
			r.fail(RuleCandidateUndeployable, cand.Name, "constructor args: %v", err)
			return
		}
		initCode = append(append([]byte(nil), cand.Bytecode...), ctorData...)
	}
	addr, res := fork.Create(from, initCode, 0, uint256.Zero)
	if res.Err != nil {
		detail := res.Err.Error()
		if res.Reason != "" {
			detail += ": " + res.Reason
		}
		r.fail(RuleCandidateUndeployable, cand.Name, "constructor reverted on fork of block %d: %s", fork.BlockNumber(), detail)
		return
	}

	for _, p := range props {
		pr := PropertyResult{Name: p.Name, Method: p.Method, Want: p.Want}
		data, err := cand.ABI.Pack(p.Method, p.Args...)
		if err != nil {
			pr.Error = err.Error()
			r.Properties = append(r.Properties, pr)
			r.fail(RulePropertyUnverifiable, p.Name, "pack %s: %v", p.Method, err)
			continue
		}
		res := fork.Call(from, addr, data, 0, uint256.Zero)
		if res.Err != nil {
			pr.Error = res.Err.Error()
			if res.Reason != "" {
				pr.Error += ": " + res.Reason
			}
			r.Properties = append(r.Properties, pr)
			r.fail(RulePropertyFailed, p.Name, "%s reverted: %s", p.Method, pr.Error)
			continue
		}
		vals, err := cand.ABI.Unpack(p.Method, res.Return)
		if err != nil {
			pr.Error = err.Error()
			r.Properties = append(r.Properties, pr)
			r.fail(RulePropertyUnverifiable, p.Name, "decode %s return: %v", p.Method, err)
			continue
		}
		got, err := renderReturn(vals)
		if err != nil {
			pr.Error = err.Error()
			r.Properties = append(r.Properties, pr)
			r.fail(RulePropertyUnverifiable, p.Name, "render %s return: %v", p.Method, err)
			continue
		}
		pr.Got = got
		pr.OK = p.Want == "" || got == p.Want
		r.Properties = append(r.Properties, pr)
		if !pr.OK {
			r.fail(RulePropertyFailed, p.Name, "%s returned %q, want %q", p.Method, got, p.Want)
		}
	}
}
