package core

import (
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/upgrade"
	"legalchain/internal/web3"
)

// AuditChain walks the version chain containing addr and renders the
// full audit report: per-version code and artifacts, per-pair bytecode,
// ABI-surface, storage-layout and behaviour diffs, and any upgrade
// rejections recorded in the evidence line. Reads only — the audit
// never transacts.
//
// The chain is verified when its pointers are mutually consistent and
// every version after the root has a registry row naming its walked
// predecessor as prev: a line relinked with raw setNext/setPrev calls
// walks consistently but is not the line the manager published.
//
// Each distinct artifact is worked on once: a version's code is hashed
// only when it differs from its predecessor's, a pair whose versions
// share one parsed ABI or layout has the empty diff, and the shared
// views of a pair of ABIs are listed once (upgrade.Runs).
func (m *Manager) AuditChain(from, addr ethtypes.Address) (*upgrade.AuditReport, error) {
	chain, err := m.WalkChain(addr)
	if err != nil {
		return nil, err
	}
	report := &upgrade.AuditReport{
		Root:          chain[0].Address.Hex(),
		Head:          chain[len(chain)-1].Address.Hex(),
		ChainVerified: VerifyChain(chain) == nil && m.publishedLine(chain),
	}

	var runs *upgrade.Runs
	if hv, ok := m.Client.Backend().(web3.HeadViewer); ok {
		runs = upgrade.NewRuns(hv.HeadView(), from)
	}

	codes := make([][]byte, len(chain))
	for i, node := range chain {
		code, err := m.Client.Backend().GetCode(node.Address)
		if err != nil {
			return nil, fmt.Errorf("core: reading code of %s: %w", node.Address, err)
		}
		codes[i] = code
		vn := upgrade.VersionNode{
			Address:  node.Address.Hex(),
			Index:    i,
			CodeSize: len(code),
		}
		if i > 0 && string(code) == string(codes[i-1]) {
			vn.CodeHash = report.Versions[i-1].CodeHash
		} else {
			vn.CodeHash = ethtypes.Keccak256(code).Hex()
		}
		if _, err := m.ResolveABI(node.Address); err == nil {
			vn.HasABI = true
		}
		if layout, err := m.ResolveLayout(node.Address); err == nil && layout != nil {
			vn.HasLayout = true
			vn.Layout = layout
		}
		report.Versions = append(report.Versions, vn)

		if rej, err := m.Rejections(from, node.Address); err == nil && len(rej) > 0 {
			report.Rejections = append(report.Rejections, rej...)
		}
	}

	for i := 0; i+1 < len(chain); i++ {
		oldAddr, newAddr := chain[i].Address, chain[i+1].Address
		pair := upgrade.PairDiff{From: oldAddr.Hex(), To: newAddr.Hex()}

		oldCode, newCode := codes[i], codes[i+1]
		pair.BytecodeChanged = string(oldCode) != string(newCode)
		pair.CodeSizeDelta = len(newCode) - len(oldCode)

		oldABI, errOld := m.ResolveABI(oldAddr)
		newABI, errNew := m.ResolveABI(newAddr)
		if errOld == nil && errNew == nil {
			pair.ABI = upgrade.DiffABI(oldABI, newABI)
			pair.Behaviour = upgrade.DiffBehaviour(runs, oldAddr, newAddr, oldABI, newABI)
		}

		oldLayout, _ := m.ResolveLayout(oldAddr)
		newLayout, _ := m.ResolveLayout(newAddr)
		if oldLayout != nil && newLayout != nil {
			pair.Layout = upgrade.DiffLayout(oldLayout, newLayout)
		}

		report.Pairs = append(report.Pairs, pair)
	}
	return report, nil
}

// publishedLine reports whether every version of a walked line after
// its root has a registry row whose prev is the version walked before
// it. The rows are the ones the walk memoised.
func (m *Manager) publishedLine(chain []VersionInfo) bool {
	for i := 1; i < len(chain); i++ {
		row, err := m.GetRow(chain[i].Address)
		if err != nil || ethtypes.HexToAddress(row.Prev) != chain[i-1].Address {
			return false
		}
	}
	return true
}
