package evm

import (
	"legalchain/internal/metrics"
)

// EVM-tier metrics: distributions of gas and interpreter steps per
// outermost call/create and the frame count, recorded only at depth 0
// so inner frames never double-count and the interpreter loop itself
// stays untouched beyond a local step counter.
var (
	mGasUsed = metrics.Default.Histogram("legalchain_evm_gas_used",
		"Gas consumed per outermost EVM call or create.",
		[]float64{700, 2_500, 10_000, 25_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000})
	mSteps = metrics.Default.Histogram("legalchain_evm_steps",
		"Interpreter steps executed per outermost EVM call or create.",
		[]float64{10, 50, 100, 500, 1_000, 5_000, 10_000, 100_000, 1_000_000})
	mFrames = metrics.Default.Counter("legalchain_evm_frames_total",
		"Bytecode frames executed (all call depths).")
	mReverts = metrics.Default.Counter("legalchain_evm_reverts_total",
		"Frames that ended in REVERT (all call depths).")
)

// observeOuter records the per-transaction distributions and the frame
// count when an outermost frame finishes, keeps its step count for
// Steps, and resets the accumulators.
func (e *EVM) observeOuter(gasBefore, gasAfter uint64) {
	mGasUsed.Observe(float64(gasBefore - gasAfter))
	mSteps.Observe(float64(e.steps))
	mFrames.Add(e.frames)
	e.lastSteps, e.steps, e.frames = e.steps, 0, 0
}
