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
	// mNestedFrames counts the frames opened below an outermost one.
	// Each mSteps observation closes exactly one outermost frame, so the
	// frame total is mSteps' count plus this, and a call that opens no
	// nested frame pays no atomic for it.
	mNestedFrames metrics.Counter
	mReverts      = metrics.Default.Counter("legalchain_evm_reverts_total",
		"Frames that ended in REVERT (all call depths).")
)

func init() {
	metrics.Default.CounterFunc("legalchain_evm_frames_total",
		"Bytecode frames executed (all call depths).",
		func() uint64 { return mSteps.Count() + mNestedFrames.Value() })
}

// observeOuter records the per-transaction distributions and the frame
// count when an outermost frame finishes, keeps its step count for
// Steps, and resets the accumulators.
func (e *EVM) observeOuter(gasBefore, gasAfter uint64) {
	mGasUsed.Observe(float64(gasBefore - gasAfter))
	mSteps.Observe(float64(e.steps))
	if e.frames > 1 {
		mNestedFrames.Add(e.frames - 1)
	}
	e.lastSteps, e.steps, e.frames = e.steps, 0, 0
}
