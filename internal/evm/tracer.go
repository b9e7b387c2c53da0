package evm

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"legalchain/internal/abi"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// Tracer observes execution step by step (the debug_traceTransaction
// facility). Implementations must be cheap; the interpreter calls
// CaptureStep before every instruction when a tracer is installed.
type Tracer interface {
	// CaptureStep is invoked before executing one instruction.
	CaptureStep(depth int, pc uint64, op OpCode, gas uint64, stackSize int)
	// CaptureFault is invoked when a frame aborts with err.
	CaptureFault(depth int, pc uint64, op OpCode, err error)
}

// FrameTracer is an optional extension of Tracer. When the installed
// tracer also implements it, the EVM reports every call/create frame —
// including precompile and empty-code calls that never reach the
// interpreter — as a balanced CaptureEnter/CaptureExit pair. This is
// what the geth-style callTracer and the span tracer build on; plain
// step tracers (StructLogger) are unaffected.
type FrameTracer interface {
	// CaptureEnter is invoked when a new frame opens. typ is the opcode
	// that opened it (CALL, STATICCALL, DELEGATECALL, CALLCODE, CREATE,
	// CREATE2); for delegate/callcode, to is the code address.
	CaptureEnter(typ OpCode, from, to ethtypes.Address, input []byte, gas uint64, value uint256.Int)
	// CaptureExit closes the most recently entered frame.
	CaptureExit(output []byte, gasUsed uint64, err error)
}

// StructLog is one recorded step.
type StructLog struct {
	Depth     int
	PC        uint64
	Op        OpCode
	Gas       uint64
	StackSize int
}

// StructLogger records every step up to a cap, plus the first fault.
type StructLogger struct {
	Logs  []StructLog
	Fault error
	// MaxSteps bounds memory; 0 means DefaultMaxSteps.
	MaxSteps int
	// OpCount aggregates executed instruction counts by mnemonic.
	OpCount map[string]int

	truncated bool
}

// DefaultMaxSteps bounds a StructLogger when MaxSteps is unset.
const DefaultMaxSteps = 100_000

// NewStructLogger returns an empty logger.
func NewStructLogger() *StructLogger {
	return &StructLogger{OpCount: map[string]int{}}
}

// CaptureStep implements Tracer.
func (s *StructLogger) CaptureStep(depth int, pc uint64, op OpCode, gas uint64, stackSize int) {
	limit := s.MaxSteps
	if limit == 0 {
		limit = DefaultMaxSteps
	}
	s.OpCount[op.String()]++
	if len(s.Logs) >= limit {
		s.truncated = true
		return
	}
	s.Logs = append(s.Logs, StructLog{Depth: depth, PC: pc, Op: op, Gas: gas, StackSize: stackSize})
}

// CaptureFault implements Tracer.
func (s *StructLogger) CaptureFault(depth int, pc uint64, op OpCode, err error) {
	if s.Fault == nil {
		s.Fault = fmt.Errorf("at depth %d pc %d (%s): %w", depth, pc, op, err)
	}
}

// Truncated reports whether the step cap was hit.
func (s *StructLogger) Truncated() bool { return s.truncated }

// CallFrame is one node of the geth-style callTracer output: the frame
// tree of a transaction with inputs, outputs, gas accounting and revert
// reasons. It marshals to the exact JSON shape geth's callTracer emits
// (hex quantities, 0x-prefixed byte strings, nested "calls").
type CallFrame struct {
	Type         string
	From         ethtypes.Address
	To           ethtypes.Address
	Value        *uint256.Int
	Gas          uint64
	GasUsed      uint64
	Input        []byte
	Output       []byte
	Error        string
	RevertReason string
	Calls        []*CallFrame
}

// MarshalJSON renders the frame in geth callTracer shape.
func (f *CallFrame) MarshalJSON() ([]byte, error) {
	type frameJSON struct {
		Type         string       `json:"type"`
		From         string       `json:"from"`
		To           string       `json:"to,omitempty"`
		Value        string       `json:"value,omitempty"`
		Gas          string       `json:"gas"`
		GasUsed      string       `json:"gasUsed"`
		Input        string       `json:"input"`
		Output       string       `json:"output,omitempty"`
		Error        string       `json:"error,omitempty"`
		RevertReason string       `json:"revertReason,omitempty"`
		Calls        []*CallFrame `json:"calls,omitempty"`
	}
	out := frameJSON{
		Type:         f.Type,
		From:         f.From.Hex(),
		To:           f.To.Hex(),
		Gas:          fmt.Sprintf("0x%x", f.Gas),
		GasUsed:      fmt.Sprintf("0x%x", f.GasUsed),
		Input:        "0x" + hex.EncodeToString(f.Input),
		Error:        f.Error,
		RevertReason: f.RevertReason,
		Calls:        f.Calls,
	}
	if f.Value != nil {
		out.Value = f.Value.Hex()
	}
	if len(f.Output) > 0 {
		out.Output = "0x" + hex.EncodeToString(f.Output)
	}
	return json.Marshal(out)
}

// CallTracer collects the call-frame tree of one transaction. It
// ignores per-step events entirely, so it stays cheap even on long
// executions. Install as evm.Tracer; the EVM detects the FrameTracer
// extension and feeds it every frame.
type CallTracer struct {
	root  *CallFrame
	stack []*CallFrame
}

// NewCallTracer returns an empty call tracer.
func NewCallTracer() *CallTracer { return &CallTracer{} }

// CaptureStep implements Tracer (no-op).
func (t *CallTracer) CaptureStep(int, uint64, OpCode, uint64, int) {}

// CaptureFault implements Tracer (no-op; frame errors arrive through
// CaptureExit).
func (t *CallTracer) CaptureFault(int, uint64, OpCode, error) {}

// CaptureEnter implements FrameTracer.
func (t *CallTracer) CaptureEnter(typ OpCode, from, to ethtypes.Address, input []byte, gas uint64, value uint256.Int) {
	f := &CallFrame{
		Type:  typ.String(),
		From:  from,
		To:    to,
		Gas:   gas,
		Input: append([]byte(nil), input...),
	}
	if !value.IsZero() {
		v := value
		f.Value = &v
	}
	if len(t.stack) > 0 {
		parent := t.stack[len(t.stack)-1]
		parent.Calls = append(parent.Calls, f)
	} else if t.root == nil {
		t.root = f
	}
	t.stack = append(t.stack, f)
}

// CaptureExit implements FrameTracer.
func (t *CallTracer) CaptureExit(output []byte, gasUsed uint64, err error) {
	if len(t.stack) == 0 {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	f.GasUsed = gasUsed
	f.Output = append([]byte(nil), output...)
	if err != nil {
		f.Error = err.Error()
		if errors.Is(err, ErrExecutionReverted) {
			if reason, ok := abi.UnpackRevertReason(output); ok {
				f.RevertReason = reason
			}
		}
	}
}

// Result returns the root frame of the traced transaction (nil before
// any frame was captured).
func (t *CallTracer) Result() *CallFrame { return t.root }

// Find returns the first frame in the tree (pre-order) whose callee is
// to, or nil. Handy for asserting "this tx called contract X".
func (f *CallFrame) Find(to ethtypes.Address) *CallFrame {
	if f == nil {
		return nil
	}
	if f.To == to {
		return f
	}
	for _, c := range f.Calls {
		if hit := c.Find(to); hit != nil {
			return hit
		}
	}
	return nil
}
