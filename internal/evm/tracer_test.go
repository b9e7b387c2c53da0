package evm

import (
	"errors"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

func TestStructLoggerRecordsSteps(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x70)
	deployRaw(st, c, (&asm{}).push(2).push(3).op(ADD).returnTop())
	tr := NewStructLogger()
	e.Tracer = tr
	if _, _, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero); err != nil {
		t.Fatal(err)
	}
	if len(tr.Logs) == 0 {
		t.Fatal("no steps recorded")
	}
	// First op is the first PUSH, last is RETURN.
	if tr.Logs[0].Op != PUSH1 {
		t.Fatalf("first op %s", tr.Logs[0].Op)
	}
	if tr.Logs[len(tr.Logs)-1].Op != RETURN {
		t.Fatalf("last op %s", tr.Logs[len(tr.Logs)-1].Op)
	}
	if tr.OpCount["ADD"] != 1 || tr.OpCount["PUSH1"] < 2 {
		t.Fatalf("op counts %v", tr.OpCount)
	}
	// Gas decreases monotonically within the frame.
	for i := 1; i < len(tr.Logs); i++ {
		if tr.Logs[i].Gas > tr.Logs[i-1].Gas {
			t.Fatal("gas increased mid-frame")
		}
	}
	if tr.Fault != nil {
		t.Fatalf("unexpected fault: %v", tr.Fault)
	}
}

func TestStructLoggerCapturesFault(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x71)
	deployRaw(st, c, (&asm{}).push(99).op(JUMP).code) // invalid jump
	tr := NewStructLogger()
	e.Tracer = tr
	if _, _, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero); err == nil {
		t.Fatal("expected failure")
	}
	if tr.Fault == nil || !strings.Contains(tr.Fault.Error(), "invalid jump") {
		t.Fatalf("fault = %v", tr.Fault)
	}
}

func TestStructLoggerDepthAcrossCalls(t *testing.T) {
	e, st := testEVM()
	inner, outer := addrOf(0x72), addrOf(0x73)
	deployRaw(st, inner, (&asm{}).push(1).returnTop())
	a := &asm{}
	a.push(0).push(0).push(0).push(0).push(0)
	a.pushBytes(inner[:])
	a.push(100_000).op(CALL, POP, STOP)
	deployRaw(st, outer, a.code)
	tr := NewStructLogger()
	e.Tracer = tr
	callIt(t, e, outer, nil, uint256.Zero)
	var sawDepth2 bool
	for _, l := range tr.Logs {
		if l.Depth == 2 {
			sawDepth2 = true
		}
	}
	if !sawDepth2 {
		t.Fatal("inner frame not traced at depth 2")
	}
}

func TestStructLoggerTruncation(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x74)
	// Tight loop.
	deployRaw(st, c, (&asm{}).op(JUMPDEST).push(0).op(JUMP).code)
	tr := NewStructLogger()
	tr.MaxSteps = 10
	e.Tracer = tr
	e.Call(addrOf(0xEE), c, nil, 10_000, uint256.Zero)
	if len(tr.Logs) != 10 || !tr.Truncated() {
		t.Fatalf("logs=%d truncated=%v", len(tr.Logs), tr.Truncated())
	}
}

// countedSteps is the StructLogger's step count: OpCount sums every step,
// past the cap on Logs too.
func countedSteps(tr *StructLogger) uint64 {
	var n uint64
	for _, c := range tr.OpCount {
		n += uint64(c)
	}
	return n
}

// TestStepsMatchStructLogger: Steps after an untraced run equals the
// steps a StructLogger counts on the same run, with the same gas and
// error, for a frame that returns, one that calls another, a revert, an
// out-of-gas, a loop that ends past DefaultMaxSteps, and messages that
// run no code.
func TestStepsMatchStructLogger(t *testing.T) {
	inner, outer, reverter, counter, spinner := addrOf(0x80), addrOf(0x81), addrOf(0x82), addrOf(0x83), addrOf(0x84)
	calling := (&asm{}).push(0).push(0).push(0).push(0).push(0)
	calling.pushBytes(inner[:]).push(100_000).op(CALL, POP, STOP)
	// i = 0; do i++ while 30000 > i; return i — eight steps a round.
	counting := (&asm{}).push(0).op(JUMPDEST).push(1).op(ADD, DUP1).push(30_000).op(GT).push(2).op(JUMPI)
	code := map[ethtypes.Address][]byte{
		inner:    (&asm{}).push(2).push(3).op(ADD).returnTop(),
		outer:    calling.code,
		reverter: (&asm{}).push(0).push(0).op(REVERT).code,
		counter:  counting.returnTop(),
		spinner:  (&asm{}).op(JUMPDEST).push(0).op(JUMP).code,
	}
	cases := []struct {
		name string
		to   ethtypes.Address
		gas  uint64
		err  error
	}{
		{"returns", inner, 100_000, nil},
		{"calls", outer, 200_000, nil},
		{"reverts", reverter, 100_000, ErrExecutionReverted},
		{"out of gas", inner, 10, ErrOutOfGas},
		{"loops past DefaultMaxSteps", counter, 2_000_000, nil},
		{"spins out of gas", spinner, 1_000_000, ErrOutOfGas},
		{"no code", addrOf(0x85), 100_000, nil},
		{"precompile", ethtypes.BytesToAddress([]byte{2}), 100_000, nil},
	}
	run := func(to ethtypes.Address, gas uint64, tr Tracer) (uint64, uint64, error) {
		e, st := testEVM()
		for a, c := range code {
			deployRaw(st, a, c)
		}
		e.Tracer = tr
		_, left, err := e.Call(addrOf(0xEE), to, nil, gas, uint256.Zero)
		return e.Steps(), left, err
	}
	for _, c := range cases {
		steps, left, err := run(c.to, c.gas, nil)
		tr := NewStructLogger()
		_, tracedLeft, tracedErr := run(c.to, c.gas, tr)
		if !errors.Is(err, c.err) || !errors.Is(tracedErr, c.err) {
			t.Errorf("%s: err %v, traced %v, want %v", c.name, err, tracedErr, c.err)
		}
		if want := countedSteps(tr); steps != want || left != tracedLeft {
			t.Errorf("%s: %d steps, %d gas left; the StructLogger saw %d steps, %d gas left", c.name, steps, left, want, tracedLeft)
		}
		if !tr.Truncated() && uint64(len(tr.Logs)) != steps {
			t.Errorf("%s: %d steps, %d logs", c.name, steps, len(tr.Logs))
		}
		if strings.HasPrefix(c.name, "loops") || strings.HasPrefix(c.name, "spins") {
			if steps <= DefaultMaxSteps || !tr.Truncated() {
				t.Errorf("%s: %d steps, truncated %v; want past the %d cap", c.name, steps, tr.Truncated(), DefaultMaxSteps)
			}
		}
	}

	// The count is the last outermost message's: a message that runs no
	// code on the same EVM reads 0, not what ran before it.
	e, st := testEVM()
	deployRaw(st, inner, code[inner])
	callIt(t, e, inner, nil, uint256.Zero)
	if e.Steps() == 0 {
		t.Fatal("no steps counted")
	}
	callIt(t, e, addrOf(0x85), nil, uint256.Zero)
	if e.Steps() != 0 {
		t.Fatalf("a call to an account with no code left %d steps", e.Steps())
	}
}
