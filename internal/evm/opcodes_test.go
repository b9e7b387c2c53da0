package evm

import (
	"fmt"
	"strings"
	"testing"

	"legalchain/internal/uint256"
)

// formatOp is how String named the bytes without a mnemonic of their own
// before the table: the oracle for every formatted entry.
func formatOp(op OpCode) string {
	switch {
	case op >= PUSH1 && op <= PUSH32:
		return fmt.Sprintf("PUSH%d", op-PUSH1+1)
	case op >= DUP1 && op <= DUP16:
		return fmt.Sprintf("DUP%d", op-DUP1+1)
	case op >= SWAP1 && op <= SWAP16:
		return fmt.Sprintf("SWAP%d", op-SWAP1+1)
	}
	return fmt.Sprintf("opcode(0x%02x)", byte(op))
}

// TestOpCodeStringTable checks all 256 bytes: the PUSH, DUP and SWAP
// ranges and the undefined bytes read what the formatter made of them,
// every named instruction keeps its mnemonic, and no two bytes share a
// name.
func TestOpCodeStringTable(t *testing.T) {
	named := map[OpCode]string{
		STOP: "STOP", SIGNEXTEND: "SIGNEXTEND", SAR: "SAR", SHA3: "SHA3",
		EXTCODEHASH: "EXTCODEHASH", SELFBALANCE: "SELFBALANCE", JUMPDEST: "JUMPDEST",
		LOG0: "LOG0", 0xa1: "LOG1", 0xa2: "LOG2", 0xa3: "LOG3", LOG4: "LOG4",
		CREATE: "CREATE", STATICCALL: "STATICCALL", REVERT: "REVERT",
		INVALID: "INVALID", SELFDESTRUCT: "SELFDESTRUCT",
	}
	seen := map[string]OpCode{}
	instructions := 0
	for i := 0; i < 256; i++ {
		op := OpCode(i)
		got := op.String()
		if prev, dup := seen[got]; dup {
			t.Errorf("0x%02x and 0x%02x are both %q", byte(prev), i, got)
		}
		seen[got] = op
		want := formatOp(op)
		if name, ok := named[op]; ok {
			want = name
			instructions++
		}
		if strings.HasPrefix(want, "opcode(") && !strings.HasPrefix(got, "opcode(") {
			// A byte the formatter leaves anonymous: the table names it,
			// so it must be one of the instructions it declares.
			instructions++
			if got == "" || strings.ToUpper(got) != got {
				t.Errorf("0x%02x = %q, want an upper-case mnemonic", i, got)
			}
			continue
		}
		if got != want {
			t.Errorf("0x%02x = %q, want %q", i, got, want)
		}
	}
	if instructions != 78 {
		t.Errorf("%d bytes carry a declared mnemonic, want the 78 of the instruction set", instructions)
	}
}

// TestOpCodeStringAllocatesNothing: naming a step is an index.
func TestOpCodeStringAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			_ = OpCode(i).String()
		}
	})
	if allocs != 0 {
		t.Fatalf("String allocates %.1f times per 256 bytes, want 0", allocs)
	}
}

// BenchmarkCaptureStep traces a PUSH-, DUP- and SWAP-heavy getter, the
// shape of a compiled view, with a StructLogger: each step names its
// opcode for OpCount.
func BenchmarkCaptureStep(b *testing.B) {
	e, st := testEVM()
	c := addrOf(0x76)
	a := (&asm{}).push(1)
	for i := 0; i < 64; i++ {
		a.push(uint64(i)).op(DUP2, SWAP1, POP, ADD)
	}
	deployRaw(st, c, a.returnTop())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewStructLogger()
		e.Tracer = tr
		if _, _, err := e.Call(addrOf(0xEE), c, nil, 1_000_000, uint256.Zero); err != nil {
			b.Fatal(err)
		}
	}
}
