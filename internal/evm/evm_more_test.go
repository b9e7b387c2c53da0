package evm

import (
	"bytes"
	"errors"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

func TestCreate2DeterministicAddress(t *testing.T) {
	e, st := testEVM()
	creator := addrOf(0xEE)
	st.AddBalance(creator, ethtypes.Ether(1))
	runtime := (&asm{}).push(7).returnTop()
	init := buildInitCode(runtime)
	salt := uint256.NewUint64(0x5a17)

	_, addr1, _, err := e.Create2(creator, init, 1_000_000, uint256.Zero, salt)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the expected address: keccak(0xff ++ creator ++ salt ++ keccak(init))[12:].
	codeHash := ethtypes.Keccak256(init)
	saltB := salt.Bytes32()
	h := ethtypes.Keccak256([]byte{0xff}, creator[:], saltB[:], codeHash[:])
	want := ethtypes.BytesToAddress(h[12:])
	if addr1 != want {
		t.Fatalf("create2 address %s, want %s", addr1, want)
	}
	// Re-deploying at the same address collides.
	if _, _, _, err := e.Create2(creator, init, 1_000_000, uint256.Zero, salt); !errors.Is(err, ErrContractAddressCollision) {
		t.Fatalf("err = %v", err)
	}
	// A different salt lands elsewhere.
	_, addr2, _, err := e.Create2(creator, init, 1_000_000, uint256.Zero, uint256.NewUint64(2))
	if err != nil || addr2 == addr1 {
		t.Fatal("salt not part of address")
	}
}

func TestCreateFromContract(t *testing.T) {
	e, st := testEVM()
	factory := addrOf(0x60)
	st.AddBalance(addrOf(0xEE), ethtypes.Ether(1))
	// Factory: deploys a trivial runtime via CREATE and returns the address.
	// init code for child: PUSH1 0; PUSH1 0; RETURN (deploys empty code)
	child := (&asm{}).push(0).push(0).op(RETURN).code
	a := &asm{}
	// mstore child init at 0
	chunk := make([]byte, 32)
	copy(chunk, child)
	a.pushBytes(chunk).push(0).op(MSTORE)
	a.push(uint64(len(child))).push(0).push(0).op(CREATE) // value=0? stack: value, offset, size -> pops value first
	deployRaw(st, factory, a.returnTop())
	ret, _ := callIt(t, e, factory, nil, uint256.Zero)
	created := wordToAddress(uint256.SetBytes(ret))
	if created.IsZero() {
		t.Fatal("CREATE from contract returned zero")
	}
	// Nonce bookkeeping: the factory's nonce advanced.
	if st.GetNonce(factory) == 0 {
		t.Fatal("factory nonce not bumped")
	}
}

func TestStackOverflowDetected(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x61)
	// Push in an infinite loop; must hit the 1024 limit (or OOG, but we
	// give plenty of gas so the stack limit fires first).
	code := (&asm{}).op(JUMPDEST).push(1).push(0).op(JUMP).code
	deployRaw(st, c, code)
	_, _, err := e.Call(addrOf(0xEE), c, nil, 10_000_000, uint256.Zero)
	if !errors.Is(err, ErrStackOverflow) && !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x62)
	deployRaw(st, c, []byte{byte(ADD)})
	_, left, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero)
	if !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v", err)
	}
	if left != 0 {
		t.Fatal("underflow must consume gas")
	}
}

func TestMemoryExpansionCharged(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x63)
	// MSTORE at a large offset: gas must include quadratic expansion.
	code := (&asm{}).push(1).push(100_000).op(MSTORE).op(STOP).code
	deployRaw(st, c, code)
	_, leftSmall, err := e.Call(addrOf(0xEE), c, nil, 1_000_000, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	usedLarge := 1_000_000 - leftSmall
	// Same write at offset 0 is much cheaper.
	c2 := addrOf(0x64)
	deployRaw(st, c2, (&asm{}).push(1).push(0).op(MSTORE).op(STOP).code)
	_, leftZero, err := e.Call(addrOf(0xEE), c2, nil, 1_000_000, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	usedZero := 1_000_000 - leftZero
	if usedLarge < usedZero+9000 {
		t.Fatalf("expansion not charged: large=%d zero=%d", usedLarge, usedZero)
	}
	// And an absurd offset runs out of gas instead of allocating.
	c3 := addrOf(0x65)
	deployRaw(st, c3, (&asm{}).push(1).pushBytes(bytes.Repeat([]byte{0xff}, 16)).op(MSTORE).code)
	if _, _, err := e.Call(addrOf(0xEE), c3, nil, 1_000_000, uint256.Zero); !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpGasScalesWithExponentSize(t *testing.T) {
	e, st := testEVM()
	run := func(exp []byte) uint64 {
		c := addrOf(0x66)
		st.SetCode(c, (&asm{}).pushBytes(exp).push(3).op(EXP, POP, STOP).code)
		_, left, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero)
		if err != nil {
			t.Fatal(err)
		}
		return 100_000 - left
	}
	small := run([]byte{0x02})
	big := run(bytes.Repeat([]byte{0xff}, 8))
	if big <= small {
		t.Fatalf("EXP gas flat: small=%d big=%d", small, big)
	}
	if big-small != 7*GasExpByte {
		t.Fatalf("per-byte exponent charge wrong: delta=%d", big-small)
	}
}

func TestSha3Opcode(t *testing.T) {
	e, st := testEVM()
	c := addrOf(0x67)
	// keccak256("abc") via MSTORE + SHA3(29, 3)... simpler: store "abc"
	// left-aligned at 0 and hash 3 bytes at offset 0.
	word := make([]byte, 32)
	copy(word, "abc")
	a := &asm{}
	a.pushBytes(word).push(0).op(MSTORE)
	a.push(3).push(0).op(SHA3)
	deployRaw(st, c, a.returnTop())
	ret, _ := callIt(t, e, c, nil, uint256.Zero)
	want := ethtypes.Keccak256([]byte("abc"))
	if !bytes.Equal(ret, want[:]) {
		t.Fatalf("SHA3 = %x, want %s", ret, want)
	}
}

func TestBlockhashOpcode(t *testing.T) {
	known := ethtypes.Keccak256([]byte("block 5"))
	st := testEVMState(t)
	e := New(Context{
		GasLimit: 1_000_000,
		GetBlockHash: func(n uint64) ethtypes.Hash {
			if n == 5 {
				return known
			}
			return ethtypes.Hash{}
		},
	}, st)
	c := addrOf(0x68)
	st.SetCode(c, (&asm{}).push(5).op(BLOCKHASH).returnTop())
	ret, _, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ret, known[:]) {
		t.Fatalf("BLOCKHASH = %x", ret)
	}
}

func TestExtcodeOpcodes(t *testing.T) {
	e, st := testEVM()
	target, reader := addrOf(0x69), addrOf(0x6a)
	code := (&asm{}).push(1).returnTop()
	deployRaw(st, target, code)
	// EXTCODESIZE
	a := &asm{}
	a.pushBytes(target[:]).op(EXTCODESIZE)
	deployRaw(st, reader, a.returnTop())
	ret, _ := callIt(t, e, reader, nil, uint256.Zero)
	if uint256.SetBytes(ret).Uint64() != uint64(len(code)) {
		t.Fatalf("EXTCODESIZE = %x want %d", ret, len(code))
	}
	// EXTCODEHASH
	reader2 := addrOf(0x6b)
	a2 := &asm{}
	a2.pushBytes(target[:]).op(EXTCODEHASH)
	deployRaw(st, reader2, a2.returnTop())
	ret, _ = callIt(t, e, reader2, nil, uint256.Zero)
	want := ethtypes.Keccak256(code)
	if !bytes.Equal(ret, want[:]) {
		t.Fatal("EXTCODEHASH mismatch")
	}
	// EXTCODECOPY: copy target's code and return it.
	reader3 := addrOf(0x6c)
	a3 := &asm{}
	a3.push(uint64(len(code))).push(0).push(0) // len, srcOff, dst
	a3.pushBytes(target[:]).op(EXTCODECOPY)
	a3.push(uint64(len(code))).push(0).op(RETURN)
	deployRaw(st, reader3, a3.code)
	ret, _ = callIt(t, e, reader3, nil, uint256.Zero)
	if !bytes.Equal(ret, code) {
		t.Fatalf("EXTCODECOPY = %x want %x", ret, code)
	}
}

func TestCallcodeRunsInCallerContext(t *testing.T) {
	e, st := testEVM()
	lib, user := addrOf(0x6d), addrOf(0x6e)
	deployRaw(st, lib, (&asm{}).push(0x77).push(9).op(SSTORE).op(STOP).code)
	a := &asm{}
	a.push(0).push(0).push(0).push(0).push(0) // outSize outOff inSize inOff value
	a.pushBytes(lib[:])
	a.push(200_000).op(CALLCODE, POP, STOP)
	deployRaw(st, user, a.code)
	callIt(t, e, user, nil, uint256.Zero)
	slot := ethtypes.Hash(uint256.NewUint64(9).Bytes32())
	if st.GetState(user, slot).Uint64() != 0x77 {
		t.Fatal("CALLCODE must write caller storage")
	}
	if !st.GetState(lib, slot).IsZero() {
		t.Fatal("CALLCODE wrote callee storage")
	}
}

func TestPrecompileGasShortfall(t *testing.T) {
	e, _ := testEVM()
	// sha256 with 10 gas: must fail OOG, not return garbage.
	_, left, err := e.Call(addrOf(0xEE), ethtypes.BytesToAddress([]byte{2}), []byte("x"), 10, uint256.Zero)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v", err)
	}
	if left != 0 {
		t.Fatal("gas left after precompile OOG")
	}
}

func TestCallToEmptyAccountSucceeds(t *testing.T) {
	e, st := testEVM()
	st.AddBalance(addrOf(0xEE), ethtypes.Ether(1))
	ret, left, err := e.Call(addrOf(0xEE), addrOf(0x6f), []byte{1, 2, 3}, 50_000, uint256.Zero)
	if err != nil || len(ret) != 0 {
		t.Fatalf("call to EOA: %x %v", ret, err)
	}
	if left != 50_000 {
		t.Fatal("EOA call must not consume execution gas")
	}
}

// testEVMState builds just the state (for tests that need a custom ctx).
func testEVMState(t *testing.T) *state.StateDB {
	t.Helper()
	_, st := testEVM()
	return st
}

// TestPushTruncatedByEndOfCode pins the Yellow Paper's reading of code
// past its end as zeros: a PUSHn whose immediate is cut short pushes the
// bytes that are there as the most significant of the n, zero-extended on
// the right, and execution then stops at end-of-code.
func TestPushTruncatedByEndOfCode(t *testing.T) {
	imm := make([]byte, 32)
	for i := range imm {
		imm[i] = byte(0xa1 + i)
	}
	e, _ := testEVM()
	for n := 1; n <= 32; n++ {
		for have := 0; have <= n; have++ {
			code := append([]byte{byte(PUSH1) + byte(n-1)}, imm[:have]...)
			f := &frame{code: code, gas: 100, stack: newStack()}
			if _, err := e.exec(f); err != nil {
				t.Fatalf("PUSH%d with %d immediate bytes: %v", n, have, err)
			}
			if f.stack.Len() != 1 {
				t.Fatalf("PUSH%d with %d immediate bytes: stack len %d", n, have, f.stack.Len())
			}
			got := *f.stack.peek(0)
			want := make([]byte, n)
			copy(want, imm[:have])
			if got != uint256.SetBytes(want) {
				t.Errorf("PUSH%d with %d immediate bytes pushed %s, want 0x%x", n, have, got, want)
			}
			if f.gas != 100-GasVeryLow {
				t.Errorf("PUSH%d with %d immediate bytes left %d gas", n, have, f.gas)
			}
		}
	}
}
