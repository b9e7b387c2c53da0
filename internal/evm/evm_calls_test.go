package evm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/big"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/secp256k1"
	"legalchain/internal/uint256"
)

// buildInitCode wraps runtime code in a standard deployment preamble:
// CODECOPY the runtime part to memory and RETURN it.
func buildInitCode(runtime []byte) []byte {
	a := &asm{}
	// push len, push srcOffset (filled after we know preamble length), push 0, codecopy
	// Preamble layout is deterministic: compute length by assembling twice.
	assembleWith := func(srcOff uint64) []byte {
		b := &asm{}
		b.push(uint64(len(runtime))).push(srcOff).push(0).op(CODECOPY)
		b.push(uint64(len(runtime))).push(0).op(RETURN)
		return b.code
	}
	probe := assembleWith(0xff) // placeholder with same instruction widths
	code := assembleWith(uint64(len(probe)))
	if len(code) != len(probe) {
		// Widths changed (len crossed a push-size boundary); re-assemble.
		code = assembleWith(uint64(len(code)))
	}
	a.code = append(code, runtime...)
	return a.code
}

func TestCreateAndCallDeployedContract(t *testing.T) {
	e, st := testEVM()
	creator := addrOf(0xEE)
	st.AddBalance(creator, ethtypes.Ether(1))

	runtime := (&asm{}).push(42).returnTop() // always returns 42
	init := buildInitCode(runtime)
	ret, addr, left, err := e.Create(creator, init, 1_000_000, uint256.Zero)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !bytes.Equal(ret, runtime) {
		t.Fatalf("deployed code mismatch: %x vs %x", ret, runtime)
	}
	if left == 0 {
		t.Fatal("create consumed all gas")
	}
	if !bytes.Equal(st.GetCode(addr), runtime) {
		t.Fatal("code not installed")
	}
	if st.GetNonce(addr) != 1 {
		t.Fatal("EIP-161 contract nonce must be 1")
	}
	if st.GetNonce(creator) != 1 {
		t.Fatal("creator nonce must bump")
	}
	out, _ := callIt(t, e, addr, nil, uint256.Zero)
	if uint256.SetBytes(out).Uint64() != 42 {
		t.Fatalf("deployed contract returned %x", out)
	}
	// Deterministic address.
	if addr != ethtypes.CreateAddress(creator, 0) {
		t.Fatal("create address mismatch")
	}
}

func TestCreateRevertingInitCode(t *testing.T) {
	e, st := testEVM()
	creator := addrOf(0xEE)
	st.AddBalance(creator, ethtypes.Ether(1))
	init := (&asm{}).push(0).push(0).op(REVERT).code
	_, addr, _, err := e.Create(creator, init, 500_000, ethtypes.Ether(1))
	if !errors.Is(err, ErrExecutionReverted) {
		t.Fatalf("err = %v", err)
	}
	if st.GetCodeSize(addr) != 0 {
		t.Fatal("code installed despite revert")
	}
	if st.GetBalance(creator) != ethtypes.Ether(1) {
		t.Fatal("value not returned on revert")
	}
	// Nonce still bumps on failed create (post-EIP-161 behaviour).
	if st.GetNonce(creator) != 1 {
		t.Fatal("creator nonce must bump even on failure")
	}
}

func TestNestedCallRevertIsolation(t *testing.T) {
	e, st := testEVM()
	inner, outer := addrOf(20), addrOf(21)
	// inner: sstore(1,1) then revert
	deployRaw(st, inner, (&asm{}).push(1).push(1).op(SSTORE).push(0).push(0).op(REVERT).code)
	// outer: sstore(2,2); call inner; return call-success flag
	out := &asm{}
	out.push(2).push(2).op(SSTORE)
	out.push(0).push(0).push(0).push(0).push(0) // retSize retOff inSize inOff value
	out.pushBytes(inner[:])                     // address
	out.push(200_000).op(CALL)
	deployRaw(st, outer, out.returnTop())

	ret, _ := callIt(t, e, outer, nil, uint256.Zero)
	if uint256.SetBytes(ret).Uint64() != 0 {
		t.Fatal("inner revert must push 0")
	}
	slot1 := ethtypes.Hash(uint256.NewUint64(1).Bytes32())
	slot2 := ethtypes.Hash(uint256.NewUint64(2).Bytes32())
	if !st.GetState(inner, slot1).IsZero() {
		t.Fatal("inner write survived its revert")
	}
	if st.GetState(outer, slot2).Uint64() != 2 {
		t.Fatal("outer write must survive")
	}
}

func TestReturnDataPropagation(t *testing.T) {
	e, st := testEVM()
	callee, caller := addrOf(22), addrOf(23)
	deployRaw(st, callee, (&asm{}).push(0xBEEF).returnTop())
	// caller: call callee, then RETURNDATACOPY everything and return it.
	a := &asm{}
	a.push(0).push(0).push(0).push(0).push(0)
	a.pushBytes(callee[:])
	a.push(100_000).op(CALL, POP)
	a.op(RETURNDATASIZE).push(0).push(0).op(RETURNDATACOPY)
	a.op(RETURNDATASIZE).push(0).op(RETURN)
	deployRaw(st, caller, a.code)
	ret, _ := callIt(t, e, caller, nil, uint256.Zero)
	if uint256.SetBytes(ret).Uint64() != 0xBEEF {
		t.Fatalf("returndata = %x", ret)
	}
}

func TestReturnDataCopyOutOfBounds(t *testing.T) {
	e, st := testEVM()
	c := addrOf(24)
	// No prior call -> returndatasize 0; copying 1 byte must fail hard.
	deployRaw(st, c, (&asm{}).push(1).push(0).push(0).op(RETURNDATACOPY).code)
	_, _, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero)
	if !errors.Is(err, ErrReturnDataOutOfBounds) {
		t.Fatalf("err = %v", err)
	}
}

func TestStaticCallBlocksWrites(t *testing.T) {
	e, st := testEVM()
	writer, caller := addrOf(25), addrOf(26)
	deployRaw(st, writer, (&asm{}).push(1).push(1).op(SSTORE).op(STOP).code)
	// caller does STATICCALL into writer and returns the success flag.
	a := &asm{}
	a.push(0).push(0).push(0).push(0)
	a.pushBytes(writer[:])
	a.push(100_000).op(STATICCALL)
	deployRaw(st, caller, a.returnTop())
	ret, _ := callIt(t, e, caller, nil, uint256.Zero)
	if uint256.SetBytes(ret).Uint64() != 0 {
		t.Fatal("static write must fail")
	}
	slot := ethtypes.Hash(uint256.NewUint64(1).Bytes32())
	if !st.GetState(writer, slot).IsZero() {
		t.Fatal("write leaked through staticcall")
	}
	// Direct StaticCall API should report the violation.
	_, _, err := e.StaticCall(addrOf(0xEE), writer, nil, 100_000)
	if !errors.Is(err, ErrWriteProtection) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelegateCallUsesCallerStorage(t *testing.T) {
	e, st := testEVM()
	lib, proxy := addrOf(27), addrOf(28)
	// lib: sstore(5, 0xAA)
	deployRaw(st, lib, (&asm{}).push(0xAA).push(5).op(SSTORE).op(STOP).code)
	// proxy: delegatecall lib
	a := &asm{}
	a.push(0).push(0).push(0).push(0)
	a.pushBytes(lib[:])
	a.push(200_000).op(DELEGATECALL, POP, STOP)
	deployRaw(st, proxy, a.code)
	callIt(t, e, proxy, nil, uint256.Zero)
	slot := ethtypes.Hash(uint256.NewUint64(5).Bytes32())
	if st.GetState(proxy, slot).Uint64() != 0xAA {
		t.Fatal("delegatecall must write proxy storage")
	}
	if !st.GetState(lib, slot).IsZero() {
		t.Fatal("delegatecall must not write lib storage")
	}
}

func TestDelegateCallPreservesCallerAndValue(t *testing.T) {
	e, st := testEVM()
	lib, proxy := addrOf(29), addrOf(30)
	st.AddBalance(addrOf(0xEE), ethtypes.Ether(1))
	// lib returns CALLER.
	deployRaw(st, lib, (&asm{}).op(CALLER).returnTop())
	a := &asm{}
	a.push(0).push(0).push(0).push(0)
	a.pushBytes(lib[:])
	a.push(200_000).op(DELEGATECALL, POP)
	a.op(RETURNDATASIZE).push(0).push(0).op(RETURNDATACOPY)
	a.op(RETURNDATASIZE).push(0).op(RETURN)
	deployRaw(st, proxy, a.code)
	ret, _ := callIt(t, e, proxy, nil, uint256.Zero)
	if got := wordToAddress(uint256.SetBytes(ret)); got != addrOf(0xEE) {
		t.Fatalf("delegatecall caller = %s, want original sender", got)
	}
}

// callTo appends a kind call to `to` with no input that copies up to
// outSize bytes of the output to memory at outOff and leaves the
// success flag on the stack. CALL and CALLCODE send value.
func (a *asm) callTo(kind OpCode, to ethtypes.Address, value, outOff, outSize uint64) *asm {
	a.push(outSize).push(outOff).push(0).push(0)
	if kind == CALL || kind == CALLCODE {
		a.push(value)
	}
	return a.pushBytes(to[:]).push(200_000).op(kind)
}

// TestFrameContextPerCallKind checks, for each of the four CALL kinds,
// the ADDRESS, CALLER and CALLVALUE the callee sees, whose storage it
// writes, and whether it may write at all. origin calls proxy with 7
// wei; proxy makes a kind call with 3 wei to reader, which returns the
// three words, then one to writer, which stores to slot 5.
func TestFrameContextPerCallKind(t *testing.T) {
	origin, proxy, reader, writer := addrOf(0xEE), addrOf(0x90), addrOf(0x91), addrOf(0x92)
	slot := ethtypes.Hash(uint256.NewUint64(5).Bytes32())
	for _, c := range []struct {
		kind            OpCode
		address, caller ethtypes.Address
		value           uint64
		writes          bool
		storage         ethtypes.Address
	}{
		{CALL, reader, proxy, 3, true, writer},
		{CALLCODE, proxy, proxy, 3, true, proxy},
		{DELEGATECALL, proxy, origin, 7, true, proxy},
		{STATICCALL, reader, proxy, 0, false, ethtypes.Address{}},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			e, st := testEVM()
			st.AddBalance(origin, ethtypes.Ether(1))
			deployRaw(st, reader, (&asm{}).
				op(ADDRESS).push(0).op(MSTORE).
				op(CALLER).push(32).op(MSTORE).
				op(CALLVALUE).push(64).op(MSTORE).
				push(96).push(0).op(RETURN).code)
			deployRaw(st, writer, (&asm{}).push(1).push(5).op(SSTORE).op(STOP).code)
			a := (&asm{}).callTo(c.kind, reader, 3, 0, 96).op(POP)
			a.callTo(c.kind, writer, 3, 0, 0).push(96).op(MSTORE)
			deployRaw(st, proxy, a.push(128).push(0).op(RETURN).code)

			ret, _ := callIt(t, e, proxy, nil, uint256.NewUint64(7))
			if len(ret) != 128 {
				t.Fatalf("proxy returned %d bytes", len(ret))
			}
			if got := wordToAddress(uint256.SetBytes(ret[:32])); got != c.address {
				t.Errorf("ADDRESS = %s, want %s", got, c.address)
			}
			if got := wordToAddress(uint256.SetBytes(ret[32:64])); got != c.caller {
				t.Errorf("CALLER = %s, want %s", got, c.caller)
			}
			if got := uint256.SetBytes(ret[64:96]).Uint64(); got != c.value {
				t.Errorf("CALLVALUE = %d, want %d", got, c.value)
			}
			if got := uint256.SetBytes(ret[96:]).Uint64() == 1; got != c.writes {
				t.Errorf("write succeeded = %v, want %v", got, c.writes)
			}
			for _, acct := range []ethtypes.Address{proxy, reader, writer} {
				wrote := st.GetState(acct, slot).Uint64() == 1
				if want := c.writes && acct == c.storage; wrote != want {
					t.Errorf("slot 5 of %s written = %v, want %v", acct, wrote, want)
				}
			}
		})
	}
}

// TestStaticContextInheritedByCall: a value-0 CALL made inside a
// STATICCALL is static too (EIP-214), so STATICCALL → CALL → SSTORE
// fails and the slot stays zero.
func TestStaticContextInheritedByCall(t *testing.T) {
	e, st := testEVM()
	outer, middle, writer := addrOf(0x93), addrOf(0x94), addrOf(0x95)
	slot := ethtypes.Hash(uint256.NewUint64(1).Bytes32())
	deployRaw(st, writer, (&asm{}).push(1).push(1).op(SSTORE).op(STOP).code)
	// middle CALLs writer with value 0 and returns the success flag.
	deployRaw(st, middle, (&asm{}).callTo(CALL, writer, 0, 0, 0).returnTop())
	// outer STATICCALLs middle and returns middle's output.
	deployRaw(st, outer, (&asm{}).callTo(STATICCALL, middle, 0, 0, 32).op(POP).
		push(32).push(0).op(RETURN).code)

	ret, _ := callIt(t, e, outer, nil, uint256.Zero)
	if uint256.SetBytes(ret).Uint64() != 0 {
		t.Fatal("CALL → SSTORE inside a STATICCALL succeeded")
	}
	ret, _, err := e.StaticCall(addrOf(0xEE), middle, nil, 200_000)
	if err != nil || uint256.SetBytes(ret).Uint64() != 0 {
		t.Fatalf("CALL → SSTORE inside StaticCall: ret %x err %v", ret, err)
	}
	if !st.GetState(writer, slot).IsZero() {
		t.Fatal("write under a static frame persisted")
	}
}

// TestCallcodeReachesPrecompiles: CALLCODE to identity (0x04) and to
// sha256 (0x02) returns what the precompile computes.
func TestCallcodeReachesPrecompiles(t *testing.T) {
	input := []byte("legal smart contracts")
	digest := sha256.Sum256(input)
	for _, c := range []struct {
		precompile byte
		want       []byte
	}{{4, input}, {2, digest[:]}} {
		e, st := testEVM()
		user := addrOf(0x96)
		a := &asm{}
		for i, b := range input {
			a.push(uint64(b)).push(uint64(i)).op(MSTORE8)
		}
		a.push(0).push(0).push(uint64(len(input))).push(0).push(0) // outSize outOff inSize inOff value
		a.pushBytes([]byte{c.precompile}).push(100_000).op(CALLCODE, POP)
		a.op(RETURNDATASIZE).push(0).push(0).op(RETURNDATACOPY)
		a.op(RETURNDATASIZE).push(0).op(RETURN)
		deployRaw(st, user, a.code)
		ret, _ := callIt(t, e, user, nil, uint256.Zero)
		if !bytes.Equal(ret, c.want) {
			t.Errorf("CALLCODE to 0x%02x returned %x, want %x", c.precompile, ret, c.want)
		}
	}
}

func TestCallDepthLimit(t *testing.T) {
	e, st := testEVM()
	c := addrOf(31)
	// Contract calls itself forever; the 63/64 rule or depth cap stops it.
	a := &asm{}
	a.push(0).push(0).push(0).push(0).push(0)
	a.pushBytes(c[:])
	a.op(GAS).op(CALL, POP, STOP)
	deployRaw(st, c, a.code)
	_, _, err := e.Call(addrOf(0xEE), c, nil, 5_000_000, uint256.Zero)
	if err != nil {
		t.Fatalf("recursion must terminate cleanly at the top level: %v", err)
	}
}

func TestOutOfGas(t *testing.T) {
	e, st := testEVM()
	c := addrOf(32)
	// Infinite loop.
	deployRaw(st, c, (&asm{}).op(JUMPDEST).push(0).op(JUMP).code)
	_, left, err := e.Call(addrOf(0xEE), c, nil, 30_000, uint256.Zero)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v", err)
	}
	if left != 0 {
		t.Fatal("OOG must consume everything")
	}
}

func TestSha256AndIdentityPrecompiles(t *testing.T) {
	e, _ := testEVM()
	input := []byte("legal smart contracts")
	ret, _, err := e.Call(addrOf(0xEE), ethtypes.BytesToAddress([]byte{2}), input, 100_000, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret) != 32 {
		t.Fatal("sha256 output size")
	}
	ret2, _, err := e.Call(addrOf(0xEE), ethtypes.BytesToAddress([]byte{4}), input, 100_000, uint256.Zero)
	if err != nil || !bytes.Equal(ret2, input) {
		t.Fatal("identity precompile")
	}
}

func TestEcrecoverPrecompile(t *testing.T) {
	e, _ := testEVM()
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(0x5eed))
	digest := ethtypes.Keccak256([]byte("signed message"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 128)
	copy(input[:32], digest[:])
	input[63] = sig.V + 27
	sig.R.FillBytes(input[64:96])
	sig.S.FillBytes(input[96:128])
	ret, _, err := e.Call(addrOf(0xEE), ethtypes.BytesToAddress([]byte{1}), input, 100_000, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	want := ethtypes.PubkeyToAddress(key.Public)
	if got := ethtypes.BytesToAddress(ret[12:]); got != want {
		t.Fatalf("ecrecover = %s, want %s", got, want)
	}

	// The precompile accepts either s: the low-S rule (EIP-2) is about
	// transactions. The well-known vector and its twin (s' = N − s, other
	// v) must name the same address.
	const (
		vecHash = "456e9aea5e197a1f1af7a3e85a3212fa4049a3ba34c2289b4c860fc0b0c64ef3"
		vecR    = "9242685bf161793cc25603c231bc2f568eb630ea16aa137d2664ac8038825608"
		vecS    = "4f8ae3bd7535248d0bd448298cc2e2071e56992d0774dc340c368ae950852ada"
		vecAddr = "0x7156526fbd7a3c72969b54f64e42c10fbb768c8a"
	)
	s, _ := new(big.Int).SetString(vecS, 16)
	twinS := new(big.Int).Sub(secp256k1.N, s)
	for _, c := range []struct {
		v byte
		s string
	}{{28, vecS}, {27, hex.EncodeToString(twinS.FillBytes(make([]byte, 32)))}} {
		in, err := hex.DecodeString(vecHash + strings.Repeat("00", 31) + hex.EncodeToString([]byte{c.v}) + vecR + c.s)
		if err != nil {
			t.Fatal(err)
		}
		ret, _, err := e.Call(addrOf(0xEE), ethtypes.BytesToAddress([]byte{1}), in, 100_000, uint256.Zero)
		if err != nil {
			t.Fatal(err)
		}
		if len(ret) != 32 || ethtypes.BytesToAddress(ret[12:]) != ethtypes.HexToAddress(vecAddr) {
			t.Fatalf("ecrecover(v=%d, s=%s) = %x, want %s", c.v, c.s, ret, vecAddr)
		}
	}
}

func TestSstoreRefundOnClear(t *testing.T) {
	e, st := testEVM()
	c := addrOf(33)
	// Pre-populate slot 1 across transactions.
	slot := ethtypes.Hash(uint256.NewUint64(1).Bytes32())
	st.SetState(c, slot, uint256.NewUint64(9))
	st.Finalise()
	deployRaw(st, c, (&asm{}).push(0).push(1).op(SSTORE).op(STOP).code)
	callIt(t, e, c, nil, uint256.Zero)
	if st.GetRefund() != RefundSstoreClear {
		t.Fatalf("refund = %d, want %d", st.GetRefund(), RefundSstoreClear)
	}
}

func TestSelfdestructMovesFunds(t *testing.T) {
	e, st := testEVM()
	c, heir := addrOf(34), addrOf(35)
	st.AddBalance(c, ethtypes.Ether(2))
	code := &asm{}
	code.pushBytes(heir[:])
	code.op(SELFDESTRUCT)
	deployRaw(st, c, code.code)
	callIt(t, e, c, nil, uint256.Zero)
	if st.GetBalance(heir) != ethtypes.Ether(2) {
		t.Fatal("funds not moved")
	}
	if !st.GetBalance(c).IsZero() {
		t.Fatal("balance not cleared")
	}
	st.Finalise()
	if st.Exist(c) {
		t.Fatal("account not deleted")
	}
}

func TestGasConservationAcrossCall(t *testing.T) {
	// Sum of gas consumed by caller frame must equal initial - left.
	e, st := testEVM()
	callee, caller := addrOf(36), addrOf(37)
	deployRaw(st, callee, (&asm{}).push(1).returnTop())
	a := &asm{}
	a.push(0).push(0).push(0).push(0).push(0)
	a.pushBytes(callee[:])
	a.push(50_000).op(CALL, POP, STOP)
	deployRaw(st, caller, a.code)
	const gasIn = 300_000
	_, left, err := e.Call(addrOf(0xEE), caller, nil, gasIn, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	used := gasIn - left
	if used == 0 || used > 10_000 {
		t.Fatalf("suspicious gas usage %d", used)
	}
}

func TestIntrinsicGas(t *testing.T) {
	if IntrinsicGas(nil, false) != 21000 {
		t.Fatal("base intrinsic")
	}
	if IntrinsicGas(nil, true) != 53000 {
		t.Fatal("create intrinsic")
	}
	if IntrinsicGas([]byte{0, 1}, false) != 21000+4+16 {
		t.Fatal("data intrinsic")
	}
}

func TestDisassemble(t *testing.T) {
	code := (&asm{}).push(0x1234).op(ADD, JUMPDEST).code
	lines := Disassemble(code)
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "0000 PUSH2 0x1234" {
		t.Fatalf("line0 = %q", lines[0])
	}
}

func TestStateRootChangesAfterExecution(t *testing.T) {
	e, st := testEVM()
	c := addrOf(38)
	deployRaw(st, c, (&asm{}).push(7).push(7).op(SSTORE).op(STOP).code)
	before := st.Root()
	callIt(t, e, c, nil, uint256.Zero)
	if st.Root() == before {
		t.Fatal("root unchanged after sstore")
	}
}

func BenchmarkSimpleTransferCall(b *testing.B) {
	e, st := testEVM()
	st.AddBalance(addrOf(0xEE), ethtypes.Ether(1000000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Call(addrOf(0xEE), addrOf(50), nil, 21000, uint256.One); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSstoreLoop(b *testing.B) {
	e, st := testEVM()
	c := addrOf(51)
	deployRaw(st, c, (&asm{}).push(1).push(1).op(SSTORE).op(STOP).code)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Call(addrOf(0xEE), c, nil, 100_000, uint256.Zero); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCallWithEmptyInputExpandsNoMemory: a call whose input is empty
// reads no memory, so its input offset must not grow memory: that
// growth would be free, up to 4 GiB for one CALL at the 2³² offset
// limit.
func TestCallWithEmptyInputExpandsNoMemory(t *testing.T) {
	for _, kind := range []OpCode{CALL, CALLCODE, DELEGATECALL, STATICCALL} {
		e, st := testEVM()
		c := addrOf(0x70)
		a := (&asm{}).push(0).push(0).push(0).push(1 << 20)
		if kind == CALL || kind == CALLCODE {
			a.push(0)
		}
		empty := addrOf(0x71)
		a.pushBytes(empty[:]).push(10_000).op(kind, POP, MSIZE)
		deployRaw(st, c, a.returnTop())
		ret, _ := callIt(t, e, c, nil, uint256.Zero)
		if got := uint256.SetBytes(ret); !got.IsZero() {
			t.Errorf("%v with empty input at offset 2^20: MSIZE = %v, want 0", kind, got)
		}
	}
}

// TestDataReadsNearOffsetLimitAreZero: CALLDATALOAD, CALLDATACOPY and
// CODECOPY read zeros past the end of their data, and an offset near
// 2⁶⁴ must not wrap back to its start.
func TestDataReadsNearOffsetLimitAreZero(t *testing.T) {
	far := uint256.NewUint64(^uint64(0)).Bytes()
	for name, a := range map[string]*asm{
		"CALLDATALOAD": (&asm{}).pushBytes(far).op(CALLDATALOAD),
		"CALLDATACOPY": (&asm{}).push(32).pushBytes(far).push(0).op(CALLDATACOPY).push(0).op(MLOAD),
		"CODECOPY":     (&asm{}).push(32).pushBytes(far).push(0).op(CODECOPY).push(0).op(MLOAD),
	} {
		e, st := testEVM()
		c := addrOf(0x72)
		deployRaw(st, c, a.returnTop())
		input := bytes.Repeat([]byte{0xAA}, 40)
		ret, _ := callIt(t, e, c, input, uint256.Zero)
		if got := uint256.SetBytes(ret); !got.IsZero() {
			t.Errorf("%s at offset 2^64-1 read %x, want zero", name, ret)
		}
	}
}
