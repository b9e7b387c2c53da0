package evm

import (
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// memLimit bounds addressable memory offsets; anything beyond this costs
// more gas than a block can hold anyway.
const memLimit = 1 << 32

// asMemParam converts a stack word to a memory offset/size. ok is false
// when the value cannot possibly be paid for.
func asMemParam(v uint256.Int) (uint64, bool) {
	if !v.IsUint64() || v.Uint64() > memLimit {
		return 0, false
	}
	return v.Uint64(), true
}

// run executes the frame to completion. It returns the output data; on
// ErrExecutionReverted the output is the revert payload.
func (e *EVM) run(f *frame) (ret []byte, err error) {
	if e.interp != nil {
		// The hook takes the frame by value: a frame handed to a
		// function value by pointer escapes, and every production frame
		// would go to the heap with it. The caller reads gas and pc back,
		// and the buffers for runFrame to keep.
		var out frame
		out, ret, err = e.interp(*f)
		f.gas, f.pc, f.stack, f.mem = out.gas, out.pc, out.stack, out.mem
	} else {
		ret, err = e.exec(f)
	}
	if err != nil && err != ErrExecutionReverted && e.Tracer != nil {
		var op OpCode
		if f.pc < uint64(len(f.code)) {
			op = OpCode(f.code[f.pc])
		}
		e.Tracer.CaptureFault(e.depth, f.pc, op, err)
	}
	return ret, err
}

// exec is the interpreter loop proper. It dispatches with a switch on op
// over constant cases, which the compiler turns into a jump table, and
// checks each op's stack once (Stack.check) just before the op's first
// pop: after its constant gas for the ops that pay first, after the
// static-context check for the writing ops. That order decides which
// error an op returns when several apply. The op's pops and pushes then
// run unchecked.
func (e *EVM) exec(f *frame) ([]byte, error) {
	st, mem := &f.stack, &f.mem
	// Step accounting stays a local counter in the hot loop; it is
	// folded into the EVM-wide accumulator once per frame.
	var steps uint64
	defer func() { e.steps += steps }()
	// The tracer is fixed for the message: read it once, not per step.
	tracer := e.Tracer

	for {
		steps++
		op := STOP
		if f.pc < uint64(len(f.code)) {
			op = OpCode(f.code[f.pc])
		}
		if tracer != nil {
			tracer.CaptureStep(e.depth, f.pc, op, f.gas, st.Len())
		}

		var err error // set by the cases that end in one call
		switch op {
		case STOP:
			return nil, nil

		// ---- arithmetic ----
		// The hottest ops have cases of their own: one dispatch, and
		// enough cases that the switch compiles to a jump table.
		case ADD:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = a.Add(*b)
			f.pc++

		case SUB:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = a.Sub(*b)
			f.pc++

		case LT:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = boolWord(a.Lt(*b))
			f.pc++

		case GT:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = boolWord(a.Gt(*b))
			f.pc++

		case EQ:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = boolWord(a.Eq(*b))
			f.pc++

		case AND:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = a.And(*b)
			f.pc++

		case SHR:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			*b = b.Shr(a)
			f.pc++

		case MUL, DIV, SDIV, MOD, SMOD, SIGNEXTEND, SLT, SGT, OR, XOR, BYTE, SHL, SAR:
			cost := uint64(GasVeryLow)
			switch op {
			case DIV, SDIV, MOD, SMOD, SIGNEXTEND:
				cost = GasLow
			}
			if err := f.charge(cost, op); err != nil {
				return nil, err
			}
			a, b := st.pop(), st.peek(0)
			switch op {
			case MUL:
				*b = a.Mul(*b)
			case DIV:
				*b = a.Div(*b)
			case SDIV:
				*b = a.SDiv(*b)
			case MOD:
				*b = a.Mod(*b)
			case SMOD:
				*b = a.SMod(*b)
			case SLT:
				*b = boolWord(a.Slt(*b))
			case SGT:
				*b = boolWord(a.Sgt(*b))
			case OR:
				*b = a.Or(*b)
			case XOR:
				*b = a.Xor(*b)
			case BYTE:
				*b = b.Byte(a)
			case SHL:
				*b = b.Shl(a)
			case SAR:
				*b = b.Sar(a)
			case SIGNEXTEND:
				*b = b.SignExtend(a)
			}
			f.pc++

		case ADDMOD, MULMOD:
			if err := f.charge(GasMid, op); err != nil {
				return nil, err
			}
			a, b, m := st.pop(), st.pop(), st.peek(0)
			if op == ADDMOD {
				*m = a.AddMod(b, *m)
			} else {
				*m = a.MulMod(b, *m)
			}
			f.pc++

		case EXP:
			if err := st.check(op); err != nil {
				return nil, err
			}
			base, exp := st.pop(), st.peek(0)
			if !f.useGas(GasExp + GasExpByte*uint64((exp.BitLen()+7)/8)) {
				return nil, ErrOutOfGas
			}
			*exp = base.Exp(*exp)
			f.pc++

		case ISZERO, NOT:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			if a := st.peek(0); op == ISZERO {
				*a = boolWord(a.IsZero())
			} else {
				*a = a.Not()
			}
			f.pc++

		case SHA3:
			if err := st.check(op); err != nil {
				return nil, err
			}
			off, size := st.pop(), st.peek(0)
			o, ok1 := asMemParam(off)
			s, ok2 := asMemParam(*size)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasSha3 + GasSha3Word*((s+31)/32) + memoryExpansionGas(mem, o, s)) {
				return nil, ErrOutOfGas
			}
			h := ethtypes.Keccak256(mem.View(o, s))
			*size = uint256.SetBytes(h[:])
			f.pc++

		// ---- environment ----
		case ADDRESS:
			err = f.pushEnv(op, uint256.SetBytes(f.contract[:]))
		case ORIGIN:
			err = f.pushEnv(op, uint256.SetBytes(e.Origin[:]))
		case CALLER:
			err = f.pushEnv(op, uint256.SetBytes(f.caller[:]))
		case CALLVALUE:
			err = f.pushEnv(op, f.value)
		case GASPRICE:
			err = f.pushEnv(op, e.GasPrice)
		case COINBASE:
			err = f.pushEnv(op, uint256.SetBytes(e.Coinbase[:]))
		case TIMESTAMP:
			err = f.pushEnv(op, uint256.NewUint64(e.Time))
		case NUMBER:
			err = f.pushEnv(op, uint256.NewUint64(e.BlockNumber))
		case DIFFICULTY:
			err = f.pushEnv(op, uint256.Zero)
		case GASLIMIT:
			err = f.pushEnv(op, uint256.NewUint64(e.GasLimit))
		case CHAINID:
			err = f.pushEnv(op, uint256.NewUint64(e.ChainID))
		case CALLDATASIZE:
			err = f.pushEnv(op, uint256.NewUint64(uint64(len(f.input))))
		case CODESIZE:
			err = f.pushEnv(op, uint256.NewUint64(uint64(len(f.code))))
		case RETURNDATASIZE:
			err = f.pushEnv(op, uint256.NewUint64(uint64(len(f.returnData))))
		case PC:
			err = f.pushEnv(op, uint256.NewUint64(f.pc))
		case MSIZE:
			err = f.pushEnv(op, uint256.NewUint64(uint64(mem.Len())))

		case GAS:
			if err := f.charge(GasBase, op); err != nil {
				return nil, err
			}
			st.push(uint256.NewUint64(f.gas))
			f.pc++

		case SELFBALANCE:
			if err := f.charge(GasLow, op); err != nil {
				return nil, err
			}
			st.push(e.State.GetBalance(f.contract))
			f.pc++

		case BALANCE:
			if err := st.check(op); err != nil {
				return nil, err
			}
			if !f.useGas(GasBalance) {
				return nil, ErrOutOfGas
			}
			a := st.peek(0)
			*a = e.State.GetBalance(wordToAddress(*a))
			f.pc++

		case BLOCKHASH:
			if err := f.charge(GasBlockhash, op); err != nil {
				return nil, err
			}
			n := st.peek(0)
			var h ethtypes.Hash
			if e.GetBlockHash != nil && n.IsUint64() {
				h = e.GetBlockHash(n.Uint64())
			}
			*n = uint256.SetBytes(h[:])
			f.pc++

		case CALLDATALOAD:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			off := st.peek(0)
			*off = dataWord(f.input, *off)
			f.pc++

		case CALLDATACOPY, CODECOPY, RETURNDATACOPY:
			if err := st.check(op); err != nil {
				return nil, err
			}
			memOff, srcOff, length := st.pop(), st.pop(), st.pop()
			mo, ok1 := asMemParam(memOff)
			l, ok2 := asMemParam(length)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + copyGas(l) + memoryExpansionGas(mem, mo, l)) {
				return nil, ErrOutOfGas
			}
			switch op {
			case CALLDATACOPY:
				copyZeroPadded(mem, mo, f.input, srcOff, l)
			case CODECOPY:
				copyZeroPadded(mem, mo, f.code, srcOff, l)
			default: // strict bounds per EIP-211
				so, ok := asMemParam(srcOff)
				if !ok || so+l > uint64(len(f.returnData)) {
					return nil, ErrReturnDataOutOfBounds
				}
				mem.Set(mo, f.returnData[so:so+l])
			}
			f.pc++

		case EXTCODESIZE:
			if err := st.check(op); err != nil {
				return nil, err
			}
			if !f.useGas(GasExtCode) {
				return nil, ErrOutOfGas
			}
			a := st.peek(0)
			*a = uint256.NewUint64(uint64(e.State.GetCodeSize(wordToAddress(*a))))
			f.pc++

		case EXTCODEHASH:
			if err := st.check(op); err != nil {
				return nil, err
			}
			if !f.useGas(GasExtCodeHash) {
				return nil, ErrOutOfGas
			}
			a := st.peek(0)
			h := e.State.GetCodeHash(wordToAddress(*a))
			*a = uint256.SetBytes(h[:])
			f.pc++

		case EXTCODECOPY:
			if err := st.check(op); err != nil {
				return nil, err
			}
			a, memOff, srcOff, length := st.pop(), st.pop(), st.pop(), st.pop()
			mo, ok1 := asMemParam(memOff)
			l, ok2 := asMemParam(length)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasExtCode + copyGas(l) + memoryExpansionGas(mem, mo, l)) {
				return nil, ErrOutOfGas
			}
			copyZeroPadded(mem, mo, e.State.GetCode(wordToAddress(a)), srcOff, l)
			f.pc++

		// ---- stack / memory / storage ----
		case POP:
			if err := f.charge(GasBase, op); err != nil {
				return nil, err
			}
			st.pop()
			f.pc++

		case MLOAD:
			if err := st.check(op); err != nil {
				return nil, err
			}
			off := st.peek(0)
			o, ok := asMemParam(*off)
			if !ok {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + memoryExpansionGas(mem, o, 32)) {
				return nil, ErrOutOfGas
			}
			*off = mem.GetWord(o)
			f.pc++

		case MSTORE, MSTORE8:
			if err := st.check(op); err != nil {
				return nil, err
			}
			off, val := st.pop(), st.pop()
			size := uint64(32)
			if op == MSTORE8 {
				size = 1
			}
			o, ok := asMemParam(off)
			if !ok {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + memoryExpansionGas(mem, o, size)) {
				return nil, ErrOutOfGas
			}
			if op == MSTORE {
				mem.SetWord(o, val)
			} else {
				mem.SetByte(o, byte(val.Uint64()))
			}
			f.pc++

		case SLOAD:
			if err := f.charge(GasSload, op); err != nil {
				return nil, err
			}
			key := st.peek(0)
			*key = e.State.GetState(f.contract, ethtypes.Hash(key.Bytes32()))
			f.pc++

		case SSTORE:
			if f.static {
				return nil, ErrWriteProtection
			}
			if err := st.check(op); err != nil {
				return nil, err
			}
			key, val := st.pop(), st.pop()
			slot := ethtypes.Hash(key.Bytes32())
			gas, refundAdd, refundSub := e.sstoreGas(f.contract, slot, val)
			if !f.useGas(gas) {
				return nil, ErrOutOfGas
			}
			if refundAdd > 0 {
				e.State.AddRefund(refundAdd)
			}
			if refundSub > 0 {
				e.State.SubRefund(refundSub)
			}
			e.State.SetState(f.contract, slot, val)
			f.pc++

		case JUMP:
			if err := f.charge(GasMid, op); err != nil {
				return nil, err
			}
			dst := st.pop()
			if !dst.IsUint64() || !f.jumpdests.has(dst.Uint64()) {
				return nil, ErrInvalidJump
			}
			f.pc = dst.Uint64()

		case JUMPI:
			if err := f.charge(GasHigh, op); err != nil {
				return nil, err
			}
			dst, cond := st.pop(), st.pop()
			if cond.IsZero() {
				f.pc++
				continue
			}
			if !dst.IsUint64() || !f.jumpdests.has(dst.Uint64()) {
				return nil, ErrInvalidJump
			}
			f.pc = dst.Uint64()

		case JUMPDEST:
			if !f.useGas(GasJumpdest) {
				return nil, ErrOutOfGas
			}
			f.pc++

		case PUSH1, PUSH2, PUSH3, PUSH4, PUSH5, PUSH6, PUSH7, PUSH8, PUSH9, PUSH10, PUSH11,
			PUSH12, PUSH13, PUSH14, PUSH15, PUSH16, PUSH17, PUSH18, PUSH19, PUSH20, PUSH21, PUSH22,
			PUSH23, PUSH24, PUSH25, PUSH26, PUSH27, PUSH28, PUSH29, PUSH30, PUSH31, PUSH32:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			n := uint64(op-PUSH1) + 1
			st.push(immediate(f.code, f.pc+1, n))
			f.pc += n + 1

		case DUP1, DUP2, DUP3, DUP4, DUP5, DUP6, DUP7, DUP8, DUP9, DUP10, DUP11, DUP12, DUP13, DUP14, DUP15, DUP16:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			st.dup(int(op-DUP1) + 1)
			f.pc++

		case SWAP1, SWAP2, SWAP3, SWAP4, SWAP5, SWAP6, SWAP7, SWAP8, SWAP9, SWAP10, SWAP11, SWAP12, SWAP13, SWAP14, SWAP15, SWAP16:
			if err := f.charge(GasVeryLow, op); err != nil {
				return nil, err
			}
			st.swap(int(op-SWAP1) + 1)
			f.pc++

		case LOG0, LOG1, LOG2, LOG3, LOG4:
			if f.static {
				return nil, ErrWriteProtection
			}
			// The range is checked before the topics are counted, and
			// LOG0's stack effect is the range alone.
			if err := st.check(LOG0); err != nil {
				return nil, err
			}
			o, ok1 := asMemParam(*st.peek(0))
			s, ok2 := asMemParam(*st.peek(1))
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if err := st.check(op); err != nil {
				return nil, err
			}
			st.pop()
			st.pop()
			topics := make([]ethtypes.Hash, op-LOG0)
			for i := range topics {
				topics[i] = ethtypes.Hash(st.pop().Bytes32())
			}
			cost := uint64(GasLog) + uint64(len(topics))*GasLogTopic + GasLogByte*s +
				memoryExpansionGas(mem, o, s)
			if !f.useGas(cost) {
				return nil, ErrOutOfGas
			}
			e.State.AddLog(&ethtypes.Log{
				Address:     f.contract,
				Topics:      topics,
				Data:        mem.GetCopy(o, s),
				BlockNumber: e.BlockNumber,
			})
			f.pc++

		// ---- calls / creation / termination ----
		case CREATE, CREATE2:
			if f.static {
				return nil, ErrWriteProtection
			}
			if err := e.opCreate(f, op); err != nil {
				return nil, err
			}
			f.pc++

		case CALL, CALLCODE, DELEGATECALL, STATICCALL:
			if err := e.opCall(f, op); err != nil {
				return nil, err
			}
			f.pc++

		case RETURN, REVERT:
			if err := st.check(op); err != nil {
				return nil, err
			}
			o, ok1 := asMemParam(st.pop())
			s, ok2 := asMemParam(st.pop())
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(memoryExpansionGas(mem, o, s)) {
				return nil, ErrOutOfGas
			}
			out := mem.GetCopy(o, s)
			if op == REVERT {
				return out, ErrExecutionReverted
			}
			return out, nil

		case SELFDESTRUCT:
			if f.static {
				return nil, ErrWriteProtection
			}
			if err := st.check(op); err != nil {
				return nil, err
			}
			beneficiary := wordToAddress(st.pop())
			cost := uint64(GasSelfdestruct)
			bal := e.State.GetBalance(f.contract)
			if !bal.IsZero() && !e.State.Exist(beneficiary) {
				cost += GasNewAccount
			}
			if !f.useGas(cost) {
				return nil, ErrOutOfGas
			}
			if !e.State.HasSelfDestructed(f.contract) {
				e.State.AddRefund(RefundSelfdestruct)
			}
			e.State.AddBalance(beneficiary, bal)
			e.State.SelfDestruct(f.contract)
			return nil, nil

		default: // INVALID and every undefined byte
			return nil, ErrInvalidOpcode
		}
		if err != nil {
			return nil, err
		}
	}
}

// charge takes op's gas, then checks its stack: the order of the ops that
// pay before they touch the stack.
func (f *frame) charge(gas uint64, op OpCode) error {
	if !f.useGas(gas) {
		return ErrOutOfGas
	}
	return f.stack.check(op)
}

// pushEnv is the shared body of the ops that push one value from the
// environment for GasBase.
func (f *frame) pushEnv(op OpCode, v uint256.Int) error {
	if err := f.charge(GasBase, op); err != nil {
		return err
	}
	f.stack.push(v)
	f.pc++
	return nil
}

// immediate decodes the n-byte PUSH immediate at code[start:] straight
// into a word; an immediate cut short by the end of the code reads as
// zeros on the right.
func immediate(code []byte, start, n uint64) uint256.Int {
	var imm []byte
	if start < uint64(len(code)) {
		imm = code[start:min(start+n, uint64(len(code)))]
	}
	if n <= 8 {
		var v uint64
		for _, b := range imm {
			v = v<<8 | uint64(b)
		}
		return uint256.NewUint64(v << (8 * (n - uint64(len(imm)))))
	}
	var w [32]byte
	copy(w[32-n:], imm)
	return uint256.SetBytes(w[:])
}

func boolWord(b bool) uint256.Int {
	if b {
		return uint256.One
	}
	return uint256.Zero
}

func wordToAddress(v uint256.Int) ethtypes.Address {
	b := v.Bytes32()
	return ethtypes.BytesToAddress(b[12:])
}

// copyZeroPadded copies src[srcOff:srcOff+l] into memory at mo,
// zero-filling beyond the end of src.
func copyZeroPadded(mem *Memory, mo uint64, src []byte, srcOff uint256.Int, l uint64) {
	if l == 0 {
		return
	}
	out := make([]byte, l)
	if srcOff.IsUint64() && srcOff.Uint64() < uint64(len(src)) {
		copy(out, src[srcOff.Uint64():])
	}
	mem.Set(mo, out)
}

// dataWord reads the 32-byte word at off in data, zero past its end.
func dataWord(data []byte, off uint256.Int) uint256.Int {
	var w [32]byte
	if off.IsUint64() && off.Uint64() < uint64(len(data)) {
		copy(w[:], data[off.Uint64():])
	}
	return uint256.SetBytes(w[:])
}

// opCreate implements CREATE and CREATE2 from within a frame.
func (e *EVM) opCreate(f *frame, op OpCode) error {
	st := &f.stack
	if err := st.check(op); err != nil {
		return err
	}
	value, off, size := st.pop(), st.pop(), st.pop()
	var salt uint256.Int
	if op == CREATE2 {
		salt = st.pop()
	}
	o, ok1 := asMemParam(off)
	s, ok2 := asMemParam(size)
	if !ok1 || !ok2 {
		return ErrOutOfGas
	}
	cost := uint64(GasCreate) + memoryExpansionGas(&f.mem, o, s)
	if op == CREATE2 {
		cost += GasSha3Word * ((s + 31) / 32)
	}
	if !f.useGas(cost) {
		return ErrOutOfGas
	}
	initCode := f.mem.GetCopy(o, s)

	// All-but-one-64th rule.
	childGas := f.gas - f.gas/64
	f.gas -= childGas

	var ret []byte
	var addr ethtypes.Address
	var left uint64
	var cErr error
	if op == CREATE2 {
		ret, addr, left, cErr = e.Create2(f.contract, initCode, childGas, value, salt)
	} else {
		ret, addr, left, cErr = e.Create(f.contract, initCode, childGas, value)
	}
	f.gas += left
	switch {
	case cErr == nil:
		f.returnData = nil
		st.push(uint256.SetBytes(addr[:]))
	case cErr == ErrExecutionReverted: // failure pushes zero; REVERT keeps its payload
		f.returnData = ret
		st.push(uint256.Zero)
	default:
		f.returnData = nil
		st.push(uint256.Zero)
	}
	return nil
}

// opCall implements the four call variants from within a frame.
func (e *EVM) opCall(f *frame, op OpCode) error {
	st := &f.stack
	if err := st.check(op); err != nil {
		return err
	}
	gasReq, target := st.pop(), st.pop()
	var value uint256.Int
	if op == CALL || op == CALLCODE {
		value = st.pop()
	}
	inOff, inSize, outOff, outSize := st.pop(), st.pop(), st.pop(), st.pop()

	if op == CALL && f.static && !value.IsZero() {
		return ErrWriteProtection
	}

	io, ok1 := asMemParam(inOff)
	is, ok2 := asMemParam(inSize)
	oo, ok3 := asMemParam(outOff)
	os, ok4 := asMemParam(outSize)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return ErrOutOfGas
	}

	to := wordToAddress(target)
	cost := uint64(GasCall)
	cost += memoryExpansionGas(&f.mem, io, is)
	// Memory may expand twice; compute output expansion after charging input.
	if op == CALL || op == CALLCODE {
		if !value.IsZero() {
			cost += GasCallValue
			if op == CALL && !e.State.Exist(to) {
				cost += GasNewAccount
			}
		}
	}
	if !f.useGas(cost) {
		return ErrOutOfGas
	}
	if is > 0 { // an empty input reads no memory, wherever it points
		f.mem.grow(io + is)
	}
	if outGas := memoryExpansionGas(&f.mem, oo, os); outGas > 0 {
		if !f.useGas(outGas) {
			return ErrOutOfGas
		}
		f.mem.grow(oo + os)
	}

	// 63/64 rule.
	available := f.gas - f.gas/64
	childGas := available
	if gasReq.IsUint64() && gasReq.Uint64() < available {
		childGas = gasReq.Uint64()
	}
	f.gas -= childGas
	if (op == CALL || op == CALLCODE) && !value.IsZero() {
		childGas += GasCallStipend
	}

	ret, left, cErr := e.call(op, f, f.contract, to, f.mem.GetCopy(io, is), childGas, value)
	f.gas += left
	f.returnData = ret

	if len(ret) > 0 {
		n := os
		if uint64(len(ret)) < n {
			n = uint64(len(ret))
		}
		f.mem.Set(oo, ret[:n])
	}
	st.push(boolWord(cErr == nil))
	return nil
}
