package evm

import (
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// The stack operations the reference loop was written against: every
// pop and push checks the height itself.

func refPop(s *Stack) (uint256.Int, error) {
	if len(s.data) == 0 {
		return uint256.Zero, ErrStackUnderflow
	}
	v := s.data[len(s.data)-1]
	s.data = s.data[:len(s.data)-1]
	return v, nil
}

func refPush(s *Stack, v uint256.Int) error {
	if len(s.data) >= StackLimit {
		return ErrStackOverflow
	}
	s.data = append(s.data, v)
	return nil
}

func refDup(s *Stack, n int) error {
	if n-1 >= len(s.data) {
		return ErrStackUnderflow
	}
	return refPush(s, s.data[len(s.data)-n])
}

func refSwap(s *Stack, n int) error {
	if n >= len(s.data) {
		return ErrStackUnderflow
	}
	top := len(s.data) - 1
	s.data[top], s.data[top-n] = s.data[top-n], s.data[top]
	return nil
}

// execReference is the interpreter loop as it stood before the jump-table
// dispatch: a tagless switch, error-checked pop/push closures and one
// stack check per pop. It is frozen here as FuzzExec's oracle.
func (e *EVM) execReference(f *frame) ([]byte, error) {
	// pop2/pop3 reduce boilerplate for fixed-arity ops.
	pop := func() (uint256.Int, error) { return refPop(&f.stack) }
	push := func(v uint256.Int) error { return refPush(&f.stack, v) }

	// Step accounting stays a local counter in the hot loop; it is
	// folded into the EVM-wide accumulator once per frame.
	var steps uint64
	defer func() { e.steps += steps }()

	for {
		steps++
		var op OpCode
		if f.pc < uint64(len(f.code)) {
			op = OpCode(f.code[f.pc])
		} else {
			op = STOP
		}
		if e.Tracer != nil {
			e.Tracer.CaptureStep(e.depth, f.pc, op, f.gas, f.stack.Len())
		}

		switch {
		// ---- arithmetic ----
		case op == STOP:
			return nil, nil

		case op == ADD, op == SUB, op == MUL, op == DIV, op == SDIV,
			op == MOD, op == SMOD, op == LT, op == GT, op == SLT, op == SGT,
			op == EQ, op == AND, op == OR, op == XOR, op == BYTE,
			op == SHL, op == SHR, op == SAR, op == SIGNEXTEND:
			cost := uint64(GasVeryLow)
			if op == DIV || op == SDIV || op == MOD || op == SMOD || op == SIGNEXTEND {
				cost = GasLow
			}
			if !f.useGas(cost) {
				return nil, ErrOutOfGas
			}
			a, err := pop()
			if err != nil {
				return nil, err
			}
			b, err := pop()
			if err != nil {
				return nil, err
			}
			var r uint256.Int
			switch op {
			case ADD:
				r = a.Add(b)
			case SUB:
				r = a.Sub(b)
			case MUL:
				r = a.Mul(b)
			case DIV:
				r = a.Div(b)
			case SDIV:
				r = a.SDiv(b)
			case MOD:
				r = a.Mod(b)
			case SMOD:
				r = a.SMod(b)
			case LT:
				r = boolWord(a.Lt(b))
			case GT:
				r = boolWord(a.Gt(b))
			case SLT:
				r = boolWord(a.Slt(b))
			case SGT:
				r = boolWord(a.Sgt(b))
			case EQ:
				r = boolWord(a.Eq(b))
			case AND:
				r = a.And(b)
			case OR:
				r = a.Or(b)
			case XOR:
				r = a.Xor(b)
			case BYTE:
				r = b.Byte(a)
			case SHL:
				r = b.Shl(a)
			case SHR:
				r = b.Shr(a)
			case SAR:
				r = b.Sar(a)
			case SIGNEXTEND:
				r = b.SignExtend(a)
			}
			if err := push(r); err != nil {
				return nil, err
			}
			f.pc++

		case op == ADDMOD, op == MULMOD:
			if !f.useGas(GasMid) {
				return nil, ErrOutOfGas
			}
			a, err := pop()
			if err != nil {
				return nil, err
			}
			b, err := pop()
			if err != nil {
				return nil, err
			}
			m, err := pop()
			if err != nil {
				return nil, err
			}
			var r uint256.Int
			if op == ADDMOD {
				r = a.AddMod(b, m)
			} else {
				r = a.MulMod(b, m)
			}
			if err := push(r); err != nil {
				return nil, err
			}
			f.pc++

		case op == EXP:
			base, err := pop()
			if err != nil {
				return nil, err
			}
			exp, err := pop()
			if err != nil {
				return nil, err
			}
			expBytes := uint64((exp.BitLen() + 7) / 8)
			if !f.useGas(GasExp + GasExpByte*expBytes) {
				return nil, ErrOutOfGas
			}
			if err := push(base.Exp(exp)); err != nil {
				return nil, err
			}
			f.pc++

		case op == ISZERO, op == NOT:
			if !f.useGas(GasVeryLow) {
				return nil, ErrOutOfGas
			}
			a, err := pop()
			if err != nil {
				return nil, err
			}
			var r uint256.Int
			if op == ISZERO {
				r = boolWord(a.IsZero())
			} else {
				r = a.Not()
			}
			if err := push(r); err != nil {
				return nil, err
			}
			f.pc++

		case op == SHA3:
			off, err := pop()
			if err != nil {
				return nil, err
			}
			size, err := pop()
			if err != nil {
				return nil, err
			}
			o, ok1 := asMemParam(off)
			s, ok2 := asMemParam(size)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			words := (s + 31) / 32
			if !f.useGas(GasSha3 + GasSha3Word*words + memoryExpansionGas(&f.mem, o, s)) {
				return nil, ErrOutOfGas
			}
			h := ethtypes.Keccak256(f.mem.View(o, s))
			if err := push(uint256.SetBytes(h[:])); err != nil {
				return nil, err
			}
			f.pc++

		// ---- environment ----
		case op == ADDRESS:
			if err := pushEnvReference(f, push, uint256.SetBytes(f.contract[:])); err != nil {
				return nil, err
			}

		case op == BALANCE:
			a, err := pop()
			if err != nil {
				return nil, err
			}
			if !f.useGas(GasBalance) {
				return nil, ErrOutOfGas
			}
			addr := wordToAddress(a)
			if err := push(e.State.GetBalance(addr)); err != nil {
				return nil, err
			}
			f.pc++

		case op == SELFBALANCE:
			if !f.useGas(GasLow) {
				return nil, ErrOutOfGas
			}
			if err := push(e.State.GetBalance(f.contract)); err != nil {
				return nil, err
			}
			f.pc++

		case op == ORIGIN:
			if err := pushEnvReference(f, push, uint256.SetBytes(e.Origin[:])); err != nil {
				return nil, err
			}
		case op == CALLER:
			if err := pushEnvReference(f, push, uint256.SetBytes(f.caller[:])); err != nil {
				return nil, err
			}
		case op == CALLVALUE:
			if err := pushEnvReference(f, push, f.value); err != nil {
				return nil, err
			}
		case op == GASPRICE:
			if err := pushEnvReference(f, push, e.GasPrice); err != nil {
				return nil, err
			}
		case op == COINBASE:
			if err := pushEnvReference(f, push, uint256.SetBytes(e.Coinbase[:])); err != nil {
				return nil, err
			}
		case op == TIMESTAMP:
			if err := pushEnvReference(f, push, uint256.NewUint64(e.Time)); err != nil {
				return nil, err
			}
		case op == NUMBER:
			if err := pushEnvReference(f, push, uint256.NewUint64(e.BlockNumber)); err != nil {
				return nil, err
			}
		case op == DIFFICULTY:
			if err := pushEnvReference(f, push, uint256.Zero); err != nil {
				return nil, err
			}
		case op == GASLIMIT:
			if err := pushEnvReference(f, push, uint256.NewUint64(e.GasLimit)); err != nil {
				return nil, err
			}
		case op == CHAINID:
			if err := pushEnvReference(f, push, uint256.NewUint64(e.ChainID)); err != nil {
				return nil, err
			}

		case op == BLOCKHASH:
			if !f.useGas(GasBlockhash) {
				return nil, ErrOutOfGas
			}
			n, err := pop()
			if err != nil {
				return nil, err
			}
			var h ethtypes.Hash
			if e.GetBlockHash != nil && n.IsUint64() {
				h = e.GetBlockHash(n.Uint64())
			}
			if err := push(uint256.SetBytes(h[:])); err != nil {
				return nil, err
			}
			f.pc++

		case op == CALLDATALOAD:
			if !f.useGas(GasVeryLow) {
				return nil, ErrOutOfGas
			}
			off, err := pop()
			if err != nil {
				return nil, err
			}
			if err := push(dataWord(f.input, off)); err != nil {
				return nil, err
			}
			f.pc++

		case op == CALLDATASIZE:
			if err := pushEnvReference(f, push, uint256.NewUint64(uint64(len(f.input)))); err != nil {
				return nil, err
			}
		case op == CODESIZE:
			if err := pushEnvReference(f, push, uint256.NewUint64(uint64(len(f.code)))); err != nil {
				return nil, err
			}
		case op == RETURNDATASIZE:
			if err := pushEnvReference(f, push, uint256.NewUint64(uint64(len(f.returnData)))); err != nil {
				return nil, err
			}

		case op == CALLDATACOPY, op == CODECOPY, op == RETURNDATACOPY:
			memOff, err := pop()
			if err != nil {
				return nil, err
			}
			srcOff, err := pop()
			if err != nil {
				return nil, err
			}
			length, err := pop()
			if err != nil {
				return nil, err
			}
			mo, ok1 := asMemParam(memOff)
			l, ok2 := asMemParam(length)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + copyGas(l) + memoryExpansionGas(&f.mem, mo, l)) {
				return nil, ErrOutOfGas
			}
			var src []byte
			switch op {
			case CALLDATACOPY:
				src = f.input
			case CODECOPY:
				src = f.code
			case RETURNDATACOPY:
				// Strict bounds per EIP-211.
				so, ok := asMemParam(srcOff)
				if !ok || so+l > uint64(len(f.returnData)) {
					return nil, ErrReturnDataOutOfBounds
				}
				f.mem.Set(mo, f.returnData[so:so+l])
				f.pc++
				continue
			}
			copyZeroPadded(&f.mem, mo, src, srcOff, l)
			f.pc++

		case op == EXTCODESIZE:
			a, err := pop()
			if err != nil {
				return nil, err
			}
			if !f.useGas(GasExtCode) {
				return nil, ErrOutOfGas
			}
			if err := push(uint256.NewUint64(uint64(e.State.GetCodeSize(wordToAddress(a))))); err != nil {
				return nil, err
			}
			f.pc++

		case op == EXTCODEHASH:
			a, err := pop()
			if err != nil {
				return nil, err
			}
			if !f.useGas(GasExtCodeHash) {
				return nil, ErrOutOfGas
			}
			h := e.State.GetCodeHash(wordToAddress(a))
			if err := push(uint256.SetBytes(h[:])); err != nil {
				return nil, err
			}
			f.pc++

		case op == EXTCODECOPY:
			a, err := pop()
			if err != nil {
				return nil, err
			}
			memOff, err := pop()
			if err != nil {
				return nil, err
			}
			srcOff, err := pop()
			if err != nil {
				return nil, err
			}
			length, err := pop()
			if err != nil {
				return nil, err
			}
			mo, ok1 := asMemParam(memOff)
			l, ok2 := asMemParam(length)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasExtCode + copyGas(l) + memoryExpansionGas(&f.mem, mo, l)) {
				return nil, ErrOutOfGas
			}
			copyZeroPadded(&f.mem, mo, e.State.GetCode(wordToAddress(a)), srcOff, l)
			f.pc++

		// ---- stack / memory / storage ----
		case op == POP:
			if !f.useGas(GasBase) {
				return nil, ErrOutOfGas
			}
			if _, err := pop(); err != nil {
				return nil, err
			}
			f.pc++

		case op == MLOAD:
			off, err := pop()
			if err != nil {
				return nil, err
			}
			o, ok := asMemParam(off)
			if !ok {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + memoryExpansionGas(&f.mem, o, 32)) {
				return nil, ErrOutOfGas
			}
			if err := push(f.mem.GetWord(o)); err != nil {
				return nil, err
			}
			f.pc++

		case op == MSTORE:
			off, err := pop()
			if err != nil {
				return nil, err
			}
			val, err := pop()
			if err != nil {
				return nil, err
			}
			o, ok := asMemParam(off)
			if !ok {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + memoryExpansionGas(&f.mem, o, 32)) {
				return nil, ErrOutOfGas
			}
			f.mem.SetWord(o, val)
			f.pc++

		case op == MSTORE8:
			off, err := pop()
			if err != nil {
				return nil, err
			}
			val, err := pop()
			if err != nil {
				return nil, err
			}
			o, ok := asMemParam(off)
			if !ok {
				return nil, ErrOutOfGas
			}
			if !f.useGas(GasVeryLow + memoryExpansionGas(&f.mem, o, 1)) {
				return nil, ErrOutOfGas
			}
			f.mem.SetByte(o, byte(val.Uint64()))
			f.pc++

		case op == SLOAD:
			if !f.useGas(GasSload) {
				return nil, ErrOutOfGas
			}
			key, err := pop()
			if err != nil {
				return nil, err
			}
			slot := ethtypes.Hash(key.Bytes32())
			if err := push(e.State.GetState(f.contract, slot)); err != nil {
				return nil, err
			}
			f.pc++

		case op == SSTORE:
			if f.static {
				return nil, ErrWriteProtection
			}
			key, err := pop()
			if err != nil {
				return nil, err
			}
			val, err := pop()
			if err != nil {
				return nil, err
			}
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

		case op == JUMP:
			if !f.useGas(GasMid) {
				return nil, ErrOutOfGas
			}
			dst, err := pop()
			if err != nil {
				return nil, err
			}
			if !dst.IsUint64() || !f.jumpdests.has(dst.Uint64()) {
				return nil, ErrInvalidJump
			}
			f.pc = dst.Uint64()

		case op == JUMPI:
			if !f.useGas(GasHigh) {
				return nil, ErrOutOfGas
			}
			dst, err := pop()
			if err != nil {
				return nil, err
			}
			cond, err := pop()
			if err != nil {
				return nil, err
			}
			if cond.IsZero() {
				f.pc++
				continue
			}
			if !dst.IsUint64() || !f.jumpdests.has(dst.Uint64()) {
				return nil, ErrInvalidJump
			}
			f.pc = dst.Uint64()

		case op == PC:
			if err := pushEnvReference(f, push, uint256.NewUint64(f.pc)); err != nil {
				return nil, err
			}
		case op == MSIZE:
			if err := pushEnvReference(f, push, uint256.NewUint64(uint64(f.mem.Len()))); err != nil {
				return nil, err
			}
		case op == GAS:
			if !f.useGas(GasBase) {
				return nil, ErrOutOfGas
			}
			if err := push(uint256.NewUint64(f.gas)); err != nil {
				return nil, err
			}
			f.pc++

		case op == JUMPDEST:
			if !f.useGas(GasJumpdest) {
				return nil, ErrOutOfGas
			}
			f.pc++

		case op >= PUSH1 && op <= PUSH32:
			if !f.useGas(GasVeryLow) {
				return nil, ErrOutOfGas
			}
			n := uint64(op-PUSH1) + 1
			// The destination bounds the copy to n bytes; an immediate cut
			// short by end-of-code stays zero on the right.
			var buf [32]byte
			if start := f.pc + 1; start < uint64(len(f.code)) {
				copy(buf[32-n:], f.code[start:])
			}
			if err := push(uint256.SetBytes(buf[:])); err != nil {
				return nil, err
			}
			f.pc += n + 1

		case op >= DUP1 && op <= DUP16:
			if !f.useGas(GasVeryLow) {
				return nil, ErrOutOfGas
			}
			if err := refDup(&f.stack, int(op-DUP1)+1); err != nil {
				return nil, err
			}
			f.pc++

		case op >= SWAP1 && op <= SWAP16:
			if !f.useGas(GasVeryLow) {
				return nil, ErrOutOfGas
			}
			if err := refSwap(&f.stack, int(op-SWAP1)+1); err != nil {
				return nil, err
			}
			f.pc++

		case op >= LOG0 && op <= LOG4:
			if f.static {
				return nil, ErrWriteProtection
			}
			topicCount := int(op - LOG0)
			off, err := pop()
			if err != nil {
				return nil, err
			}
			size, err := pop()
			if err != nil {
				return nil, err
			}
			o, ok1 := asMemParam(off)
			s, ok2 := asMemParam(size)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			topics := make([]ethtypes.Hash, topicCount)
			for i := 0; i < topicCount; i++ {
				t, err := pop()
				if err != nil {
					return nil, err
				}
				topics[i] = ethtypes.Hash(t.Bytes32())
			}
			cost := uint64(GasLog) + uint64(topicCount)*GasLogTopic + GasLogByte*s +
				memoryExpansionGas(&f.mem, o, s)
			if !f.useGas(cost) {
				return nil, ErrOutOfGas
			}
			e.State.AddLog(&ethtypes.Log{
				Address:     f.contract,
				Topics:      topics,
				Data:        f.mem.GetCopy(o, s),
				BlockNumber: e.BlockNumber,
			})
			f.pc++

		// ---- calls / creation / termination ----
		case op == CREATE, op == CREATE2:
			if f.static {
				return nil, ErrWriteProtection
			}
			ret, err := e.opCreateReference(f, op)
			if err != nil {
				return nil, err
			}
			_ = ret
			f.pc++

		case op == CALL, op == CALLCODE, op == DELEGATECALL, op == STATICCALL:
			if err := e.opCallReference(f, op); err != nil {
				return nil, err
			}
			f.pc++

		case op == RETURN, op == REVERT:
			off, err := pop()
			if err != nil {
				return nil, err
			}
			size, err := pop()
			if err != nil {
				return nil, err
			}
			o, ok1 := asMemParam(off)
			s, ok2 := asMemParam(size)
			if !ok1 || !ok2 {
				return nil, ErrOutOfGas
			}
			if !f.useGas(memoryExpansionGas(&f.mem, o, s)) {
				return nil, ErrOutOfGas
			}
			out := f.mem.GetCopy(o, s)
			if op == REVERT {
				return out, ErrExecutionReverted
			}
			return out, nil

		case op == SELFDESTRUCT:
			if f.static {
				return nil, ErrWriteProtection
			}
			ben, err := pop()
			if err != nil {
				return nil, err
			}
			beneficiary := wordToAddress(ben)
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

		case op == INVALID:
			return nil, ErrInvalidOpcode

		default:
			return nil, ErrInvalidOpcode
		}
	}
}

// pushEnvReference is the shared body of the cheap environment-reading opcodes.
func pushEnvReference(f *frame, push func(uint256.Int) error, v uint256.Int) error {
	if !f.useGas(GasBase) {
		return ErrOutOfGas
	}
	if err := push(v); err != nil {
		return err
	}
	f.pc++
	return nil
}

// opCreateReference implements CREATE and CREATE2 from within a frame.
func (e *EVM) opCreateReference(f *frame, op OpCode) ([]byte, error) {
	value, err := refPop(&f.stack)
	if err != nil {
		return nil, err
	}
	off, err := refPop(&f.stack)
	if err != nil {
		return nil, err
	}
	size, err := refPop(&f.stack)
	if err != nil {
		return nil, err
	}
	var salt uint256.Int
	if op == CREATE2 {
		if salt, err = refPop(&f.stack); err != nil {
			return nil, err
		}
	}
	o, ok1 := asMemParam(off)
	s, ok2 := asMemParam(size)
	if !ok1 || !ok2 {
		return nil, ErrOutOfGas
	}
	cost := uint64(GasCreate) + memoryExpansionGas(&f.mem, o, s)
	if op == CREATE2 {
		cost += GasSha3Word * ((s + 31) / 32)
	}
	if !f.useGas(cost) {
		return nil, ErrOutOfGas
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
	if cErr == nil {
		f.returnData = nil
		return ret, refPush(&f.stack, uint256.SetBytes(addr[:]))
	}
	// Failure pushes zero; REVERT keeps payload in returnData.
	if cErr == ErrExecutionReverted {
		f.returnData = ret
	} else {
		f.returnData = nil
	}
	return nil, refPush(&f.stack, uint256.Zero)
}

// opCallReference implements the four call variants from within a frame.
func (e *EVM) opCallReference(f *frame, op OpCode) error {
	gasReq, err := refPop(&f.stack)
	if err != nil {
		return err
	}
	target, err := refPop(&f.stack)
	if err != nil {
		return err
	}
	var value uint256.Int
	if op == CALL || op == CALLCODE {
		if value, err = refPop(&f.stack); err != nil {
			return err
		}
	}
	inOff, err := refPop(&f.stack)
	if err != nil {
		return err
	}
	inSize, err := refPop(&f.stack)
	if err != nil {
		return err
	}
	outOff, err := refPop(&f.stack)
	if err != nil {
		return err
	}
	outSize, err := refPop(&f.stack)
	if err != nil {
		return err
	}

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
	if cErr == nil {
		return refPush(&f.stack, uint256.One)
	}
	return refPush(&f.stack, uint256.Zero)
}
