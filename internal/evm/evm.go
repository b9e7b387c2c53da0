// Package evm implements the Ethereum Virtual Machine: a gas-metered
// stack machine executing contract bytecode against the journaled world
// state, with the full call/create frame semantics (CALL, DELEGATECALL,
// STATICCALL, CREATE/CREATE2), event logs and revert handling that the
// legal-contract system above it relies on.
package evm

import (
	"errors"

	"legalchain/internal/ethtypes"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

// Execution errors. ErrExecutionReverted carries its payload via the
// returned ret bytes; all others consume the frame's remaining gas.
var (
	ErrOutOfGas                 = errors.New("evm: out of gas")
	ErrExecutionReverted        = errors.New("evm: execution reverted")
	ErrInvalidJump              = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode            = errors.New("evm: invalid opcode")
	ErrWriteProtection          = errors.New("evm: write protection (static call)")
	ErrInsufficientBalance      = errors.New("evm: insufficient balance for transfer")
	ErrMaxDepth                 = errors.New("evm: max call depth exceeded")
	ErrCodeSizeExceeded         = errors.New("evm: contract code size limit exceeded")
	ErrReturnDataOutOfBounds    = errors.New("evm: return data access out of bounds")
	ErrContractAddressCollision = errors.New("evm: contract address collision")
)

// Context carries block- and transaction-level data into execution.
type Context struct {
	ChainID     uint64
	BlockNumber uint64
	Time        uint64
	Coinbase    ethtypes.Address
	GasLimit    uint64
	GasPrice    uint256.Int
	Origin      ethtypes.Address
	// GetBlockHash resolves BLOCKHASH; may be nil (returns zero hashes).
	GetBlockHash func(uint64) ethtypes.Hash
}

// EVM executes bytecode in a given context against a StateDB.
type EVM struct {
	Context
	State *state.StateDB
	// Tracer, when non-nil, observes every executed instruction
	// (debug_traceTransaction support). Leave nil for full speed.
	Tracer Tracer
	depth  int
	// steps and frames accumulate interpreter iterations and bytecode
	// frames across the current outermost call, for the metrics;
	// lastSteps keeps the step total of the last outermost call (Steps).
	steps, frames, lastSteps uint64
	// interp, when non-nil, runs every frame in place of exec. Only
	// tests set it, to run a reference loop under the same frame code.
	interp func(frame) (frame, []byte, error)
	// bufs[d] is the stack array and memory buffer of the frames at
	// depth d, kept between them (runFrame). Memory leaves a frame only
	// through Memory.GetCopy, so nothing outside the frame sees a buffer
	// reused.
	bufs []frameBuffers
}

// frameBuffers is one call depth's stack array and memory buffer,
// emptied, between two frames.
type frameBuffers struct {
	stack []uint256.Int
	mem   []byte
}

// keptMemory bounds the memory buffer a depth keeps after its frame:
// one frame that grew memory to megabytes must not pin them.
const keptMemory = 64 << 10

// New returns an EVM bound to ctx and st.
func New(ctx Context, st *state.StateDB) *EVM {
	return &EVM{Context: ctx, State: st}
}

// Reset rebinds e to ctx and st for another message, leaving it as New
// would have made it except that each depth's stack array and memory
// buffer are kept: a reused EVM runs a frame without allocating either.
func (e *EVM) Reset(ctx Context, st *state.StateDB) {
	e.Context, e.State, e.Tracer = ctx, st, nil
	e.depth, e.steps, e.frames, e.lastSteps = 0, 0, 0, 0
}

// Steps returns the interpreter steps the last outermost call or create
// executed, over every frame it opened: the number of CaptureStep calls
// a tracer would have seen. It is 0 for a message that ran no code.
func (e *EVM) Steps() uint64 { return e.lastSteps }

// frame is one call frame.
type frame struct {
	contract ethtypes.Address // storage & event context
	caller   ethtypes.Address
	code     []byte
	input    []byte
	value    uint256.Int
	gas      uint64
	static   bool

	stack      Stack
	mem        Memory
	pc         uint64
	returnData []byte
	jumpdests  jumpdestBitmap
}

func (f *frame) useGas(amount uint64) bool {
	if f.gas < amount {
		f.gas = 0
		return false
	}
	f.gas -= amount
	return true
}

// canTransfer checks the sender has the funds.
func (e *EVM) canTransfer(from ethtypes.Address, amount uint256.Int) bool {
	return !e.State.GetBalance(from).Lt(amount)
}

// transfer moves value between accounts.
func (e *EVM) transfer(from, to ethtypes.Address, amount uint256.Int) {
	if amount.IsZero() {
		return
	}
	e.State.SubBalance(from, amount)
	e.State.AddBalance(to, amount)
}

// frameTracer returns the installed tracer's FrameTracer extension, or
// nil. The type assertion only runs when a tracer is installed, so the
// untraced path pays a single nil check.
func (e *EVM) frameTracer() FrameTracer {
	if e.Tracer == nil {
		return nil
	}
	ft, _ := e.Tracer.(FrameTracer)
	return ft
}

// Call executes the code at `to` with the given input, transferring
// value from caller. It returns the output, the gas left, and an error
// (ErrExecutionReverted keeps the output as the revert payload).
func (e *EVM) Call(caller, to ethtypes.Address, input []byte, gas uint64, value uint256.Int) ([]byte, uint64, error) {
	return e.call(CALL, nil, caller, to, input, gas, value)
}

// StaticCall executes code with state mutation disabled.
func (e *EVM) StaticCall(caller, to ethtypes.Address, input []byte, gas uint64) ([]byte, uint64, error) {
	return e.call(STATICCALL, nil, caller, to, input, gas, uint256.Zero)
}

// call is the one way into a message frame, for all four CALL kinds.
// parent is the calling frame (nil for a message from outside the EVM),
// caller the account that sends the message and value what it sends;
// the code run is to's. The kind decides the frame's storage context,
// CALLER and CALLVALUE:
//
//	CALL, STATICCALL  (to, caller, value)
//	DELEGATECALL      (parent.contract, parent.caller, parent.value)
//	CALLCODE          (parent.contract, parent.contract, value)
//
// A frame is static when it is a STATICCALL or its parent is static
// (EIP-214), so nothing a static frame calls can write.
func (e *EVM) call(kind OpCode, parent *frame, caller, to ethtypes.Address, input []byte, gas uint64, value uint256.Int) (retOut []byte, gasLeft uint64, retErr error) {
	if e.depth == 0 {
		e.lastSteps = 0
	}
	if ft := e.frameTracer(); ft != nil {
		ft.CaptureEnter(kind, caller, to, input, gas, value)
		defer func() { ft.CaptureExit(retOut, gas-gasLeft, retErr) }()
	}
	if e.depth > CallCreateDepth {
		return nil, gas, ErrMaxDepth
	}
	if !value.IsZero() && !e.canTransfer(caller, value) {
		return nil, gas, ErrInsufficientBalance
	}
	snapshot := e.State.Snapshot()
	if kind == CALL {
		e.transfer(caller, to, value)
	}

	if p, ok := precompiles[to]; ok {
		ret, left, err := runPrecompile(p, input, gas)
		if err != nil {
			e.State.RevertToSnapshot(snapshot)
		}
		return ret, left, err
	}

	code := e.State.GetCode(to)
	if len(code) == 0 {
		return nil, gas, nil
	}
	f := &frame{
		contract: to, caller: caller, code: code, input: input,
		value: value, gas: gas,
		static:    kind == STATICCALL || parent != nil && parent.static,
		jumpdests: e.jumpdestsOf(to, code),
	}
	switch kind {
	case DELEGATECALL:
		f.contract, f.caller, f.value = parent.contract, parent.caller, parent.value
	case CALLCODE:
		f.contract, f.caller = parent.contract, parent.contract
	}
	ret, err := e.runFrame(f, snapshot)
	if e.depth == 0 {
		e.observeOuter(gas, f.gas)
	}
	return ret, f.gas, err
}

// runFrame runs f one level deeper than the current frame, on the
// stack array and memory buffer that depth kept from its last frame. A
// failure reverts the state to snapshot, and any failure but REVERT
// consumes the frame's gas.
func (e *EVM) runFrame(f *frame, snapshot int) ([]byte, error) {
	d := e.depth
	if d == len(e.bufs) {
		e.bufs = append(e.bufs, frameBuffers{stack: newStack().data})
	}
	f.stack.data, f.mem.data = e.bufs[d].stack[:0], e.bufs[d].mem[:0]
	e.frames++
	e.depth++
	ret, err := e.run(f)
	e.depth--
	// Deeper frames may have moved e.bufs: index it afresh.
	e.bufs[d].stack = f.stack.data[:0]
	if cap(f.mem.data) <= keptMemory {
		e.bufs[d].mem = f.mem.data[:0]
	}
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if errors.Is(err, ErrExecutionReverted) {
			mReverts.Inc()
		} else {
			f.gas = 0
		}
	}
	return ret, err
}

// Create deploys a contract: runs the init code and installs its return
// value as the account code at the CREATE address.
func (e *EVM) Create(caller ethtypes.Address, initCode []byte, gas uint64, value uint256.Int) ([]byte, ethtypes.Address, uint64, error) {
	nonce := e.State.GetNonce(caller)
	addr := ethtypes.CreateAddress(caller, nonce)
	return e.create(CREATE, caller, initCode, gas, value, addr)
}

// Create2 deploys at keccak(0xff ++ caller ++ salt ++ keccak(init))[12:].
func (e *EVM) Create2(caller ethtypes.Address, initCode []byte, gas uint64, value uint256.Int, salt uint256.Int) ([]byte, ethtypes.Address, uint64, error) {
	codeHash := ethtypes.Keccak256(initCode)
	saltBytes := salt.Bytes32()
	h := ethtypes.Keccak256([]byte{0xff}, caller[:], saltBytes[:], codeHash[:])
	addr := ethtypes.BytesToAddress(h[12:])
	return e.create(CREATE2, caller, initCode, gas, value, addr)
}

func (e *EVM) create(typ OpCode, caller ethtypes.Address, initCode []byte, gas uint64, value uint256.Int, addr ethtypes.Address) (retOut []byte, retAddr ethtypes.Address, gasLeft uint64, retErr error) {
	if e.depth == 0 {
		e.lastSteps = 0
	}
	if ft := e.frameTracer(); ft != nil {
		ft.CaptureEnter(typ, caller, addr, initCode, gas, value)
		defer func() { ft.CaptureExit(retOut, gas-gasLeft, retErr) }()
	}
	if e.depth > CallCreateDepth {
		return nil, ethtypes.Address{}, gas, ErrMaxDepth
	}
	if !value.IsZero() && !e.canTransfer(caller, value) {
		return nil, ethtypes.Address{}, gas, ErrInsufficientBalance
	}
	e.State.SetNonce(caller, e.State.GetNonce(caller)+1)
	// Address collision check.
	if e.State.GetNonce(addr) != 0 || e.State.GetCodeSize(addr) != 0 {
		return nil, ethtypes.Address{}, 0, ErrContractAddressCollision
	}
	snapshot := e.State.Snapshot()
	e.State.CreateAccount(addr)
	e.State.SetNonce(addr, 1)
	e.transfer(caller, addr, value)

	f := &frame{
		contract: addr, caller: caller, code: initCode, input: nil,
		value: value, gas: gas,
		jumpdests: analyzeJumpdests(initCode), // initcode runs once: not cached
	}
	ret, err := e.runFrame(f, snapshot)
	if err == nil {
		// Deposit the runtime code.
		switch {
		case len(ret) > MaxCodeSize:
			err = ErrCodeSizeExceeded
		case !f.useGas(uint64(len(ret)) * GasCodeDepositByte):
			err = ErrOutOfGas
		default:
			e.State.SetCode(addr, ret)
		}
		if err != nil {
			e.State.RevertToSnapshot(snapshot)
			ret, f.gas = nil, 0
		}
	}
	if e.depth == 0 {
		e.observeOuter(gas, f.gas)
	}
	return ret, addr, f.gas, err
}
