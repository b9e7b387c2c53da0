package minisol

import (
	"fmt"

	"legalchain/internal/abi"
	"legalchain/internal/evm"
)

// Memory layout used by generated code.
const (
	scratchA    = 0x00 // keccak / encoder scratch
	scratchB    = 0x20
	freePtrSlot = 0x40
	frame0      = 0x80 // first function frame
)

// Artifact is a compiled contract.
type Artifact struct {
	Name     string
	ABI      *abi.ABI
	ABIJSON  []byte
	Bytecode []byte  // deployment (init) code; append ABI-encoded ctor args
	Runtime  []byte  // runtime code installed on chain
	Layout   *Layout // storage layout (slot assignment of state variables)
}

// Compile compiles every contract in the source, in resolution order.
func Compile(src string) ([]*Artifact, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}
	infos, order, err := Analyze(unit)
	if err != nil {
		return nil, err
	}
	var out []*Artifact
	for _, name := range order {
		art, err := compileContract(infos[name])
		if err != nil {
			return nil, fmt.Errorf("minisol: contract %s: %w", name, err)
		}
		out = append(out, art)
	}
	return out, nil
}

// CompileContract compiles src and returns the named contract.
func CompileContract(src, name string) (*Artifact, error) {
	arts, err := Compile(src)
	if err != nil {
		return nil, err
	}
	for _, a := range arts {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("minisol: contract %q not found in source", name)
}

// codegen is the per-contract code generator.
type codegen struct {
	info *ContractInfo
	a    *assembler
	fn   *FuncInfo

	dynBase  int // first byte of dynamic memory (after all frames)
	labelSeq int
	// loopStack carries the break/continue targets of enclosing loops.
	loopStack []loopLabels

	// which runtime helper subroutines are referenced
	needMcopy, needStoreStr, needLoadStr, needMapStr, needStrArr bool
}

// loopLabels are the jump targets of one enclosing loop.
type loopLabels struct {
	brk, cont string
}

func (cg *codegen) fresh(prefix string) string {
	cg.labelSeq++
	return fmt.Sprintf("%s_%d", prefix, cg.labelSeq)
}

func (cg *codegen) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

// compileContract builds the runtime code and wraps it in init code.
func compileContract(info *ContractInfo) (*Artifact, error) {
	contractABI, err := BuildABI(info)
	if err != nil {
		return nil, err
	}
	abiJSON, err := contractABI.MarshalJSON()
	if err != nil {
		return nil, err
	}

	// Assign static frames: constructor first, then each function.
	base := frame0
	var fns []*FuncInfo
	if info.Ctor != nil {
		fns = append(fns, info.Ctor)
	}
	for _, name := range sortedFuncNames(info) {
		fns = append(fns, info.Funcs[name])
	}
	for _, f := range fns {
		base = layoutFrame(f, base)
	}
	dynBase := base

	// --- runtime code ---
	rcg := &codegen{info: info, dynBase: dynBase}
	runtime, err := rcg.genRuntime(contractABI)
	if err != nil {
		return nil, err
	}
	if len(runtime) > evm.MaxCodeSize {
		return nil, fmt.Errorf("runtime code %d bytes exceeds EIP-170 limit", len(runtime))
	}

	// --- init code ---
	icg := &codegen{info: info, dynBase: dynBase}
	initCode, err := icg.genInit(runtime)
	if err != nil {
		return nil, err
	}

	return &Artifact{
		Name:     info.Name,
		ABI:      contractABI,
		ABIJSON:  abiJSON,
		Bytecode: initCode,
		Runtime:  runtime,
		Layout:   LayoutOf(info),
	}, nil
}

func sortedFuncNames(info *ContractInfo) []string {
	names := make([]string, 0, len(info.Funcs))
	for n := range info.Funcs {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// layoutFrame assigns memory offsets to a function's params, returns and
// locals (discovered by walking the body), returning the next free base.
func layoutFrame(f *FuncInfo, base int) int {
	f.FrameBase = base
	off := base
	for _, p := range f.Params {
		p.Offset = off
		off += 32
	}
	for _, r := range f.Returns {
		r.Offset = off
		off += 32
	}
	// Locals and emit-staging temps: reserve one word per declaration
	// plus one per event argument.
	extra := countFrameExtras(f.Def)
	f.frameNext = off
	off += extra * 32
	f.maxFrame = off
	return off
}

func countFrameExtras(def *FuncDef) int {
	if def == nil {
		return 0
	}
	n := 0
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *VarDeclStmt:
				n++
			case *IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *WhileStmt:
				walk(st.Body)
			case *ForStmt:
				if st.Init != nil {
					walk([]Stmt{st.Init})
				}
				if st.Post != nil {
					walk([]Stmt{st.Post})
				}
				walk(st.Body)
			case *EmitStmt:
				n += len(st.Args)
			}
		}
	}
	walk(def.Body)
	return n
}

// genInit produces deployment code: decode constructor args appended
// after the code, run the constructor body, then return the runtime.
func (cg *codegen) genInit(runtime []byte) ([]byte, error) {
	a := newAssembler()
	cg.a = a

	// freeptr = dynBase
	a.pushU(uint64(cg.dynBase))
	a.mstoreTo(freePtrSlot)

	ctor := cg.info.Ctor
	if ctor != nil && len(ctor.Params) > 0 {
		// argSize = CODESIZE - __end; copy args to dynBase.
		argSize := func() {
			a.op(evm.CODESIZE)
			a.pushLabel("__end")
			a.op(evm.SWAP1, evm.SUB) // codesize - end
		}
		argSize()
		// CODECOPY(dest=dynBase, offset=__end, len=argSize)
		a.op(evm.DUP1) // keep argSize for freeptr bump
		a.pushLabel("__end")
		a.pushU(uint64(cg.dynBase))
		a.op(evm.CODECOPY)
		// freeptr = dynBase + pad32(argSize)
		cg.emitPad32() // consumes argSize, leaves padded
		a.pushU(uint64(cg.dynBase))
		a.op(evm.ADD)
		a.mstoreTo(freePtrSlot)
		// Decode params into the ctor frame.
		if err := cg.decodeArgsFromMemory(ctor, cg.dynBase, argSize); err != nil {
			return nil, err
		}
	}
	if ctor != nil {
		if ctor.Mutability != Payable {
			cg.emitNonPayableCheck()
		}
		// Run the body with the standard retdest convention.
		a.pushLabel("__deploy")
		a.pushLabel("__ctor_body")
		a.op(evm.JUMP)
		a.label("__deploy")
	}
	// Copy the runtime to memory and return it.
	a.pushU(uint64(len(runtime)))
	a.pushLabel("__runtime")
	a.mload(freePtrSlot) // dest
	a.op(evm.CODECOPY)
	a.pushU(uint64(len(runtime)))
	a.mload(freePtrSlot)
	a.op(evm.RETURN)

	// Constructor body and helpers.
	if ctor != nil {
		cg.fn = ctor
		a.label("__ctor_body")
		if err := cg.compileBody(ctor); err != nil {
			return nil, err
		}
	}
	cg.emitHelpers()

	a.mark("__runtime")
	a.raw(runtime)
	a.mark("__end")
	return a.assemble()
}

// genRuntime produces the dispatcher, getters, function bodies and
// helper subroutines.
func (cg *codegen) genRuntime(contractABI *abi.ABI) ([]byte, error) {
	a := newAssembler()
	cg.a = a

	// freeptr = dynBase
	a.pushU(uint64(cg.dynBase))
	a.mstoreTo(freePtrSlot)

	// Selector: revert if calldatasize < 4.
	a.op(evm.CALLDATASIZE)
	a.pushU(4)
	a.op(evm.GT) // 4 > cds ?
	a.pushLabel("__badsel")
	a.op(evm.JUMPI)
	a.pushU(0)
	a.op(evm.CALLDATALOAD)
	a.pushU(224)
	a.op(evm.SHR) // selector on stack

	// Dispatch table.
	type entry struct {
		name   string
		method abi.Method
		isVar  bool
	}
	var entries []entry
	for _, name := range cg.info.DispatchOrder {
		m, ok := contractABI.Methods[name]
		if !ok {
			continue
		}
		_, isVar := cg.info.VarMap[name]
		if _, isFunc := cg.info.Funcs[name]; isFunc {
			isVar = false
		}
		entries = append(entries, entry{name: name, method: m, isVar: isVar})
	}
	for _, e := range entries {
		id := e.method.ID()
		a.op(evm.DUP1)
		a.pushBytes(id[:])
		a.op(evm.EQ)
		a.pushLabel("sel_" + e.name)
		a.op(evm.JUMPI)
	}
	a.label("__badsel")
	a.revertZero()

	// Per-selector stubs.
	for _, e := range entries {
		a.label("sel_" + e.name)
		a.op(evm.POP) // drop selector
		if e.isVar {
			if err := cg.genGetter(cg.info.VarMap[e.name]); err != nil {
				return nil, err
			}
			continue
		}
		f := cg.info.Funcs[e.name]
		if f.Mutability != Payable {
			cg.emitNonPayableCheck()
		}
		// Copy calldata args to dynBase and decode into the frame.
		if len(f.Params) > 0 {
			cg.emitCopyCalldataArgs()
			if err := cg.decodeArgsFromMemory(f, cg.dynBase, cg.emitCalldataArgSize); err != nil {
				return nil, err
			}
		}
		retLabel := "ret_" + e.name
		a.pushLabel(retLabel)
		a.pushLabel("body_" + e.name)
		a.op(evm.JUMP)
		a.label(retLabel)
		// Encode return values from the frame and RETURN.
		var srcs []encodeSrc
		for _, r := range f.Returns {
			srcs = append(srcs, encodeSrc{offset: r.Offset, typ: r.Type})
		}
		if err := cg.emitEncode(srcs); err != nil {
			return nil, err
		}
		a.op(evm.RETURN)
	}

	// Function bodies (all functions, including internal ones).
	for _, name := range sortedFuncNames(cg.info) {
		f := cg.info.Funcs[name]
		cg.fn = f
		a.label("body_" + name)
		if err := cg.compileBody(f); err != nil {
			return nil, fmt.Errorf("function %s: %w", name, err)
		}
	}

	cg.emitHelpers()
	return a.assemble()
}

// compileBody zeroes return slots, compiles statements, and emits the
// implicit epilogue jump to the return destination on the stack.
func (cg *codegen) compileBody(f *FuncInfo) error {
	// Reset the local-slot bump pointer for deterministic layout.
	f.frameNext = f.FrameBase + 32*(len(f.Params)+len(f.Returns))
	f.locals = map[string]*LocalInfo{}
	for _, p := range f.Params {
		f.locals[p.Name] = p
	}
	for _, r := range f.Returns {
		if r.Name != "" {
			f.locals[r.Name] = r
		}
	}
	for _, r := range f.Returns {
		cg.a.pushU(0)
		cg.a.mstoreTo(r.Offset)
	}
	for _, s := range f.Def.Body {
		if err := cg.compileStmt(s); err != nil {
			return err
		}
	}
	cg.a.op(evm.JUMP) // to retdest
	return nil
}

// emitNonPayableCheck reverts when msg.value != 0.
func (cg *codegen) emitNonPayableCheck() {
	ok := cg.fresh("npok")
	cg.a.op(evm.CALLVALUE)
	cg.a.op(evm.ISZERO)
	cg.a.pushLabel(ok)
	cg.a.op(evm.JUMPI)
	cg.a.revertZero()
	cg.a.label(ok)
}

// emitCopyCalldataArgs copies calldata[4:] to dynBase and bumps the free
// pointer past it.
func (cg *codegen) emitCopyCalldataArgs() {
	a := cg.a
	cg.emitCalldataArgSize()
	a.op(evm.DUP1) // keep n for bump
	a.pushU(4)
	a.pushU(uint64(cg.dynBase))
	a.op(evm.CALLDATACOPY) // (dest, offset, len)
	cg.emitPad32()
	a.pushU(uint64(cg.dynBase))
	a.op(evm.ADD)
	a.mstoreTo(freePtrSlot)
}

// emitCalldataArgSize pushes the argument blob's size, calldatasize - 4.
func (cg *codegen) emitCalldataArgSize() {
	cg.a.op(evm.CALLDATASIZE)
	cg.a.pushU(4)
	cg.a.op(evm.SWAP1, evm.SUB)
}

// emitPad32 rounds the stack top up to a multiple of 32.
func (cg *codegen) emitPad32() {
	a := cg.a
	a.pushU(31)
	a.op(evm.ADD)
	a.pushU(32)
	a.op(evm.SWAP1, evm.DIV)
	a.pushU(32)
	a.op(evm.MUL)
}

// decodeArgsFromMemory decodes an ABI blob located at base into the
// function's parameter slots; pushSize pushes the blob's byte size.
// Strings become pointers into the blob (the ABI layout of a string
// equals the memory layout), and so do string arrays: a string[] is its
// length word followed by one offset per element, relative to the word
// after the length, so element i lives at ptr + 32 + offset_i. A string
// array is checked whole against the blob before the body runs
// (__strarr), so indexing it never reads past the arguments.
func (cg *codegen) decodeArgsFromMemory(f *FuncInfo, base int, pushSize func()) error {
	a := cg.a
	head := 0
	for _, p := range f.Params {
		switch {
		case p.Type.IsWord():
			a.mload(base + head)
			a.mstoreTo(p.Offset)
		case p.Type.Kind == TString:
			a.mload(base + head) // relative offset
			a.pushU(uint64(base))
			a.op(evm.ADD)
			a.mstoreTo(p.Offset)
		case isStringArray(p.Type):
			cg.needStrArr = true
			ret := cg.fresh("sarr")
			a.pushLabel(ret)
			a.pushU(uint64(base))
			pushSize()
			a.mload(base + head) // relative offset
			a.pushLabel("__strarr")
			a.op(evm.JUMP)
			a.label(ret) // [ptr]
			a.mstoreTo(p.Offset)
		default:
			return fmt.Errorf("parameter %s: type %s not supported in external signatures", p.Name, p.Type)
		}
		head += 32
	}
	return nil
}

// genGetter emits the auto-generated public getter for v. Arguments (map
// keys, array indexes) are decoded from the calldata blob at dynBase.
func (cg *codegen) genGetter(v *VarInfo) error {
	a := cg.a
	t := v.Type
	// Copy args if the getter takes any.
	takesArgs := t.Kind == TMapping || t.Kind == TArray
	if takesArgs {
		cg.emitCopyCalldataArgs()
	}
	a.pushU(uint64(v.Slot)) // [slot]
	head := 0
	for {
		if t.Kind == TMapping {
			switch {
			case t.Key.IsWord():
				a.mload(cg.dynBase + head)
				a.pushU(scratchA)
				a.op(evm.MSTORE) // key at 0x00
				a.pushU(scratchB)
				a.op(evm.MSTORE) // slot at 0x20
				a.pushU(64)
				a.pushU(scratchA)
				a.op(evm.SHA3)
			case t.Key.Kind == TString:
				cg.needMapStr = true
				ret := cg.fresh("gms")
				a.pushLabel(ret)
				a.op(evm.SWAP1)            // [ret, slot]
				a.mload(cg.dynBase + head) // relative string offset
				a.pushU(uint64(cg.dynBase))
				a.op(evm.ADD) // [ret, slot, ptr]
				a.pushLabel("__mapstr")
				a.op(evm.JUMP)
				a.label(ret) // [slot']
			default:
				return fmt.Errorf("getter %s: unsupported key type %s", v.Name, t.Key)
			}
			t = t.Value
			head += 32
			continue
		}
		if t.Kind == TArray {
			// Bounds check, then slot = keccak(slot) + idx*elemSlots.
			ok := cg.fresh("gbnd")
			a.op(evm.DUP1, evm.SLOAD)  // [slot, len]
			a.mload(cg.dynBase + head) // [slot, len, idx]
			a.op(evm.DUP1, evm.DUP3)   // [slot,len,idx,idx,len]
			a.op(evm.SWAP1, evm.LT)    // idx < len
			a.pushLabel(ok)
			a.op(evm.JUMPI)
			a.revertZero()
			a.label(ok)
			a.op(evm.SWAP1, evm.POP) // [slot, idx]
			a.op(evm.SWAP1)          // [idx, slot]
			a.pushU(scratchA)
			a.op(evm.MSTORE)
			a.pushU(32)
			a.pushU(scratchA)
			a.op(evm.SHA3) // [idx, dataBase]
			a.op(evm.SWAP1)
			if t.Elem.Slots() > 1 {
				a.pushU(uint64(t.Elem.Slots()))
				a.op(evm.MUL)
			}
			a.op(evm.ADD)
			t = t.Elem
			head += 32
			continue
		}
		break
	}
	switch {
	case t.IsWord():
		a.op(evm.SLOAD)
		a.pushU(scratchA)
		a.op(evm.MSTORE)
		a.pushU(32)
		a.pushU(scratchA)
		a.op(evm.RETURN)
	case t.Kind == TString:
		cg.callLoadString() // [slot] -> [ptr]
		cg.emitReturnSingleString()
	case t.Kind == TStruct:
		n := len(t.Struct.Fields)
		a.mload(freePtrSlot) // [slot, b]
		for i := 0; i < n; i++ {
			a.op(evm.DUP2)
			a.pushU(uint64(t.Struct.Fields[i].SlotOffset))
			a.op(evm.ADD, evm.SLOAD) // [slot,b,val]
			a.op(evm.DUP2)
			a.pushU(uint64(32 * i))
			a.op(evm.ADD, evm.MSTORE) // [slot,b]
		}
		a.pushU(uint64(32 * n)) // [slot,b,size]
		a.op(evm.SWAP1)         // [slot,size,b]
		a.op(evm.RETURN)
	default:
		return fmt.Errorf("getter %s: unsupported terminal type %s", v.Name, t)
	}
	return nil
}

// emitReturnSingleString ABI-encodes the string whose memory pointer is
// on the stack and returns it: [ptr] -> RETURN.
func (cg *codegen) emitReturnSingleString() {
	a := cg.a
	cg.needMcopy = true
	// [ptr]
	a.mload(freePtrSlot) // [ptr, b]
	a.pushU(0x20)
	a.op(evm.DUP2, evm.MSTORE) // mstore(b, 0x20)
	a.op(evm.DUP2, evm.MLOAD)  // [ptr,b,len]
	a.op(evm.DUP1, evm.DUP3)
	a.pushU(32)
	a.op(evm.ADD, evm.MSTORE) // mstore(b+32, len); [ptr,b,len]
	cg.emitPad32()            // [ptr,b,p]
	ret := cg.fresh("rss")
	a.pushLabel(ret) // [ptr,b,p,ret]
	a.op(evm.DUP3)
	a.pushU(64)
	a.op(evm.ADD) // dst = b+64
	a.op(evm.DUP5)
	a.pushU(32)
	a.op(evm.ADD)  // src = ptr+32
	a.op(evm.DUP4) // n = p
	a.pushLabel("__mcopy")
	a.op(evm.JUMP)
	a.label(ret) // [ptr,b,p]
	a.pushU(64)
	a.op(evm.ADD)   // size = p + 64
	a.op(evm.SWAP1) // [ptr,size,b]
	a.op(evm.RETURN)
}
