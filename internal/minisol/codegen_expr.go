package minisol

import (
	"fmt"
	"math/big"

	"legalchain/internal/abi"
	"legalchain/internal/evm"
)

// lvKind classifies assignable locations.
type lvKind int

const (
	lvMem           lvKind = iota // local variable at a static offset
	lvStorageWord                 // storage slot (slot on stack)
	lvStorageString               // storage string (slot on stack)
	lvStorageStruct               // storage struct base (slot on stack)
)

// lvalue describes an assignable location. For storage kinds the slot
// has been pushed onto the EVM stack by compileLValue.
type lvalue struct {
	kind   lvKind
	memOff int
	typ    *SemType
}

// compileStmt emits one statement; the expression stack is empty before
// and after.
func (cg *codegen) compileStmt(s Stmt) error {
	a := cg.a
	switch st := s.(type) {
	case *VarDeclStmt:
		t, err := cg.resolveLocalType(st.Type, st.Line)
		if err != nil {
			return err
		}
		li := &LocalInfo{Name: st.Name, Type: t, Offset: cg.fn.frameNext}
		cg.fn.frameNext += 32
		if _, dup := cg.fn.locals[st.Name]; dup {
			return cg.errf(st.Line, "duplicate local %q", st.Name)
		}
		cg.fn.locals[st.Name] = li
		if st.Init != nil {
			vt, err := cg.compileExpr(st.Init)
			if err != nil {
				return err
			}
			if vt == nil {
				return cg.errf(st.Line, "void value in initialization of %q", st.Name)
			}
		} else {
			a.pushU(0)
		}
		a.mstoreTo(li.Offset)
		return nil

	case *AssignStmt:
		return cg.compileAssign(st)

	case *ExprStmt:
		t, err := cg.compileExpr(st.E)
		if err != nil {
			return err
		}
		if t != nil {
			a.op(evm.POP)
		}
		return nil

	case *IfStmt:
		elseL, endL := cg.fresh("else"), cg.fresh("endif")
		if _, err := cg.compileExpr(st.Cond); err != nil {
			return err
		}
		a.op(evm.ISZERO)
		a.pushLabel(elseL)
		a.op(evm.JUMPI)
		for _, inner := range st.Then {
			if err := cg.compileStmt(inner); err != nil {
				return err
			}
		}
		a.pushLabel(endL)
		a.op(evm.JUMP)
		a.label(elseL)
		for _, inner := range st.Else {
			if err := cg.compileStmt(inner); err != nil {
				return err
			}
		}
		a.label(endL)
		return nil

	case *WhileStmt:
		top, endL := cg.fresh("while"), cg.fresh("wend")
		a.label(top)
		if _, err := cg.compileExpr(st.Cond); err != nil {
			return err
		}
		a.op(evm.ISZERO)
		a.pushLabel(endL)
		a.op(evm.JUMPI)
		cg.loopStack = append(cg.loopStack, loopLabels{brk: endL, cont: top})
		for _, inner := range st.Body {
			if err := cg.compileStmt(inner); err != nil {
				return err
			}
		}
		cg.loopStack = cg.loopStack[:len(cg.loopStack)-1]
		a.pushLabel(top)
		a.op(evm.JUMP)
		a.label(endL)
		return nil

	case *ForStmt:
		if st.Init != nil {
			if err := cg.compileStmt(st.Init); err != nil {
				return err
			}
		}
		top, postL, endL := cg.fresh("for"), cg.fresh("fpost"), cg.fresh("fend")
		a.label(top)
		if st.Cond != nil {
			if _, err := cg.compileExpr(st.Cond); err != nil {
				return err
			}
			a.op(evm.ISZERO)
			a.pushLabel(endL)
			a.op(evm.JUMPI)
		}
		cg.loopStack = append(cg.loopStack, loopLabels{brk: endL, cont: postL})
		for _, inner := range st.Body {
			if err := cg.compileStmt(inner); err != nil {
				return err
			}
		}
		cg.loopStack = cg.loopStack[:len(cg.loopStack)-1]
		a.label(postL)
		if st.Post != nil {
			if err := cg.compileStmt(st.Post); err != nil {
				return err
			}
		}
		a.pushLabel(top)
		a.op(evm.JUMP)
		a.label(endL)
		return nil

	case *ReturnStmt:
		if len(st.Values) != 0 && len(st.Values) != len(cg.fn.Returns) {
			return cg.errf(st.Line, "return arity mismatch: %d values, %d declared", len(st.Values), len(cg.fn.Returns))
		}
		for i, v := range st.Values {
			vt, err := cg.compileExpr(v)
			if err != nil {
				return err
			}
			if vt == nil {
				return cg.errf(st.Line, "void value in return")
			}
			a.mstoreTo(cg.fn.Returns[i].Offset)
		}
		a.op(evm.JUMP) // to retdest
		return nil

	case *RequireStmt:
		ok := cg.fresh("reqok")
		if _, err := cg.compileExpr(st.Cond); err != nil {
			return err
		}
		a.pushLabel(ok)
		a.op(evm.JUMPI)
		cg.emitRevertReason(st.Reason)
		a.label(ok)
		return nil

	case *RevertStmt:
		cg.emitRevertReason(st.Reason)
		return nil

	case *EmitStmt:
		return cg.compileEmit(st)

	case *BreakStmt:
		if len(cg.loopStack) == 0 {
			return cg.errf(st.Line, "break outside a loop")
		}
		a.pushLabel(cg.loopStack[len(cg.loopStack)-1].brk)
		a.op(evm.JUMP)
		return nil

	case *ContinueStmt:
		if len(cg.loopStack) == 0 {
			return cg.errf(st.Line, "continue outside a loop")
		}
		a.pushLabel(cg.loopStack[len(cg.loopStack)-1].cont)
		a.op(evm.JUMP)
		return nil

	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func (cg *codegen) resolveLocalType(t TypeName, line int) (*SemType, error) {
	an := &analyzer{}
	st, err := an.resolveType(cg.info, t)
	if err != nil {
		return nil, cg.errf(line, "%v", err)
	}
	if st.Kind == TMapping {
		return nil, cg.errf(line, "mappings cannot be local variables")
	}
	if st.Kind == TArray {
		return nil, cg.errf(line, "arrays cannot be local variables")
	}
	return st, nil
}

// emitRevertReason reverts with the Error(string) payload for reason
// (plain REVERT(0,0) when reason is empty).
func (cg *codegen) emitRevertReason(reason string) {
	a := cg.a
	if reason == "" {
		a.revertZero()
		return
	}
	blob := abi.PackRevertReason(reason)
	cg.emitWriteBlob(blob, cg.dynBase)
	a.pushU(uint64(len(blob)))
	a.pushU(uint64(cg.dynBase))
	a.op(evm.REVERT)
}

// emitWriteBlob writes a compile-time byte blob into memory at a static
// offset using PUSH32 chunks.
func (cg *codegen) emitWriteBlob(blob []byte, at int) {
	a := cg.a
	for i := 0; i < len(blob); i += 32 {
		end := i + 32
		if end > len(blob) {
			end = len(blob)
		}
		chunk := make([]byte, 32)
		copy(chunk, blob[i:end])
		a.pushBytes(chunk)
		a.pushU(uint64(at + i))
		a.op(evm.MSTORE)
	}
}

// compileAssign handles `lhs = rhs` and compound assignments.
func (cg *codegen) compileAssign(st *AssignStmt) error {
	a := cg.a
	var rhsT *SemType
	var err error
	if st.Op == "=" {
		rhsT, err = cg.compileExpr(st.RHS)
	} else {
		// Desugar: lhs op= rhs  →  lhs = lhs OP rhs.
		var lhsT *SemType
		lhsT, err = cg.compileExpr(st.LHS)
		if err != nil {
			return err
		}
		if _, err = cg.compileExpr(st.RHS); err != nil {
			return err
		}
		switch st.Op {
		case "+=":
			a.op(evm.ADD)
		case "-=":
			a.op(evm.SWAP1, evm.SUB)
		case "*=":
			a.op(evm.MUL)
		case "/=":
			a.op(evm.SWAP1, evm.DIV)
		}
		rhsT = lhsT
	}
	if err != nil {
		return err
	}
	if rhsT == nil {
		return cg.errf(st.Line, "void value in assignment")
	}
	lv, err := cg.compileLValue(st.LHS)
	if err != nil {
		return err
	}
	return cg.storeLValue(lv, rhsT, st.Line)
}

// storeLValue stores the value below the lvalue slot. Stack on entry:
// [value] for lvMem, [value, slot] for storage kinds.
func (cg *codegen) storeLValue(lv lvalue, valT *SemType, line int) error {
	a := cg.a
	switch lv.kind {
	case lvMem:
		a.mstoreTo(lv.memOff)
		return nil
	case lvStorageWord:
		a.op(evm.SSTORE) // key=slot(top), value
		return nil
	case lvStorageString:
		if valT.Kind != TString {
			return cg.errf(line, "cannot assign %s to string storage", valT)
		}
		// [ptr, slot] -> storeString(ret, slot, ptr)
		cg.needStoreStr = true
		ret := cg.fresh("sstr")
		a.pushLabel(ret) // [ptr, slot, ret]
		a.op(evm.SWAP2)  // [ret, slot, ptr]
		a.pushLabel("__storestr")
		a.op(evm.JUMP)
		a.label(ret)
		return nil
	case lvStorageStruct:
		if valT.Kind != TStruct || valT.Struct != lv.typ.Struct {
			return cg.errf(line, "cannot assign %s to struct storage", valT)
		}
		// [ptr, slot]
		for i, f := range lv.typ.Struct.Fields {
			a.op(evm.DUP2) // ptr
			a.pushU(uint64(32 * i))
			a.op(evm.ADD, evm.MLOAD) // val
			a.op(evm.DUP2)           // slot
			a.pushU(uint64(f.SlotOffset))
			a.op(evm.ADD)    // [ptr,slot,val,fieldslot]
			a.op(evm.SSTORE) // key=fieldslot, value=val
		}
		a.op(evm.POP, evm.POP)
		return nil
	}
	return cg.errf(line, "not assignable")
}

// compileLValue resolves an assignable location; for storage locations
// the slot is pushed on the stack.
func (cg *codegen) compileLValue(e Expr) (lvalue, error) {
	a := cg.a
	switch x := e.(type) {
	case *Ident:
		if li, ok := cg.fn.locals[x.Name]; ok {
			return lvalue{kind: lvMem, memOff: li.Offset, typ: li.Type}, nil
		}
		if vi, ok := cg.info.VarMap[x.Name]; ok {
			a.pushU(uint64(vi.Slot))
			switch vi.Type.Kind {
			case TString:
				return lvalue{kind: lvStorageString, typ: vi.Type}, nil
			case TStruct:
				return lvalue{kind: lvStorageStruct, typ: vi.Type}, nil
			case TMapping, TArray:
				return lvalue{kind: lvStorageWord, typ: vi.Type}, nil
			default:
				return lvalue{kind: lvStorageWord, typ: vi.Type}, nil
			}
		}
		return lvalue{}, cg.errf(x.Line, "unknown variable %q", x.Name)

	case *Index:
		containerLv, err := cg.compileLValue(x.X)
		if err != nil {
			return lvalue{}, err
		}
		ct := containerLv.typ
		if containerLv.kind == lvMem {
			return lvalue{}, cg.errf(x.Line, "indexing memory values is unsupported")
		}
		switch ct.Kind {
		case TMapping:
			if err := cg.emitMappingSlot(ct, x.I, x.Line); err != nil {
				return lvalue{}, err
			}
			return storageLocFor(ct.Value), nil
		case TArray:
			if err := cg.emitArraySlot(ct, x.I, x.Line); err != nil {
				return lvalue{}, err
			}
			return storageLocFor(ct.Elem), nil
		default:
			return lvalue{}, cg.errf(x.Line, "cannot index %s", ct)
		}

	case *Member:
		baseLv, err := cg.compileLValue(x.X)
		if err != nil {
			return lvalue{}, err
		}
		if baseLv.kind == lvStorageStruct || (baseLv.kind == lvStorageWord && baseLv.typ.Kind == TStruct) {
			f, ok := baseLv.typ.Struct.Field(x.Name)
			if !ok {
				return lvalue{}, cg.errf(x.Line, "struct %s has no field %q", baseLv.typ.Struct.Name, x.Name)
			}
			if f.SlotOffset != 0 {
				a.pushU(uint64(f.SlotOffset))
				a.op(evm.ADD)
			}
			return storageLocFor(f.Type), nil
		}
		return lvalue{}, cg.errf(x.Line, "member %q is not assignable", x.Name)

	default:
		return lvalue{}, fmt.Errorf("expression is not assignable")
	}
}

func storageLocFor(t *SemType) lvalue {
	switch t.Kind {
	case TString:
		return lvalue{kind: lvStorageString, typ: t}
	case TStruct:
		return lvalue{kind: lvStorageStruct, typ: t}
	default:
		return lvalue{kind: lvStorageWord, typ: t}
	}
}

// emitMappingSlot computes the element slot of a mapping: entry stack
// [slot], exit [slot'].
func (cg *codegen) emitMappingSlot(mt *SemType, key Expr, line int) error {
	a := cg.a
	if mt.Key.IsWord() {
		kt, err := cg.compileExpr(key) // [slot, key]
		if err != nil {
			return err
		}
		if kt == nil || !kt.IsWord() {
			return cg.errf(line, "bad mapping key")
		}
		a.pushU(scratchA)
		a.op(evm.MSTORE) // key at 0x00
		a.pushU(scratchB)
		a.op(evm.MSTORE) // slot at 0x20
		a.pushU(64)
		a.pushU(scratchA)
		a.op(evm.SHA3)
		return nil
	}
	// String key: mapString(ret, slot, ptr).
	cg.needMapStr = true
	ret := cg.fresh("maps")
	a.pushLabel(ret)
	a.op(evm.SWAP1) // [ret, slot]
	kt, err := cg.compileExpr(key)
	if err != nil {
		return err
	}
	if kt == nil || kt.Kind != TString {
		return cg.errf(line, "mapping expects a string key")
	}
	a.pushLabel("__mapstr")
	a.op(evm.JUMP)
	a.label(ret)
	return nil
}

// emitArraySlot computes the element slot of a dynamic array with a
// bounds check: entry [slot], exit [slot'].
func (cg *codegen) emitArraySlot(at *SemType, idx Expr, line int) error {
	a := cg.a
	ok := cg.fresh("bnd")
	a.op(evm.DUP1, evm.SLOAD) // [slot, len]
	it, err := cg.compileExpr(idx)
	if err != nil {
		return err
	}
	if it == nil || !it.IsWord() {
		return cg.errf(line, "array index must be numeric")
	}
	// [slot, len, idx]
	a.op(evm.DUP1, evm.DUP3) // [slot,len,idx,idx,len]
	a.op(evm.SWAP1, evm.LT)  // idx < len
	a.pushLabel(ok)
	a.op(evm.JUMPI)
	a.revertZero()
	a.label(ok)
	// [slot, len, idx]: drop len.
	a.op(evm.SWAP1, evm.POP) // [slot, idx]
	a.op(evm.SWAP1)          // [idx, slot]
	a.pushU(scratchA)
	a.op(evm.MSTORE)
	a.pushU(32)
	a.pushU(scratchA)
	a.op(evm.SHA3) // [idx, dataBase]
	a.op(evm.SWAP1)
	if at.Elem.Slots() > 1 {
		a.pushU(uint64(at.Elem.Slots()))
		a.op(evm.MUL)
	}
	a.op(evm.ADD)
	return nil
}

// compileExpr emits code leaving the value on the stack; it returns the
// value's type, or nil for void calls.
func (cg *codegen) compileExpr(e Expr) (*SemType, error) {
	a := cg.a
	switch x := e.(type) {
	case *NumberLit:
		if x.Value.Sign() < 0 {
			wrapped := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 256), x.Value)
			a.pushBig(wrapped)
		} else {
			a.pushBig(x.Value)
		}
		return &SemType{Kind: TUint, Bits: 256}, nil

	case *BoolLit:
		if x.Value {
			a.pushU(1)
		} else {
			a.pushU(0)
		}
		return &SemType{Kind: TBool}, nil

	case *StringLit:
		cg.emitStringLiteral(x.Value)
		return &SemType{Kind: TString}, nil

	case *ThisExpr:
		a.op(evm.ADDRESS)
		return &SemType{Kind: TAddress, Payable: true}, nil

	case *Ident:
		if li, ok := cg.fn.locals[x.Name]; ok {
			a.mload(li.Offset)
			return li.Type, nil
		}
		if vi, ok := cg.info.VarMap[x.Name]; ok {
			switch vi.Type.Kind {
			case TString:
				a.pushU(uint64(vi.Slot))
				cg.callLoadString()
				return vi.Type, nil
			case TMapping, TArray, TStruct:
				return nil, cg.errf(x.Line, "%s of type %s cannot be read as a value", x.Name, vi.Type)
			default:
				a.pushU(uint64(vi.Slot))
				a.op(evm.SLOAD)
				return vi.Type, nil
			}
		}
		return nil, cg.errf(x.Line, "unknown identifier %q", x.Name)

	case *Member:
		return cg.compileMember(x)

	case *Index:
		if li := cg.stringArrayParam(x.X); li != nil {
			return cg.emitStringArrayIndex(li, x)
		}
		lv, err := cg.compileLValue(x)
		if err != nil {
			return nil, err
		}
		return cg.loadLValue(lv, x.Line)

	case *Call:
		return cg.compileCall(x)

	case *Binary:
		return cg.compileBinary(x)

	case *Unary:
		t, err := cg.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "!":
			a.op(evm.ISZERO)
			return &SemType{Kind: TBool}, nil
		case "-":
			a.pushU(0)
			a.op(evm.SUB) // 0 - x
			return t, nil
		}
		return nil, cg.errf(x.Line, "unknown unary %q", x.Op)

	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// loadLValue converts a resolved lvalue into a value on the stack.
func (cg *codegen) loadLValue(lv lvalue, line int) (*SemType, error) {
	a := cg.a
	switch lv.kind {
	case lvMem:
		a.mload(lv.memOff)
		return lv.typ, nil
	case lvStorageWord:
		a.op(evm.SLOAD)
		return lv.typ, nil
	case lvStorageString:
		cg.callLoadString()
		return lv.typ, nil
	case lvStorageStruct:
		return nil, cg.errf(line, "storage struct cannot be read as a whole; access fields")
	}
	return nil, cg.errf(line, "unreadable location")
}

// compileMember handles msg.*, block.*, enum members, .length, .balance
// and struct field reads.
func (cg *codegen) compileMember(x *Member) (*SemType, error) {
	a := cg.a
	if id, ok := x.X.(*Ident); ok {
		switch id.Name {
		case "msg":
			switch x.Name {
			case "sender":
				a.op(evm.CALLER)
				return &SemType{Kind: TAddress, Payable: true}, nil
			case "value":
				a.op(evm.CALLVALUE)
				return &SemType{Kind: TUint, Bits: 256}, nil
			}
			return nil, cg.errf(x.Line, "unknown msg.%s", x.Name)
		case "block":
			switch x.Name {
			case "timestamp":
				a.op(evm.TIMESTAMP)
				return &SemType{Kind: TUint, Bits: 256}, nil
			case "number":
				a.op(evm.NUMBER)
				return &SemType{Kind: TUint, Bits: 256}, nil
			}
			return nil, cg.errf(x.Line, "unknown block.%s", x.Name)
		}
		if en, ok := cg.info.Enums[id.Name]; ok {
			idx, found := en.MemberIndex(x.Name)
			if !found {
				return nil, cg.errf(x.Line, "enum %s has no member %q", id.Name, x.Name)
			}
			a.pushU(uint64(idx))
			return &SemType{Kind: TEnum, Enum: en}, nil
		}
		if li := cg.stringArrayParam(id); li != nil && x.Name == "length" {
			a.mload(li.Offset)
			a.op(evm.MLOAD)
			return &SemType{Kind: TUint, Bits: 256}, nil
		}
		// array length: ident is a state array
		if vi, ok := cg.info.VarMap[id.Name]; ok && vi.Type.Kind == TArray && x.Name == "length" {
			a.pushU(uint64(vi.Slot))
			a.op(evm.SLOAD)
			return &SemType{Kind: TUint, Bits: 256}, nil
		}
	}
	// .balance on an address expression.
	if x.Name == "balance" {
		t, err := cg.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		if t.Kind != TAddress {
			return nil, cg.errf(x.Line, ".balance requires an address")
		}
		a.op(evm.BALANCE)
		return &SemType{Kind: TUint, Bits: 256}, nil
	}
	// .length on an array lvalue (e.g. nested under mapping).
	if x.Name == "length" {
		lv, err := cg.compileLValue(x.X)
		if err == nil && lv.typ != nil && lv.typ.Kind == TArray && lv.kind == lvStorageWord {
			a.op(evm.SLOAD)
			return &SemType{Kind: TUint, Bits: 256}, nil
		}
		if err == nil {
			return nil, cg.errf(x.Line, ".length requires an array")
		}
		return nil, err
	}
	// Struct field read via lvalue path.
	lv, err := cg.compileLValue(x)
	if err != nil {
		return nil, err
	}
	return cg.loadLValue(lv, x.Line)
}

// stringArrayParam returns the string[] parameter e names, or nil.
func (cg *codegen) stringArrayParam(e Expr) *LocalInfo {
	if id, ok := e.(*Ident); ok {
		if li, ok := cg.fn.locals[id.Name]; ok && isStringArray(li.Type) {
			return li
		}
	}
	return nil
}

// emitStringArrayIndex reads element x.I of a string[] parameter with a
// bounds check: [] -> [ptr + 32 + offset_i], a string pointer.
func (cg *codegen) emitStringArrayIndex(li *LocalInfo, x *Index) (*SemType, error) {
	a := cg.a
	a.mload(li.Offset) // [ptr]
	it, err := cg.compileExpr(x.I)
	if err != nil {
		return nil, err
	}
	if it == nil || !it.IsWord() {
		return nil, cg.errf(x.Line, "array index must be numeric")
	}
	ok := cg.fresh("sbnd")
	a.op(evm.DUP2, evm.MLOAD) // [ptr, i, n]
	a.op(evm.DUP2, evm.LT)    // i < n
	a.pushLabel(ok)
	a.op(evm.JUMPI)
	a.revertZero()
	a.label(ok)
	a.pushU(32)
	a.op(evm.MUL, evm.DUP2, evm.ADD) // [ptr, ptr+32i]
	a.pushU(32)
	a.op(evm.ADD, evm.MLOAD, evm.ADD) // ptr + offset_i
	a.pushU(32)
	a.op(evm.ADD)
	return li.Type.Elem, nil
}

// compileBinary emits binary operations (short-circuit for && and ||).
func (cg *codegen) compileBinary(x *Binary) (*SemType, error) {
	a := cg.a
	boolT := &SemType{Kind: TBool}
	uintT := &SemType{Kind: TUint, Bits: 256}
	if x.Op == "&&" || x.Op == "||" {
		end := cg.fresh("sc")
		if _, err := cg.compileExpr(x.L); err != nil {
			return nil, err
		}
		a.op(evm.DUP1)
		if x.Op == "&&" {
			a.op(evm.ISZERO)
		}
		a.pushLabel(end)
		a.op(evm.JUMPI)
		a.op(evm.POP)
		if _, err := cg.compileExpr(x.R); err != nil {
			return nil, err
		}
		a.label(end)
		return boolT, nil
	}
	lt, err := cg.compileExpr(x.L)
	if err != nil {
		return nil, err
	}
	if lt != nil && lt.Kind == TString {
		return nil, cg.errf(x.Line, "string operands are not supported in %q", x.Op)
	}
	if _, err := cg.compileExpr(x.R); err != nil {
		return nil, err
	}
	// Stack: [L, R], top = R.
	switch x.Op {
	case "+":
		a.op(evm.ADD)
		return lt, nil
	case "-":
		a.op(evm.SWAP1, evm.SUB)
		return lt, nil
	case "*":
		a.op(evm.MUL)
		return lt, nil
	case "/":
		a.op(evm.SWAP1, evm.DIV)
		return lt, nil
	case "%":
		a.op(evm.SWAP1, evm.MOD)
		return lt, nil
	case "**":
		a.op(evm.SWAP1, evm.EXP)
		return lt, nil
	case "==":
		a.op(evm.EQ)
		return boolT, nil
	case "!=":
		a.op(evm.EQ, evm.ISZERO)
		return boolT, nil
	case "<":
		a.op(evm.SWAP1, evm.LT)
		return boolT, nil
	case ">":
		a.op(evm.SWAP1, evm.GT)
		return boolT, nil
	case "<=":
		a.op(evm.SWAP1, evm.GT, evm.ISZERO)
		return boolT, nil
	case ">=":
		a.op(evm.SWAP1, evm.LT, evm.ISZERO)
		return boolT, nil
	}
	_ = uintT
	return nil, cg.errf(x.Line, "unknown operator %q", x.Op)
}

// compileCall handles conversions, struct literals, builtins
// (transfer, push) and internal function calls.
func (cg *codegen) compileCall(x *Call) (*SemType, error) {
	a := cg.a
	// Member-function builtins.
	if m, ok := x.Fn.(*Member); ok {
		switch m.Name {
		case "transfer":
			if len(x.Args) != 1 {
				return nil, cg.errf(x.Line, "transfer takes one argument")
			}
			at, err := cg.compileExpr(m.X)
			if err != nil {
				return nil, err
			}
			if at.Kind != TAddress {
				return nil, cg.errf(x.Line, "transfer requires an address")
			}
			if _, err := cg.compileExpr(x.Args[0]); err != nil {
				return nil, err
			}
			// [addr, amt] -> CALL(gas=2300, addr, amt, 0,0,0,0)
			okL := cg.fresh("xfer")
			a.pushU(0)
			a.pushU(0)
			a.pushU(0)
			a.pushU(0)
			a.op(evm.DUP5) // amt
			a.op(evm.DUP7) // addr
			a.pushU(2300)
			a.op(evm.CALL)
			a.pushLabel(okL)
			a.op(evm.JUMPI)
			cg.emitRevertReason("transfer failed")
			a.label(okL)
			a.op(evm.POP, evm.POP)
			return nil, nil
		case "push":
			if len(x.Args) != 1 {
				return nil, cg.errf(x.Line, "push takes one argument")
			}
			return cg.compilePush(m, x.Args[0], x.Line)
		}
	}
	id, ok := x.Fn.(*Ident)
	if !ok {
		return nil, cg.errf(x.Line, "call target is not callable")
	}
	// keccak256(string|bytes): hash the bytes of a memory string.
	if id.Name == "keccak256" {
		if len(x.Args) != 1 {
			return nil, cg.errf(x.Line, "keccak256 takes one argument")
		}
		vt, err := cg.compileExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		if vt == nil || vt.Kind != TString {
			return nil, cg.errf(x.Line, "keccak256 expects a string/bytes value")
		}
		// [ptr]: SHA3(ptr+32, len)
		a.op(evm.DUP1, evm.MLOAD) // [ptr, len]
		a.op(evm.SWAP1)
		a.pushU(32)
		a.op(evm.ADD)  // [len, data]
		a.op(evm.SHA3) // keccak(data, len)
		return &SemType{Kind: TBytes32}, nil
	}
	// selfdestruct(address payable): destroy the contract, sending the
	// balance to the beneficiary.
	if id.Name == "selfdestruct" {
		if len(x.Args) != 1 {
			return nil, cg.errf(x.Line, "selfdestruct takes one argument")
		}
		vt, err := cg.compileExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		if vt == nil || vt.Kind != TAddress {
			return nil, cg.errf(x.Line, "selfdestruct expects an address")
		}
		a.op(evm.SELFDESTRUCT)
		return nil, nil
	}
	// Type conversion.
	if isTypeKeyword(id.Name) {
		if len(x.Args) != 1 {
			return nil, cg.errf(x.Line, "conversion takes one argument")
		}
		vt, err := cg.compileExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		an := &analyzer{}
		target, err := an.resolveType(cg.info, TypeName{Name: id.Name})
		if err != nil {
			return nil, cg.errf(x.Line, "%v", err)
		}
		if vt != nil && vt.Kind == TString && target.Kind != TString {
			return nil, cg.errf(x.Line, "cannot convert string to %s", target)
		}
		if target.Kind == TAddress {
			target = &SemType{Kind: TAddress, Payable: true}
		}
		return target, nil
	}
	// Struct literal.
	if si, ok := cg.info.Structs[id.Name]; ok {
		if len(x.Args) != len(si.Fields) {
			return nil, cg.errf(x.Line, "struct %s takes %d fields", si.Name, len(si.Fields))
		}
		// alloc len(fields)*32
		a.mload(freePtrSlot)
		a.op(evm.DUP1)
		a.pushU(uint64(32 * len(si.Fields)))
		a.op(evm.ADD)
		a.mstoreTo(freePtrSlot) // [ptr]
		for i, arg := range x.Args {
			vt, err := cg.compileExpr(arg)
			if err != nil {
				return nil, err
			}
			if vt == nil || !vt.IsWord() {
				return nil, cg.errf(x.Line, "struct field %d must be a word value", i)
			}
			a.op(evm.DUP2)
			a.pushU(uint64(32 * i))
			a.op(evm.ADD, evm.MSTORE)
		}
		return &SemType{Kind: TStruct, Struct: si}, nil
	}
	// Enum conversion: EnumName(x).
	if en, ok := cg.info.Enums[id.Name]; ok {
		if len(x.Args) != 1 {
			return nil, cg.errf(x.Line, "enum conversion takes one argument")
		}
		if _, err := cg.compileExpr(x.Args[0]); err != nil {
			return nil, err
		}
		return &SemType{Kind: TEnum, Enum: en}, nil
	}
	// Internal function call.
	f, ok := cg.info.Funcs[id.Name]
	if !ok {
		return nil, cg.errf(x.Line, "unknown function %q", id.Name)
	}
	if len(x.Args) != len(f.Params) {
		return nil, cg.errf(x.Line, "%s takes %d arguments, got %d", f.Name, len(f.Params), len(x.Args))
	}
	for i, arg := range x.Args {
		vt, err := cg.compileExpr(arg)
		if err != nil {
			return nil, err
		}
		if vt == nil {
			return nil, cg.errf(x.Line, "void argument %d", i)
		}
		a.mstoreTo(f.Params[i].Offset)
	}
	ret := cg.fresh("call")
	a.pushLabel(ret)
	a.pushLabel("body_" + f.Name)
	a.op(evm.JUMP)
	a.label(ret)
	if len(f.Returns) == 0 {
		return nil, nil
	}
	if len(f.Returns) > 1 {
		return nil, cg.errf(x.Line, "multi-value returns are only supported at the ABI boundary")
	}
	a.mload(f.Returns[0].Offset)
	return f.Returns[0].Type, nil
}

// compilePush emits arr.push(v) for word and struct elements.
func (cg *codegen) compilePush(m *Member, arg Expr, line int) (*SemType, error) {
	a := cg.a
	lv, err := cg.compileLValue(m.X)
	if err != nil {
		return nil, err
	}
	if lv.typ.Kind != TArray || lv.kind != lvStorageWord {
		return nil, cg.errf(line, "push requires a storage array")
	}
	elem := lv.typ.Elem
	// [slot]
	a.op(evm.DUP1, evm.SLOAD) // [slot, len]
	a.op(evm.DUP2)            // [slot, len, slot]
	a.pushU(scratchA)
	a.op(evm.MSTORE)
	a.pushU(32)
	a.pushU(scratchA)
	a.op(evm.SHA3) // [slot, len, dataBase]
	a.op(evm.DUP2) // [slot, len, dataBase, len]
	if elem.Slots() > 1 {
		a.pushU(uint64(elem.Slots()))
		a.op(evm.MUL)
	}
	a.op(evm.ADD) // [slot, len, target]
	vt, err := cg.compileExpr(arg)
	if err != nil {
		return nil, err
	}
	switch {
	case elem.IsWord():
		if vt == nil || !vt.IsWord() {
			return nil, cg.errf(line, "cannot push %s into %s", vt, lv.typ)
		}
		// [slot, len, target, v]
		a.op(evm.SWAP1, evm.SSTORE) // sstore(target, v)
	case elem.Kind == TStruct:
		if vt == nil || vt.Kind != TStruct || vt.Struct != elem.Struct {
			return nil, cg.errf(line, "cannot push %s into %s", vt, lv.typ)
		}
		// [slot, len, target, ptr]
		for i, f := range elem.Struct.Fields {
			a.op(evm.DUP1) // ptr
			a.pushU(uint64(32 * i))
			a.op(evm.ADD, evm.MLOAD) // val
			a.op(evm.DUP3)           // target
			a.pushU(uint64(f.SlotOffset))
			a.op(evm.ADD)
			a.op(evm.SSTORE)
		}
		a.op(evm.POP, evm.POP) // drop ptr, target
	default:
		return nil, cg.errf(line, "unsupported array element type %s", elem)
	}
	// [slot, len]: store len+1.
	a.pushU(1)
	a.op(evm.ADD)               // len+1
	a.op(evm.SWAP1, evm.SSTORE) // sstore(slot, len+1)
	return nil, nil
}

// emitStringLiteral allocates and fills a memory string, leaving its
// pointer on the stack.
func (cg *codegen) emitStringLiteral(s string) {
	a := cg.a
	padded := (len(s) + 31) / 32 * 32
	a.mload(freePtrSlot) // [ptr]
	a.op(evm.DUP1)
	a.pushU(uint64(32 + padded))
	a.op(evm.ADD)
	a.mstoreTo(freePtrSlot)
	// len
	a.pushU(uint64(len(s)))
	a.op(evm.DUP2, evm.MSTORE)
	// data chunks
	for i := 0; i < len(s); i += 32 {
		end := i + 32
		if end > len(s) {
			end = len(s)
		}
		chunk := make([]byte, 32)
		copy(chunk, s[i:end])
		a.pushBytes(chunk)
		a.op(evm.DUP2)
		a.pushU(uint64(32 + i))
		a.op(evm.ADD, evm.MSTORE)
	}
}

// compileEmit stages event arguments in the frame, builds topics and
// the ABI-encoded data section, and emits LOGn.
func (cg *codegen) compileEmit(st *EmitStmt) error {
	a := cg.a
	ev, ok := cg.info.Events[st.Event]
	if !ok {
		return cg.errf(st.Line, "unknown event %q", st.Event)
	}
	if len(st.Args) != len(ev.Params) {
		return cg.errf(st.Line, "event %s takes %d arguments", ev.Name, len(ev.Params))
	}
	// Stage every argument into a frame temp.
	temps := make([]int, len(st.Args))
	for i, arg := range st.Args {
		vt, err := cg.compileExpr(arg)
		if err != nil {
			return err
		}
		if vt == nil {
			return cg.errf(st.Line, "void event argument")
		}
		temps[i] = cg.fn.frameNext
		cg.fn.frameNext += 32
		a.mstoreTo(temps[i])
	}
	// Topic0 from the ABI event signature.
	abiEv := abi.Event{Name: ev.Name}
	for _, p := range ev.Params {
		at, err := abiType(p.Type)
		if err != nil {
			return err
		}
		abiEv.Inputs = append(abiEv.Inputs, abi.Arg{Name: p.Name, Type: at, Indexed: p.Indexed})
	}
	topic0 := abiEv.Topic()

	// Indexed params become topics (strings are hashed).
	var indexed []int
	var dataSrcs []encodeSrc
	for i, p := range ev.Params {
		if p.Indexed {
			if !p.Type.IsWord() && p.Type.Kind != TString {
				return cg.errf(st.Line, "indexed event parameter of type %s is unsupported", p.Type)
			}
			indexed = append(indexed, i)
		} else {
			dataSrcs = append(dataSrcs, encodeSrc{offset: temps[i], typ: p.Type})
		}
	}
	if len(indexed) > 3 {
		return cg.errf(st.Line, "at most 3 indexed parameters")
	}
	// Push topics in reverse pop order: topic_t ... topic_1.
	for j := len(indexed) - 1; j >= 0; j-- {
		i := indexed[j]
		p := ev.Params[i]
		if p.Type.Kind == TString {
			// keccak over the string bytes.
			a.mload(temps[i])         // ptr
			a.op(evm.DUP1, evm.MLOAD) // [ptr, len]
			a.op(evm.SWAP1)
			a.pushU(32)
			a.op(evm.ADD)  // [len, dataptr]
			a.op(evm.SHA3) // keccak(dataptr, len)
		} else {
			a.mload(temps[i])
		}
	}
	a.pushBytes(topic0[:])
	// Data section.
	if err := cg.emitEncode(dataSrcs); err != nil {
		return err
	}
	// [topics..., size, base]: LOGn pops offset, size, topics.
	logOp := evm.OpCode(byte(evm.LOG0) + byte(1+len(indexed)))
	a.op(logOp)
	return nil
}
