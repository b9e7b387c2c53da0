package minisol

import (
	"fmt"

	"legalchain/internal/abi"
)

// TypeKind enumerates semantic types.
type TypeKind int

// Semantic type kinds.
const (
	TUint TypeKind = iota
	TAddress
	TBool
	TString
	TBytes32
	TMapping
	TArray
	TStruct
	TEnum
)

// SemType is a resolved type.
type SemType struct {
	Kind    TypeKind
	Bits    int // TUint
	Payable bool
	Key     *SemType // TMapping
	Value   *SemType // TMapping
	Elem    *SemType // TArray
	Struct  *StructInfo
	Enum    *EnumInfo
}

// IsWord reports whether values of this type fit in one stack word.
func (t *SemType) IsWord() bool {
	switch t.Kind {
	case TUint, TAddress, TBool, TBytes32, TEnum:
		return true
	}
	return false
}

// isStringArray reports whether t is string[], the one array type a
// function parameter may have: a pointer into the argument blob that
// supports only .length and bounds-checked indexing.
func isStringArray(t *SemType) bool {
	return t.Kind == TArray && t.Elem.Kind == TString
}

// Slots returns the number of storage slots a value occupies.
func (t *SemType) Slots() int {
	if t.Kind == TStruct {
		return t.Struct.Slots
	}
	return 1
}

// String renders the type for error messages.
func (t *SemType) String() string {
	switch t.Kind {
	case TUint:
		return fmt.Sprintf("uint%d", t.Bits)
	case TAddress:
		if t.Payable {
			return "address payable"
		}
		return "address"
	case TBool:
		return "bool"
	case TString:
		return "string"
	case TBytes32:
		return "bytes32"
	case TMapping:
		return fmt.Sprintf("mapping(%s => %s)", t.Key, t.Value)
	case TArray:
		return t.Elem.String() + "[]"
	case TStruct:
		return "struct " + t.Struct.Name
	case TEnum:
		return "enum " + t.Enum.Name
	}
	return "<invalid>"
}

// sameType is structural type equality (loose on uint widths).
func sameType(a, b *SemType) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TStruct:
		return a.Struct == b.Struct
	case TEnum:
		return a.Enum == b.Enum
	case TArray:
		return sameType(a.Elem, b.Elem)
	case TMapping:
		return sameType(a.Key, b.Key) && sameType(a.Value, b.Value)
	}
	return true
}

// StructField is one resolved struct field.
type StructField struct {
	Name       string
	Type       *SemType
	SlotOffset int // slots from the struct base
}

// StructInfo is a resolved struct.
type StructInfo struct {
	Name   string
	Fields []StructField
	Slots  int
}

// Field finds a field by name.
func (s *StructInfo) Field(name string) (StructField, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return StructField{}, false
}

// EnumInfo is a resolved enum.
type EnumInfo struct {
	Name    string
	Members []string
}

// MemberIndex finds a member ordinal.
func (e *EnumInfo) MemberIndex(name string) (int, bool) {
	for i, m := range e.Members {
		if m == name {
			return i, true
		}
	}
	return 0, false
}

// VarInfo is a resolved state variable with its storage slot.
type VarInfo struct {
	Name   string
	Type   *SemType
	Slot   int
	Public bool
}

// EventParam is a resolved event parameter.
type EventParam struct {
	Name    string
	Type    *SemType
	Indexed bool
}

// EventInfo is a resolved event.
type EventInfo struct {
	Name   string
	Params []EventParam
}

// LocalInfo is a function parameter, return value, or local variable
// with its static memory offset.
type LocalInfo struct {
	Name   string
	Type   *SemType
	Offset int // absolute memory offset of the variable's word
}

// FuncInfo is a resolved function.
type FuncInfo struct {
	Name          string
	IsConstructor bool
	Def           *FuncDef
	Params        []*LocalInfo
	Returns       []*LocalInfo
	Mutability    Mutability
	Visibility    Visibility

	// FrameBase..FrameEnd is the static memory region for this
	// function's params, returns and locals.
	FrameBase int
	frameNext int // bump pointer during analysis/codegen
	locals    map[string]*LocalInfo
	maxFrame  int
}

// ContractInfo is a fully resolved contract ready for code generation.
type ContractInfo struct {
	Name    string
	Structs map[string]*StructInfo
	Enums   map[string]*EnumInfo
	Vars    []*VarInfo
	VarMap  map[string]*VarInfo
	Events  map[string]*EventInfo
	Funcs   map[string]*FuncInfo
	Ctor    *FuncInfo
	// DispatchOrder lists externally callable functions (incl. getters)
	// in a stable order.
	DispatchOrder []string
}

// analyzer resolves one source unit.
type analyzer struct {
	unit      *SourceUnit
	contracts map[string]*ContractInfo
}

// Analyze resolves all contracts in the unit (handling inheritance) and
// returns them in declaration order.
func Analyze(unit *SourceUnit) (map[string]*ContractInfo, []string, error) {
	a := &analyzer{unit: unit, contracts: map[string]*ContractInfo{}}
	var order []string
	// Multiple passes to allow a parent declared after the child.
	remaining := append([]*ContractDef(nil), unit.Contracts...)
	for len(remaining) > 0 {
		progressed := false
		var next []*ContractDef
		for _, cd := range remaining {
			if cd.Parent != "" && a.contracts[cd.Parent] == nil {
				next = append(next, cd)
				continue
			}
			info, err := a.resolveContract(cd)
			if err != nil {
				return nil, nil, err
			}
			a.contracts[cd.Name] = info
			order = append(order, cd.Name)
			progressed = true
		}
		if !progressed {
			return nil, nil, fmt.Errorf("minisol: unresolvable inheritance (missing or cyclic parent for %q)", next[0].Name)
		}
		remaining = next
	}
	return a.contracts, order, nil
}

func (a *analyzer) resolveContract(cd *ContractDef) (*ContractInfo, error) {
	info := &ContractInfo{
		Name:    cd.Name,
		Structs: map[string]*StructInfo{},
		Enums:   map[string]*EnumInfo{},
		VarMap:  map[string]*VarInfo{},
		Events:  map[string]*EventInfo{},
		Funcs:   map[string]*FuncInfo{},
	}
	// Inherit from parent.
	if cd.Parent != "" {
		parent := a.contracts[cd.Parent]
		for k, v := range parent.Structs {
			info.Structs[k] = v
		}
		for k, v := range parent.Enums {
			info.Enums[k] = v
		}
		for _, v := range parent.Vars {
			info.Vars = append(info.Vars, v)
			info.VarMap[v.Name] = v
		}
		for k, v := range parent.Events {
			info.Events[k] = v
		}
	}
	// Structs and enums first (types may reference them).
	for _, ed := range cd.Enums {
		if len(ed.Members) == 0 || len(ed.Members) > 256 {
			return nil, fmt.Errorf("minisol: enum %s must have 1..256 members", ed.Name)
		}
		info.Enums[ed.Name] = &EnumInfo{Name: ed.Name, Members: ed.Members}
	}
	for _, sd := range cd.Structs {
		si := &StructInfo{Name: sd.Name}
		offset := 0
		for _, f := range sd.Fields {
			ft, err := a.resolveType(info, f.Type)
			if err != nil {
				return nil, fmt.Errorf("minisol: struct %s.%s: %w", sd.Name, f.Name, err)
			}
			if !ft.IsWord() {
				return nil, fmt.Errorf("minisol: struct %s.%s: only word-sized field types are supported in structs", sd.Name, f.Name)
			}
			si.Fields = append(si.Fields, StructField{Name: f.Name, Type: ft, SlotOffset: offset})
			offset += ft.Slots()
		}
		si.Slots = offset
		info.Structs[sd.Name] = si
	}
	// State variables: slots continue after inherited ones.
	slot := 0
	for _, v := range info.Vars {
		slot = v.Slot + v.Type.Slots()
	}
	for _, vd := range cd.Vars {
		vt, err := a.resolveType(info, vd.Type)
		if err != nil {
			return nil, fmt.Errorf("minisol: %s line %d: %w", vd.Name, vd.Line, err)
		}
		if _, dup := info.VarMap[vd.Name]; dup {
			return nil, fmt.Errorf("minisol: duplicate state variable %q", vd.Name)
		}
		vi := &VarInfo{Name: vd.Name, Type: vt, Slot: slot, Public: vd.Public}
		slot += vt.Slots()
		info.Vars = append(info.Vars, vi)
		info.VarMap[vd.Name] = vi
	}
	// Events.
	for _, ed := range cd.Events {
		ev := &EventInfo{Name: ed.Name}
		for _, pd := range ed.Params {
			pt, err := a.resolveType(info, pd.Type)
			if err != nil {
				return nil, fmt.Errorf("minisol: event %s: %w", ed.Name, err)
			}
			ev.Params = append(ev.Params, EventParam{Name: pd.Name, Type: pt, Indexed: pd.Indexed})
		}
		info.Events[ed.Name] = ev
	}
	// Functions (override parent by name).
	if cd.Parent != "" {
		for k, v := range a.contracts[cd.Parent].Funcs {
			info.Funcs[k] = v
		}
	}
	for _, fd := range cd.Funcs {
		fi := &FuncInfo{
			Name:          fd.Name,
			IsConstructor: fd.IsConstructor,
			Def:           fd,
			Mutability:    fd.Mutability,
			Visibility:    fd.Visibility,
			locals:        map[string]*LocalInfo{},
		}
		for _, pd := range fd.Params {
			pt, err := a.resolveType(info, pd.Type)
			if err != nil {
				return nil, fmt.Errorf("minisol: %s: param %s: %w", fd.Name, pd.Name, err)
			}
			li := &LocalInfo{Name: pd.Name, Type: pt}
			fi.Params = append(fi.Params, li)
		}
		for _, rd := range fd.Returns {
			rt, err := a.resolveType(info, rd.Type)
			if err != nil {
				return nil, fmt.Errorf("minisol: %s: return %s: %w", fd.Name, rd.Name, err)
			}
			li := &LocalInfo{Name: rd.Name, Type: rt}
			fi.Returns = append(fi.Returns, li)
		}
		if fd.IsConstructor {
			info.Ctor = fi
		} else {
			info.Funcs[fd.Name] = fi
		}
	}
	// Dispatch order: declared functions then getters, stable.
	seen := map[string]bool{}
	if cd.Parent != "" {
		for _, n := range a.contracts[cd.Parent].DispatchOrder {
			if f, ok := info.Funcs[n]; ok && (f.Visibility == Public || f.Visibility == External) {
				if !seen[n] {
					info.DispatchOrder = append(info.DispatchOrder, n)
					seen[n] = true
				}
			}
			if v, ok := info.VarMap[n]; ok && v.Public && !seen[n] {
				info.DispatchOrder = append(info.DispatchOrder, n)
				seen[n] = true
			}
		}
	}
	for _, fd := range cd.Funcs {
		if fd.IsConstructor {
			continue
		}
		if fd.Visibility == Public || fd.Visibility == External {
			if !seen[fd.Name] {
				info.DispatchOrder = append(info.DispatchOrder, fd.Name)
				seen[fd.Name] = true
			}
		}
	}
	for _, vd := range cd.Vars {
		if vd.Public && !seen[vd.Name] {
			info.DispatchOrder = append(info.DispatchOrder, vd.Name)
			seen[vd.Name] = true
		}
	}
	return info, nil
}

// resolveType maps a syntactic TypeName to a SemType.
func (a *analyzer) resolveType(info *ContractInfo, t TypeName) (*SemType, error) {
	if t.IsArray {
		elem, err := a.resolveType(info, *t.Elem)
		if err != nil {
			return nil, err
		}
		if elem.Kind == TMapping {
			return nil, fmt.Errorf("arrays of mappings are unsupported")
		}
		return &SemType{Kind: TArray, Elem: elem}, nil
	}
	switch t.Name {
	case "mapping":
		key, err := a.resolveType(info, *t.Key)
		if err != nil {
			return nil, err
		}
		if !key.IsWord() && key.Kind != TString {
			return nil, fmt.Errorf("unsupported mapping key type %s", key)
		}
		val, err := a.resolveType(info, *t.Value)
		if err != nil {
			return nil, err
		}
		return &SemType{Kind: TMapping, Key: key, Value: val}, nil
	case "uint", "uint256":
		return &SemType{Kind: TUint, Bits: 256}, nil
	case "uint8":
		return &SemType{Kind: TUint, Bits: 8}, nil
	case "uint16":
		return &SemType{Kind: TUint, Bits: 16}, nil
	case "uint32":
		return &SemType{Kind: TUint, Bits: 32}, nil
	case "uint64":
		return &SemType{Kind: TUint, Bits: 64}, nil
	case "uint128":
		return &SemType{Kind: TUint, Bits: 128}, nil
	case "int", "int256":
		return &SemType{Kind: TUint, Bits: 256}, nil // signed ints degrade to uint256 words
	case "address":
		return &SemType{Kind: TAddress, Payable: t.Payable}, nil
	case "bool":
		return &SemType{Kind: TBool}, nil
	case "string", "bytes":
		return &SemType{Kind: TString}, nil
	case "bytes32":
		return &SemType{Kind: TBytes32}, nil
	default:
		if si, ok := info.Structs[t.Name]; ok {
			return &SemType{Kind: TStruct, Struct: si}, nil
		}
		if ei, ok := info.Enums[t.Name]; ok {
			return &SemType{Kind: TEnum, Enum: ei}, nil
		}
		return nil, fmt.Errorf("unknown type %q", t.Name)
	}
}

// abiType maps a SemType to its ABI counterpart.
func abiType(t *SemType) (abi.Type, error) {
	switch t.Kind {
	case TUint:
		return abi.Type{Kind: abi.KindUint, Bits: t.Bits}, nil
	case TAddress:
		return abi.AddressType, nil
	case TBool:
		return abi.BoolType, nil
	case TString:
		return abi.StringType, nil
	case TBytes32:
		return abi.Bytes32Type, nil
	case TEnum:
		return abi.Uint8Type, nil
	case TStruct:
		var comps []abi.Arg
		for _, f := range t.Struct.Fields {
			ft, err := abiType(f.Type)
			if err != nil {
				return abi.Type{}, err
			}
			comps = append(comps, abi.Arg{Name: f.Name, Type: ft})
		}
		return abi.TupleOf(comps...), nil
	case TArray:
		et, err := abiType(t.Elem)
		if err != nil {
			return abi.Type{}, err
		}
		return abi.SliceOf(et), nil
	default:
		return abi.Type{}, fmt.Errorf("minisol: type %s has no ABI form", t)
	}
}

// BuildABI produces the contract's JSON-compatible ABI, including
// auto-generated getters for public state variables.
func BuildABI(info *ContractInfo) (*abi.ABI, error) {
	var ctor *abi.Method
	methods, events := map[string]abi.Method{}, map[string]abi.Event{}
	if info.Ctor != nil {
		m := abi.Method{Name: "", StateMutability: mutString(info.Ctor.Mutability)}
		for _, p := range info.Ctor.Params {
			at, err := abiType(p.Type)
			if err != nil {
				return nil, err
			}
			m.Inputs = append(m.Inputs, abi.Arg{Name: p.Name, Type: at})
		}
		ctor = &m
	}
	for name, f := range info.Funcs {
		if f.Visibility != Public && f.Visibility != External {
			continue
		}
		m := abi.Method{Name: name, StateMutability: mutString(f.Mutability)}
		for _, p := range f.Params {
			at, err := abiType(p.Type)
			if err != nil {
				return nil, err
			}
			m.Inputs = append(m.Inputs, abi.Arg{Name: p.Name, Type: at})
		}
		for _, r := range f.Returns {
			at, err := abiType(r.Type)
			if err != nil {
				return nil, err
			}
			m.Outputs = append(m.Outputs, abi.Arg{Name: r.Name, Type: at})
		}
		methods[name] = m
	}
	// Getters.
	for _, v := range info.Vars {
		if !v.Public {
			continue
		}
		m, err := getterMethod(v)
		if err != nil {
			return nil, err
		}
		methods[v.Name] = m
	}
	for name, e := range info.Events {
		ev := abi.Event{Name: name}
		for _, p := range e.Params {
			at, err := abiType(p.Type)
			if err != nil {
				return nil, err
			}
			ev.Inputs = append(ev.Inputs, abi.Arg{Name: p.Name, Type: at, Indexed: p.Indexed})
		}
		events[name] = ev
	}
	return abi.New(ctor, methods, events), nil
}

// getterMethod derives the ABI method of a public state variable:
// mappings add one input per key level, arrays add an index input,
// structs return their word fields as a flat tuple.
func getterMethod(v *VarInfo) (abi.Method, error) {
	m := abi.Method{Name: v.Name, StateMutability: "view"}
	t := v.Type
	for {
		if t.Kind == TMapping {
			kt, err := abiType(t.Key)
			if err != nil {
				return m, err
			}
			m.Inputs = append(m.Inputs, abi.Arg{Type: kt})
			t = t.Value
			continue
		}
		if t.Kind == TArray {
			m.Inputs = append(m.Inputs, abi.Arg{Type: abi.Uint256Type})
			t = t.Elem
			continue
		}
		break
	}
	if t.Kind == TStruct {
		for _, f := range t.Struct.Fields {
			ft, err := abiType(f.Type)
			if err != nil {
				return m, err
			}
			m.Outputs = append(m.Outputs, abi.Arg{Name: f.Name, Type: ft})
		}
		return m, nil
	}
	ot, err := abiType(t)
	if err != nil {
		return m, err
	}
	m.Outputs = append(m.Outputs, abi.Arg{Type: ot})
	return m, nil
}

func mutString(m Mutability) string {
	switch m {
	case Payable:
		return "payable"
	case View:
		return "view"
	case Pure:
		return "pure"
	default:
		return "nonpayable"
	}
}
