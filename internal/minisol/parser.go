package minisol

import (
	"fmt"
	"math/big"
	"runtime"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse parses a minisol source unit. Parse errors deep in the grammar
// are raised as panics and recovered here; a runtime error is a bug and
// is not recovered.
func Parse(src string) (unit *SourceUnit, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if _, bug := r.(runtime.Error); !ok || bug {
				panic(r)
			}
			unit, err = nil, e
		}
	}()
	p := &parser{toks: toks}
	unit = &SourceUnit{}
	for !p.at(TokEOF, "") {
		switch {
		case p.at(TokKeyword, "pragma"):
			// pragma solidity ^0.5.0;
			for !p.at(TokPunct, ";") && !p.at(TokEOF, "") {
				p.next()
			}
			p.expect(TokPunct, ";")
		case p.at(TokKeyword, "contract"):
			unit.Contracts = append(unit.Contracts, p.parseContract())
		default:
			return nil, p.errf("expected 'pragma' or 'contract', got %q", p.cur().Text)
		}
	}
	if len(unit.Contracts) == 0 {
		return nil, fmt.Errorf("minisol: no contracts in source")
	}
	return unit, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) Token {
	if !p.at(kind, text) {
		panic(p.errf("expected %q, got %q", text, p.cur().Text))
	}
	return p.next()
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return fmt.Errorf("minisol: %d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

// parseContract handles `contract Name [is Base] { ... }`.
func (p *parser) parseContract() *ContractDef {
	tok := p.expect(TokKeyword, "contract")
	name := p.expectIdent()
	c := &ContractDef{Name: name, Line: tok.Line}
	if p.accept(TokKeyword, "is") {
		c.Parent = p.expectIdent()
	}
	p.expect(TokPunct, "{")
	for !p.accept(TokPunct, "}") {
		switch {
		case p.at(TokKeyword, "struct"):
			c.Structs = append(c.Structs, p.parseStruct())
		case p.at(TokKeyword, "enum"):
			c.Enums = append(c.Enums, p.parseEnum())
		case p.at(TokKeyword, "event"):
			c.Events = append(c.Events, p.parseEvent())
		case p.at(TokKeyword, "function"), p.at(TokKeyword, "constructor"):
			c.Funcs = append(c.Funcs, p.parseFunction())
		default:
			c.Vars = append(c.Vars, p.parseStateVars()...)
		}
	}
	return c
}

func (p *parser) expectIdent() string {
	t := p.cur()
	if t.Kind != TokIdent {
		panic(p.errf("expected identifier, got %q", t.Text))
	}
	p.next()
	return t.Text
}

func (p *parser) parseStruct() *StructDef {
	p.expect(TokKeyword, "struct")
	s := &StructDef{Name: p.expectIdent()}
	p.expect(TokPunct, "{")
	for !p.accept(TokPunct, "}") {
		t := p.parseTypeName()
		name := p.expectIdent()
		p.expect(TokPunct, ";")
		s.Fields = append(s.Fields, Param{Type: t, Name: name})
	}
	return s
}

func (p *parser) parseEnum() *EnumDef {
	p.expect(TokKeyword, "enum")
	e := &EnumDef{Name: p.expectIdent()}
	p.expect(TokPunct, "{")
	for {
		e.Members = append(e.Members, p.expectIdent())
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	p.expect(TokPunct, "}")
	return e
}

func (p *parser) parseEvent() *EventDef {
	p.expect(TokKeyword, "event")
	e := &EventDef{Name: p.expectIdent()}
	p.expect(TokPunct, "(")
	if !p.at(TokPunct, ")") {
		for {
			t := p.parseTypeName()
			indexed := p.accept(TokKeyword, "indexed")
			name := ""
			if p.cur().Kind == TokIdent {
				name = p.expectIdent()
			}
			e.Params = append(e.Params, Param{Type: t, Name: name, Indexed: indexed})
			if !p.accept(TokPunct, ",") {
				break
			}
		}
	}
	p.expect(TokPunct, ")")
	p.accept(TokKeyword, "anonymous")
	p.expect(TokPunct, ";")
	return e
}

// parseStateVars parses `Type [public|private|...] name [= init];`.
// The grammar cannot distinguish state vars from anything else here, so
// errors surface with the variable's line.
func (p *parser) parseStateVars() []*StateVarDef {
	line := p.cur().Line
	t := p.parseTypeName()
	var vars []*StateVarDef
	for {
		public := false
		for {
			switch {
			case p.accept(TokKeyword, "public"):
				public = true
			case p.accept(TokKeyword, "private"), p.accept(TokKeyword, "internal"),
				p.accept(TokKeyword, "constant"):
				// accepted and ignored (all state is internal by default)
			default:
				goto nameParse
			}
		}
	nameParse:
		name := p.expectIdent()
		if p.accept(TokPunct, "=") {
			panic(p.errf("state variable initializers are not supported; assign in the constructor"))
		}
		vars = append(vars, &StateVarDef{Type: t, Name: name, Public: public, Line: line})
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	p.expect(TokPunct, ";")
	return vars
}

// parseTypeName parses primitive, user, mapping and array types.
func (p *parser) parseTypeName() TypeName {
	var t TypeName
	if p.at(TokKeyword, "mapping") {
		p.next()
		p.expect(TokPunct, "(")
		key := p.parseTypeName()
		p.expect(TokPunct, "=>")
		val := p.parseTypeName()
		p.expect(TokPunct, ")")
		t = TypeName{Name: "mapping", Key: &key, Value: &val}
	} else {
		tok := p.cur()
		if tok.Kind != TokKeyword && tok.Kind != TokIdent {
			panic(p.errf("expected type, got %q", tok.Text))
		}
		p.next()
		t = TypeName{Name: tok.Text}
		if tok.Text == "address" && p.accept(TokKeyword, "payable") {
			t.Payable = true
		}
	}
	for p.at(TokPunct, "[") {
		p.next()
		p.expect(TokPunct, "]")
		elem := t
		t = TypeName{Name: "array", IsArray: true, Elem: &elem}
	}
	return t
}

func (p *parser) parseFunction() *FuncDef {
	f := &FuncDef{Line: p.cur().Line}
	if p.accept(TokKeyword, "constructor") {
		f.IsConstructor = true
	} else {
		p.expect(TokKeyword, "function")
		f.Name = p.expectIdent()
	}
	p.expect(TokPunct, "(")
	f.Params = p.parseParamList()
	p.expect(TokPunct, ")")
	// Modifier area: visibility, mutability, returns.
	for {
		switch {
		case p.accept(TokKeyword, "public"):
			f.Visibility = Public
		case p.accept(TokKeyword, "external"):
			f.Visibility = External
		case p.accept(TokKeyword, "internal"):
			f.Visibility = Internal
		case p.accept(TokKeyword, "private"):
			f.Visibility = Private
		case p.accept(TokKeyword, "payable"):
			f.Mutability = Payable
		case p.accept(TokKeyword, "view"), p.accept(TokKeyword, "constant"):
			f.Mutability = View
		case p.accept(TokKeyword, "pure"):
			f.Mutability = Pure
		case p.accept(TokKeyword, "returns"):
			p.expect(TokPunct, "(")
			f.Returns = p.parseParamList()
			p.expect(TokPunct, ")")
		default:
			goto body
		}
	}
body:
	p.expect(TokPunct, "{")
	f.Body = p.parseBlock()
	return f
}

// parseParamList parses `Type [memory|storage|calldata] [name], ...`.
func (p *parser) parseParamList() []Param {
	var out []Param
	if p.at(TokPunct, ")") {
		return out
	}
	for {
		t := p.parseTypeName()
		p.accept(TokKeyword, "memory")
		p.accept(TokKeyword, "storage")
		p.accept(TokKeyword, "calldata")
		name := ""
		if p.cur().Kind == TokIdent {
			name = p.expectIdent()
		}
		out = append(out, Param{Type: t, Name: name})
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	return out
}

// parseBlock parses statements until the matching '}' (consumed).
func (p *parser) parseBlock() []Stmt {
	var out []Stmt
	for !p.accept(TokPunct, "}") {
		out = append(out, p.parseStmt())
	}
	return out
}

func (p *parser) parseStmt() Stmt {
	line := p.cur().Line
	switch {
	case p.accept(TokPunct, "{"):
		// Nested bare block: flatten.
		inner := p.parseBlock()
		return &IfStmt{Cond: &BoolLit{Value: true, Line: line}, Then: inner, Line: line}

	case p.at(TokKeyword, "if"):
		p.next()
		p.expect(TokPunct, "(")
		cond := p.parseExpr()
		p.expect(TokPunct, ")")
		s := &IfStmt{Cond: cond, Line: line}
		s.Then = p.parseStmtOrBlock()
		if p.accept(TokKeyword, "else") {
			s.Else = p.parseStmtOrBlock()
		}
		return s

	case p.at(TokKeyword, "while"):
		p.next()
		p.expect(TokPunct, "(")
		cond := p.parseExpr()
		p.expect(TokPunct, ")")
		return &WhileStmt{Cond: cond, Body: p.parseStmtOrBlock(), Line: line}

	case p.at(TokKeyword, "for"):
		p.next()
		p.expect(TokPunct, "(")
		s := &ForStmt{Line: line}
		if !p.at(TokPunct, ";") {
			s.Init = p.parseSimpleStmt()
		}
		p.expect(TokPunct, ";")
		if !p.at(TokPunct, ";") {
			s.Cond = p.parseExpr()
		}
		p.expect(TokPunct, ";")
		if !p.at(TokPunct, ")") {
			s.Post = p.parseSimpleStmt()
		}
		p.expect(TokPunct, ")")
		s.Body = p.parseStmtOrBlock()
		return s

	case p.at(TokKeyword, "return"):
		p.next()
		s := &ReturnStmt{Line: line}
		if !p.at(TokPunct, ";") {
			for {
				s.Values = append(s.Values, p.parseExpr())
				if !p.accept(TokPunct, ",") {
					break
				}
			}
		}
		p.expect(TokPunct, ";")
		return s

	case p.at(TokKeyword, "require"):
		p.next()
		p.expect(TokPunct, "(")
		cond := p.parseExpr()
		reason := ""
		if p.accept(TokPunct, ",") {
			t := p.cur()
			if t.Kind != TokString {
				panic(p.errf("require reason must be a string literal"))
			}
			p.next()
			reason = t.Text
		}
		p.expect(TokPunct, ")")
		p.expect(TokPunct, ";")
		return &RequireStmt{Cond: cond, Reason: reason, Line: line}

	case p.at(TokKeyword, "revert"):
		p.next()
		reason := ""
		if p.accept(TokPunct, "(") {
			if p.cur().Kind == TokString {
				reason = p.next().Text
			}
			p.expect(TokPunct, ")")
		}
		p.expect(TokPunct, ";")
		return &RevertStmt{Reason: reason, Line: line}

	case p.at(TokKeyword, "break"):
		p.next()
		p.expect(TokPunct, ";")
		return &BreakStmt{Line: line}

	case p.at(TokKeyword, "continue"):
		p.next()
		p.expect(TokPunct, ";")
		return &ContinueStmt{Line: line}

	case p.at(TokKeyword, "emit"):
		p.next()
		name := p.expectIdent()
		p.expect(TokPunct, "(")
		var args []Expr
		if !p.at(TokPunct, ")") {
			for {
				args = append(args, p.parseExpr())
				if !p.accept(TokPunct, ",") {
					break
				}
			}
		}
		p.expect(TokPunct, ")")
		p.expect(TokPunct, ";")
		return &EmitStmt{Event: name, Args: args, Line: line}

	default:
		s := p.parseSimpleStmt()
		p.expect(TokPunct, ";")
		return s
	}
}

func (p *parser) parseStmtOrBlock() []Stmt {
	if p.accept(TokPunct, "{") {
		return p.parseBlock()
	}
	return []Stmt{p.parseStmt()}
}

// parseSimpleStmt handles declarations, assignments and expression
// statements (no trailing semicolon).
func (p *parser) parseSimpleStmt() Stmt {
	line := p.cur().Line
	// Local declaration: starts with a type keyword, or "Ident Ident".
	if p.isTypeStart() {
		t := p.parseTypeName()
		p.accept(TokKeyword, "memory")
		p.accept(TokKeyword, "storage")
		name := p.expectIdent()
		var init Expr
		if p.accept(TokPunct, "=") {
			init = p.parseExpr()
		}
		return &VarDeclStmt{Type: t, Name: name, Init: init, Line: line}
	}
	lhs := p.parseExpr()
	for _, op := range []string{"=", "+=", "-=", "*=", "/="} {
		if p.accept(TokPunct, op) {
			rhs := p.parseExpr()
			return &AssignStmt{LHS: lhs, Op: op, RHS: rhs, Line: line}
		}
	}
	if p.accept(TokPunct, "++") {
		return &AssignStmt{LHS: lhs, Op: "+=", RHS: &NumberLit{Value: big.NewInt(1), Line: line}, Line: line}
	}
	if p.accept(TokPunct, "--") {
		return &AssignStmt{LHS: lhs, Op: "-=", RHS: &NumberLit{Value: big.NewInt(1), Line: line}, Line: line}
	}
	return &ExprStmt{E: lhs, Line: line}
}

// isTypeStart reports whether the current position begins a local
// variable declaration.
func (p *parser) isTypeStart() bool {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "uint", "uint8", "uint16", "uint32", "uint64", "uint128", "uint256",
			"int", "int256", "address", "bool", "string", "bytes32", "bytes", "mapping":
			return true
		}
		return false
	}
	// "Ident Ident" (user type + variable name) is a declaration;
	// "Ident[" could be array type decl or index expression — resolve by
	// looking for "Ident [ ] Ident".
	if t.Kind == TokIdent {
		n1 := p.toks[p.pos+1]
		if n1.Kind == TokIdent {
			return true
		}
		if n1.Kind == TokPunct && n1.Text == "[" {
			n2 := p.toks[p.pos+2]
			if n2.Kind == TokPunct && n2.Text == "]" {
				return true
			}
		}
	}
	return false
}

// Expression parsing with precedence climbing.
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
	"**": 7,
}

func (p *parser) parseExpr() Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) Expr {
	left := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return left
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return left
		}
		p.next()
		right := p.parseBinary(prec + 1)
		left = &Binary{Op: t.Text, L: left, R: right, Line: t.Line}
	}
}

func (p *parser) parseUnary() Expr {
	t := p.cur()
	if t.Kind == TokPunct && (t.Text == "!" || t.Text == "-") {
		p.next()
		return &Unary{Op: t.Text, X: p.parseUnary(), Line: t.Line}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for {
		switch {
		case p.at(TokPunct, "."):
			p.next()
			name := p.cur()
			if name.Kind != TokIdent && name.Kind != TokKeyword {
				panic(p.errf("expected member name"))
			}
			p.next()
			e = &Member{X: e, Name: name.Text, Line: name.Line}
		case p.at(TokPunct, "["):
			p.next()
			idx := p.parseExpr()
			p.expect(TokPunct, "]")
			e = &Index{X: e, I: idx, Line: p.cur().Line}
		case p.at(TokPunct, "("):
			p.next()
			var args []Expr
			if !p.at(TokPunct, ")") {
				for {
					args = append(args, p.parseExpr())
					if !p.accept(TokPunct, ",") {
						break
					}
				}
			}
			p.expect(TokPunct, ")")
			e = &Call{Fn: e, Args: args, Line: p.cur().Line}
		default:
			return e
		}
	}
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		text := strings.ReplaceAll(t.Text, "_", "")
		v := new(big.Int)
		var ok bool
		if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
			_, ok = v.SetString(text[2:], 16)
		} else {
			_, ok = v.SetString(text, 10)
		}
		if !ok {
			panic(p.errf("bad number literal %q", t.Text))
		}
		// Unit suffix.
		if p.accept(TokKeyword, "ether") {
			v.Mul(v, new(big.Int).Exp(big.NewInt(10), big.NewInt(18), nil))
		} else {
			p.accept(TokKeyword, "wei")
		}
		return &NumberLit{Value: v, Line: t.Line}
	case t.Kind == TokString:
		p.next()
		return &StringLit{Value: t.Text, Line: t.Line}
	case t.Kind == TokKeyword && t.Text == "true":
		p.next()
		return &BoolLit{Value: true, Line: t.Line}
	case t.Kind == TokKeyword && t.Text == "false":
		p.next()
		return &BoolLit{Value: false, Line: t.Line}
	case t.Kind == TokKeyword && t.Text == "this":
		p.next()
		return &ThisExpr{Line: t.Line}
	case t.Kind == TokKeyword && t.Text == "now":
		p.next()
		return &Member{X: &Ident{Name: "block", Line: t.Line}, Name: "timestamp", Line: t.Line}
	case t.Kind == TokKeyword && (t.Text == "msg" || t.Text == "block"):
		p.next()
		return &Ident{Name: t.Text, Line: t.Line}
	case t.Kind == TokKeyword && isTypeKeyword(t.Text):
		// Type conversion call: address(x), uint(x), ...
		p.next()
		if t.Text == "address" {
			p.accept(TokKeyword, "payable")
		}
		return &Ident{Name: t.Text, Line: t.Line}
	case t.Kind == TokIdent:
		p.next()
		return &Ident{Name: t.Text, Line: t.Line}
	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		e := p.parseExpr()
		p.expect(TokPunct, ")")
		return e
	default:
		panic(p.errf("unexpected token %q in expression", t.Text))
	}
}

func isTypeKeyword(s string) bool {
	switch s {
	case "uint", "uint8", "uint16", "uint32", "uint64", "uint128", "uint256",
		"int", "int256", "address", "bool", "string", "bytes32", "bytes":
		return true
	}
	return false
}
