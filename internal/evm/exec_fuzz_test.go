package evm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

// FuzzExec runs the interpreter against execReference, the loop it
// replaced, on bytecode decoded from the fuzz input (genExecCase). Both
// loops start from copies of one state and must agree on everything a
// caller can observe: return data, the identical error value, gas left,
// refund, logs, the world state, EVM.Steps and the call tracer's frame
// tree.
func FuzzExec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExecAgainstReference(t, genExecCase(data))
	})
}

// execSelf is the account whose code the fuzz case runs; the other
// addresses are the targets its calls and queries pick from.
var (
	execSelf    = addrOf(0x80)
	execCaller  = addrOf(0xEE)
	execEmpty   = addrOf(0x90)
	execTargets = []ethtypes.Address{
		execCaller, execEmpty,
		ethtypes.BytesToAddress([]byte{1}), ethtypes.BytesToAddress([]byte{2}),
		ethtypes.BytesToAddress([]byte{3}), ethtypes.BytesToAddress([]byte{4}),
	}
)

// execCase is one decoded fuzz input: the code, how it is entered, with
// what calldata, value and gas.
type execCase struct {
	code  []byte
	input []byte
	gas   uint64
	value uint64
	entry int // 0 Call, 1 StaticCall, 2 Create (the code is init code)
}

func (c execCase) String() string {
	return fmt.Sprintf("entry=%d gas=%d value=%d input=%x code=%x", c.entry, c.gas, c.value, c.input, c.code)
}

// execReader hands out the fuzz input a byte at a time, then zeros.
type execReader struct {
	data []byte
	pos  int
}

func (r *execReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *execReader) more() bool { return r.pos < len(r.data) }

// Words the generator pushes: mostly small (offsets, sizes, slots,
// counts), sometimes at the edges of memory addressing and of 256 bits.
var (
	execSmall = []uint64{0, 1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 96, 0xff, 0x100, 1000, 1023, 1024, 5000, 100_000}
	execEdges = []uint256.Int{
		uint256.NewUint64(memLimit - 1), uint256.NewUint64(memLimit), uint256.NewUint64(memLimit + 1),
		uint256.NewUint64(memLimit - 32), uint256.NewUint64(1 << 63), uint256.NewUint64(^uint64(0)),
		{0, 1, 0, 0}, {0, 0, 0, 1 << 63}, uint256.Zero.Not(),
	}
)

// execInitCodes are the init codes CREATE fragments store in memory
// word 0: empty, deploy 32 bytes, revert, return more than MaxCodeSize,
// fail on an invalid opcode.
var execInitCodes = [][]byte{
	nil,
	{byte(PUSH1), 0x2a, byte(PUSH1), 0, byte(MSTORE), byte(PUSH1), 32, byte(PUSH1), 0, byte(RETURN)},
	{byte(PUSH1), 0, byte(PUSH1), 0, byte(REVERT)},
	{byte(PUSH2), 0x60, 0x01, byte(PUSH1), 0, byte(RETURN)},
	{byte(INVALID)},
}

var (
	execArith = []OpCode{ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, ADDMOD, MULMOD, EXP, SIGNEXTEND,
		LT, GT, SLT, SGT, EQ, ISZERO, AND, OR, XOR, NOT, BYTE, SHL, SHR, SAR}
	execEnv = []OpCode{ADDRESS, ORIGIN, CALLER, CALLVALUE, CALLDATASIZE, CODESIZE, GASPRICE,
		RETURNDATASIZE, COINBASE, TIMESTAMP, NUMBER, DIFFICULTY, GASLIMIT, CHAINID, SELFBALANCE,
		PC, MSIZE, GAS}
	execCallKinds = []OpCode{CALL, CALLCODE, DELEGATECALL, STATICCALL}
	// execPushers push one word more than they take: the environment
	// ops, PUSH1..PUSH32 and DUP1..DUP16 (consecutive bytes).
	execPushers = func() []OpCode {
		ops := append([]OpCode(nil), execEnv...)
		for op := PUSH1; op <= DUP16; op++ {
			ops = append(ops, op)
		}
		return ops
	}()
)

// execGen assembles one program; jumps are patched once every JUMPDEST
// is placed.
type execGen struct {
	asm
	r      *execReader
	height int // stack height along the straight line, jumps ignored
	labels []uint64
	jumps  []execJump
}

type execJump struct {
	at  int // offset of the PUSH2 immediate
	dst uint64
}

const execMaxCode = 1024

// genExecCase decodes data: two bytes of gas (×4, so 0 … 262 140), a
// mode byte (entry kind: five in eight Call, one StaticCall, two Create;
// value; calldata length), then fragments until
// the input or the code budget runs out.
func genExecCase(data []byte) execCase {
	r := &execReader{data: data}
	c := execCase{gas: (uint64(r.next())<<8 | uint64(r.next())) * 4}
	mode := r.next()
	c.entry = []int{0, 0, 0, 0, 0, 1, 2, 2}[mode%8]
	c.value = uint64(mode>>3&1) * 7
	for i := 0; i < int(mode>>4); i++ {
		c.input = append(c.input, r.next())
	}
	g := &execGen{r: r}
	for r.more() && len(g.code) < execMaxCode {
		g.fragment()
	}
	g.resolveJumps()
	c.code = g.code
	return c
}

// resolveJumps points each jump at a label ahead of it, at any label
// (perhaps a loop) for a selector in ten, or leaves the selector itself
// as a stray target (ErrInvalidJump, mostly) for one in 32.
func (g *execGen) resolveJumps() {
	for _, j := range g.jumps {
		sel, dst := j.dst, j.dst
		var ahead []uint64
		for _, l := range g.labels {
			if l > uint64(j.at) {
				ahead = append(ahead, l)
			}
		}
		switch {
		case sel < 224:
			dst = ahead[int(sel)%len(ahead)]
		case sel < 248:
			dst = g.labels[int(sel)%len(g.labels)]
		}
		g.code[j.at], g.code[j.at+1] = byte(dst>>8), byte(dst)
	}
}

// word pushes a small value, or an edge value for one selector in 32.
func (g *execGen) word() {
	g.height++
	b := g.r.next()
	if b >= 248 {
		if w := execEdges[int(b)%len(execEdges)]; !w.IsZero() {
			g.pushBytes(w.Bytes())
			return
		}
	}
	g.push(execSmall[int(b)%len(execSmall)])
}

// target pushes an address: this contract (one time in three), the
// caller, an empty account or a precompile address (0x3 is not one).
func (g *execGen) target() {
	g.height++
	b := g.r.next()
	if b%3 == 0 {
		g.op(ADDRESS)
		return
	}
	a := execTargets[int(b)%len(execTargets)]
	g.pushBytes(a[:])
}

// operands pushes words until the straight-line stack height reaches n,
// unless bare: a bare op runs on whatever the stack holds, and may
// underflow.
func (g *execGen) operands(n int, bare bool) {
	for !bare && g.height < n {
		g.word()
	}
}

// fragment appends one instruction group. Most push their own operands,
// so that programs run deep; one selector in 32 of the ops that take
// stack words runs bare.
func (g *execGen) fragment() {
	r := g.r
	switch sel := r.next() % 32; {
	case sel < 2: // PUSHn with its immediate from the input (the code may end inside it)
		n := int(r.next()%32) + 1
		g.op(PUSH1 + OpCode(n-1))
		for i := 0; i < n; i++ {
			g.code = append(g.code, r.next())
		}
		g.height++
	case sel < 6:
		g.word()
	case sel < 9:
		b := r.next()
		op := execArith[int(b)%len(execArith)]
		arity := 2
		switch op {
		case ISZERO, NOT:
			arity = 1
		case ADDMOD, MULMOD:
			arity = 3
		}
		g.operands(arity, b >= 248)
		g.op(op)
		g.height -= arity - 1
	case sel < 11:
		b := r.next()
		n := int(b%16) + 1
		g.operands(n, b >= 248)
		g.op(DUP1 + OpCode(n-1))
		g.height++
	case sel < 12:
		b := r.next()
		n := int(b%16) + 1
		g.operands(n+1, b >= 248)
		g.op(SWAP1 + OpCode(n-1))
	case sel < 14:
		g.op(execEnv[int(r.next())%len(execEnv)])
		g.height++
	case sel < 16: // memory write
		g.word()
		g.word()
		g.op([]OpCode{MSTORE, MSTORE8}[r.next()%2])
		g.height -= 2
	case sel < 18: // memory and calldata reads
		switch r.next() % 3 {
		case 0:
			g.word()
			g.op(MLOAD)
		case 1:
			g.word()
			g.word()
			g.op(SHA3)
			g.height--
		default:
			g.word()
			g.op(CALLDATALOAD)
		}
	case sel < 20: // copies, and the account queries
		switch k := r.next() % 7; k {
		case 0, 1:
			g.word()
			g.word()
			g.word()
			g.op([]OpCode{CALLDATACOPY, CODECOPY}[k])
			g.height -= 3
		case 2: // mostly in bounds of the last call's return data
			if b := r.next(); b < 192 {
				g.op(RETURNDATASIZE)
				g.push(uint64(b % 2))
				g.height += 2
			} else {
				g.word()
				g.word()
			}
			g.word()
			g.op(RETURNDATACOPY)
			g.height -= 3
		case 3:
			g.word()
			g.word()
			g.word()
			g.target()
			g.op(EXTCODECOPY)
			g.height -= 4
		default:
			g.target()
			g.op([]OpCode{BALANCE, EXTCODESIZE, EXTCODEHASH}[r.next()%3])
		}
	case sel < 22: // storage: slots 0..3, values 0..2
		b := r.next()
		if b&1 == 0 {
			g.push(uint64(b>>1) % 3)
			g.push(uint64(b>>3) % 4)
			g.op(SSTORE)
		} else {
			g.push(uint64(b>>1) % 4)
			g.op(SLOAD)
			g.height++
		}
	case sel < 23: // LOG0..LOG4
		n := int(r.next() % 5)
		for i := 0; i < n+2; i++ {
			g.word()
		}
		g.op(LOG0 + OpCode(n))
		g.height -= n + 2
	case sel < 25:
		g.labels = append(g.labels, uint64(len(g.code)))
		g.op(JUMPDEST)
	case sel < 27: // JUMP, or JUMPI on a condition
		op := JUMP
		if r.next()&1 == 1 {
			op = JUMPI
			g.word()
			g.height--
		}
		g.code = append(g.code, byte(PUSH2), 0, 0)
		g.jumps = append(g.jumps, execJump{at: len(g.code) - 2, dst: uint64(r.next())})
		g.op(op)
		// Every jump has at least one label ahead of it: this one.
		g.labels = append(g.labels, uint64(len(g.code)))
		g.op(JUMPDEST)
	case sel < 29: // one of the four CALL kinds
		kind := execCallKinds[r.next()%4]
		h := g.height
		g.word() // out size
		g.word() // out offset
		g.word() // in size
		g.word() // in offset
		if kind == CALL || kind == CALLCODE {
			g.push(uint64(r.next() % 3))
		}
		g.target()
		if b := r.next(); b%4 == 0 {
			g.op(GAS)
		} else {
			g.push([]uint64{0, 100, 2_500, 30_000, 200_000}[int(b)%5])
		}
		g.op(kind)
		g.height = h + 1
	case sel < 30: // CREATE or CREATE2 of a stored init code
		init := execInitCodes[int(r.next())%len(execInitCodes)]
		if len(init) > 0 {
			var w [32]byte
			copy(w[:], init)
			g.pushBytes(w[:])
			g.push(0)
			g.op(MSTORE)
		}
		create2 := r.next()&1 == 1
		if create2 {
			g.push(uint64(r.next()))
		}
		g.push(uint64(len(init)))
		g.push(0)
		g.push(uint64(r.next() % 3))
		if create2 {
			g.op(CREATE2)
		} else {
			g.op(CREATE)
		}
		g.height++
	case sel < 31: // RETURN or REVERT
		g.word()
		g.word()
		g.op([]OpCode{RETURN, REVERT}[r.next()%2])
		g.height -= 2
	default: // the stack at its limits, and the ops that end or break a frame
		switch r.next() % 8 {
		case 0:
			g.operands(1, false)
			g.op(POP)
			g.height--
		case 1: // loop on an op that pushes until that op overflows the stack
			op := execPushers[int(r.next())%len(execPushers)]
			if op >= DUP1 && op <= DUP16 {
				g.operands(int(op-DUP1)+1, false)
			}
			at := uint64(len(g.code))
			g.op(JUMPDEST)
			g.code = append(g.code, byte(PUSH2), byte(at>>8), byte(at), byte(op))
			if op >= PUSH1 && op <= PUSH32 {
				g.code = append(g.code, make([]byte, op-PUSH1+1)...)
			}
			g.op(SWAP1, JUMP)
		case 2:
			g.target()
			g.op(SELFDESTRUCT)
			g.height--
		case 3:
			g.operands(1, false)
			g.op(BLOCKHASH)
		case 4:
			g.op(STOP)
		case 5: // any byte at all: undefined opcodes, INVALID …
			g.code = append(g.code, r.next())
		default: // any op on a stack one word short of its operands
			op := OpCode(r.next())
			if n := execPops(op); n > 0 {
				for ; g.height > n-1; g.height-- {
					g.op(POP)
				}
				g.operands(n-1, false)
			}
			g.code = append(g.code, byte(op))
		}
	}
}

// execPops is how many words op takes off the stack, written out apart
// from the interpreter's own table so that the generator can probe it.
func execPops(op OpCode) int {
	switch {
	case op >= DUP1 && op <= DUP16:
		return int(op-DUP1) + 1
	case op >= SWAP1 && op <= SWAP16:
		return int(op-SWAP1) + 2
	case op >= LOG0 && op <= LOG4:
		return int(op-LOG0) + 2
	}
	switch op {
	case CALL, CALLCODE:
		return 7
	case DELEGATECALL, STATICCALL:
		return 6
	case EXTCODECOPY, CREATE2:
		return 4
	case ADDMOD, MULMOD, CALLDATACOPY, CODECOPY, RETURNDATACOPY, CREATE:
		return 3
	case ISZERO, NOT, BALANCE, CALLDATALOAD, EXTCODESIZE, EXTCODEHASH, BLOCKHASH, MLOAD,
		SLOAD, POP, JUMP, SELFDESTRUCT:
		return 1
	case SHA3, MSTORE, MSTORE8, SSTORE, JUMPI, RETURN, REVERT:
		return 2
	}
	for _, a := range execArith {
		if op == a {
			return 2
		}
	}
	return 0
}

// execOutcome is everything one run lets a caller observe.
type execOutcome struct {
	ret    []byte
	addr   ethtypes.Address
	gas    uint64
	err    error
	refund uint64
	logs   []*ethtypes.Log
	steps  uint64
	root   ethtypes.Hash
	trace  string
}

// execBase is the world every case starts from: a funded caller, the
// code under test with a balance and three live storage slots.
func execBase(code []byte) *state.StateDB {
	st := state.New()
	st.AddBalance(execCaller, ethtypes.Ether(10))
	st.AddBalance(execSelf, uint256.NewUint64(1_000))
	st.SetNonce(execSelf, 1)
	st.SetCode(execSelf, code)
	for slot := byte(1); slot < 4; slot++ {
		st.SetState(execSelf, ethtypes.Hash{31: slot}, uint256.NewUint64(uint64(slot)))
	}
	st.Finalise()
	st.Root()
	return st
}

// runExec runs c on a fresh execBase with exec, or execReference when
// reference is set, under tr (nil: none); a call tracer's frame tree is
// kept as JSON.
func runExec(c execCase, reference bool, tr Tracer) execOutcome {
	st := execBase(c.code)
	e := New(Context{
		ChainID: 1337, BlockNumber: 7, Time: 1_600_000_000, GasLimit: 10_000_000,
		Origin: execCaller, Coinbase: addrOf(0xCB), GasPrice: uint256.NewUint64(3),
		GetBlockHash: func(n uint64) ethtypes.Hash { return ethtypes.Keccak256([]byte{byte(n)}) },
	}, st)
	e.Tracer = tr
	if reference {
		e.interp = func(f frame) (frame, []byte, error) {
			ret, err := e.execReference(&f)
			return f, ret, err
		}
	}
	var o execOutcome
	value := uint256.NewUint64(c.value)
	switch c.entry {
	case 0:
		o.ret, o.gas, o.err = e.Call(execCaller, execSelf, c.input, c.gas, value)
	case 1:
		o.ret, o.gas, o.err = e.StaticCall(execCaller, execSelf, c.input, c.gas)
	default:
		o.ret, o.addr, o.gas, o.err = e.Create(execCaller, c.code, c.gas, value)
	}
	o.refund, o.logs, o.steps = st.GetRefund(), st.Logs(), e.Steps()
	st.Finalise()
	o.root = st.Root()
	if ct, ok := tr.(*CallTracer); ok {
		j, err := json.Marshal(ct.Result())
		if err != nil {
			panic(err)
		}
		o.trace = string(j)
	}
	return o
}

func checkExecAgainstReference(t *testing.T, c execCase) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		var tr, trRef Tracer
		if traced {
			tr, trRef = NewCallTracer(), NewCallTracer()
		}
		got := runExec(c, false, tr)
		want := runExec(c, true, trRef)
		if diff := diffExec(got, want); diff != "" {
			t.Fatalf("traced=%v: exec and execReference disagree on %s\ncase %v", traced, diff, c)
		}
	}
}

func diffExec(got, want execOutcome) string {
	switch {
	case !bytes.Equal(got.ret, want.ret):
		return fmt.Sprintf("return data: %x, reference %x", got.ret, want.ret)
	case got.err != want.err:
		return fmt.Sprintf("error: %v, reference %v", got.err, want.err)
	case got.gas != want.gas:
		return fmt.Sprintf("gas left: %d, reference %d", got.gas, want.gas)
	case got.addr != want.addr:
		return fmt.Sprintf("created address: %x, reference %x", got.addr, want.addr)
	case got.refund != want.refund:
		return fmt.Sprintf("refund: %d, reference %d", got.refund, want.refund)
	case !reflect.DeepEqual(got.logs, want.logs):
		return fmt.Sprintf("logs: %d, reference %d", len(got.logs), len(want.logs))
	case got.steps != want.steps:
		return fmt.Sprintf("steps: %d, reference %d", got.steps, want.steps)
	case got.root != want.root:
		return fmt.Sprintf("state root: %x, reference %x", got.root, want.root)
	case got.trace != want.trace:
		return fmt.Sprintf("call trace:\n%s\nreference:\n%s", got.trace, want.trace)
	}
	return ""
}

// execCorpus reads FuzzExec's committed seed corpus.
func execCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzExec", "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", p)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = []byte(data)
	}
	return out
}

// TestExecCorpusCoversEveryOpcode keeps the committed corpus worth
// running: between them its cases execute every defined opcode, end in
// every error the interpreter returns, and enter through all three
// entry kinds.
func TestExecCorpusCoversEveryOpcode(t *testing.T) {
	corpus := execCorpus(t)
	if len(corpus) == 0 {
		t.Fatal("no FuzzExec seed corpus")
	}
	seen := map[string]bool{}
	errs := map[error]bool{}
	entries := map[int]bool{}
	for _, data := range corpus {
		c := genExecCase(data)
		entries[c.entry] = true
		lg := NewStructLogger()
		errs[runExec(c, false, lg).err] = true
		for name := range lg.OpCount {
			seen[name] = true
		}
	}
	var missing []string
	for i := 0; i < 256; i++ {
		op := OpCode(i)
		if name := op.String(); !strings.HasPrefix(name, "opcode(") && !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("no corpus case executes %v", missing)
	}
	for _, err := range []error{nil, ErrOutOfGas, ErrExecutionReverted, ErrInvalidJump, ErrInvalidOpcode,
		ErrWriteProtection, ErrStackUnderflow, ErrStackOverflow, ErrReturnDataOutOfBounds} {
		if !errs[err] {
			t.Errorf("no corpus case ends in %v", err)
		}
	}
	if len(entries) != 3 {
		t.Errorf("corpus enters through %d of the 3 entry kinds", len(entries))
	}
}

// TestExecSwitchIsJumpTable keeps exec's dispatch a jump table. The Go
// compiler (cmd/compile/internal/walk/switch.go) merges consecutive
// case values that share a body into one range and emits a jump table
// when there are at least 8 ranges and they cover at least a quarter of
// the span from the lowest case value to the highest; otherwise it
// falls back to a binary search. Folding too many ops into shared cases
// drops below that line silently.
func TestExecSwitchIsJumpTable(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "interpreter.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i := 0; i < 256; i++ {
		byName[OpCode(i).String()] = i
	}
	var sw *ast.SwitchStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name != "exec" {
			return false
		}
		if s, ok := n.(*ast.SwitchStmt); ok && sw == nil {
			sw = s
		}
		return sw == nil
	})
	if sw == nil || fmt.Sprint(sw.Tag) != "op" {
		t.Fatal("exec has no switch on op")
	}
	body := map[int]int{} // case value -> index of its clause
	for i, c := range sw.Body.List {
		for _, e := range c.(*ast.CaseClause).List {
			id, ok := e.(*ast.Ident)
			if !ok {
				t.Fatalf("case %s is not an opcode constant", e)
			}
			body[byName[id.Name]] = i
		}
	}
	var values []int
	for v := range body {
		values = append(values, v)
	}
	sort.Ints(values)
	ranges := 1
	for i := 1; i < len(values); i++ {
		if values[i] != values[i-1]+1 || body[values[i]] != body[values[i-1]] {
			ranges++
		}
	}
	span := values[len(values)-1] - values[0] + 1
	if ranges < 8 || 4*ranges < span {
		t.Fatalf("exec's switch has %d case ranges over %d values: the compiler needs %d for a jump table",
			ranges, span, (span+3)/4)
	}
	t.Logf("%d case ranges over %d values (jump table from %d)", ranges, span, (span+3)/4)
}
