package minisol

import (
	"errors"
	"strings"
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

// harness deploys compiled contracts on the real EVM and calls them.
type harness struct {
	t  *testing.T
	e  *evm.EVM
	st *state.StateDB
}

var (
	deployer = ethtypes.HexToAddress("0xc000000000000000000000000000000000000001")
	alice    = ethtypes.HexToAddress("0xc000000000000000000000000000000000000002")
	bob      = ethtypes.HexToAddress("0xc000000000000000000000000000000000000003")
)

func newHarness(t *testing.T) *harness {
	st := state.New()
	st.AddBalance(deployer, ethtypes.Ether(1000))
	st.AddBalance(alice, ethtypes.Ether(1000))
	st.AddBalance(bob, ethtypes.Ether(1000))
	e := evm.New(evm.Context{
		ChainID: 1337, BlockNumber: 10, Time: 1_700_000_000,
		GasLimit: 30_000_000, Origin: deployer,
	}, st)
	return &harness{t: t, e: e, st: st}
}

// deploy compiles and deploys; args are ABI-encoded constructor args.
func (h *harness) deploy(art *Artifact, value uint256.Int, args ...interface{}) ethtypes.Address {
	h.t.Helper()
	checkStoredHashes(h.t, art.ABI)
	enc, err := art.ABI.PackConstructor(args...)
	if err != nil {
		h.t.Fatalf("pack ctor: %v", err)
	}
	code := append(append([]byte(nil), art.Bytecode...), enc...)
	ret, addr, _, err := h.e.Create(deployer, code, 10_000_000, value)
	if err != nil {
		reason, _ := abi.UnpackRevertReason(ret)
		h.t.Fatalf("deploy failed: %v (reason=%q)", err, reason)
	}
	return addr
}

// call transacts from `from` with value.
func (h *harness) call(from, to ethtypes.Address, art *Artifact, value uint256.Int, method string, args ...interface{}) ([]interface{}, error) {
	h.t.Helper()
	input, err := art.ABI.Pack(method, args...)
	if err != nil {
		h.t.Fatalf("pack %s: %v", method, err)
	}
	ret, _, err := h.e.Call(from, to, input, 5_000_000, value)
	if err != nil {
		if reason, ok := abi.UnpackRevertReason(ret); ok {
			return nil, errors.New(reason)
		}
		return nil, err
	}
	return art.ABI.Unpack(method, ret)
}

func (h *harness) mustCall(from, to ethtypes.Address, art *Artifact, value uint256.Int, method string, args ...interface{}) []interface{} {
	h.t.Helper()
	out, err := h.call(from, to, art, value, method, args...)
	if err != nil {
		h.t.Fatalf("%s failed: %v", method, err)
	}
	return out
}

func compileOne(t *testing.T, src, name string) *Artifact {
	t.Helper()
	art, err := CompileContract(src, name)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	checkStoredHashes(t, art.ABI)
	return art
}

// checkStoredHashes runs on every ABI the suite compiles or deploys: the
// selector and topic BuildABI stored must equal a fresh keccak of the
// signature, and reading them must not hash (building the signature
// string is what would allocate).
func checkStoredHashes(t *testing.T, a *abi.ABI) {
	t.Helper()
	for name, m := range a.Methods {
		h := ethtypes.Keccak256([]byte(m.Signature()))
		if m.ID() != [4]byte(h[:4]) {
			t.Fatalf("method %s: stored selector %x, fresh %x", name, m.ID(), h[:4])
		}
	}
	for name, e := range a.Events {
		if want := ethtypes.Keccak256([]byte(e.Signature())); e.Topic() != want {
			t.Fatalf("event %s: stored topic %s, fresh %s", name, e.Topic(), want)
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for _, m := range a.Methods {
			_ = m.ID()
		}
		for _, e := range a.Events {
			_ = e.Topic()
		}
	})
	if allocs != 0 {
		t.Fatalf("reading selectors and topics allocated %.0f times: not stored at construction", allocs)
	}
}

func asU64(t *testing.T, v interface{}) uint64 {
	t.Helper()
	u, ok := v.(uint256.Int)
	if !ok {
		t.Fatalf("not a uint: %T", v)
	}
	return u.Uint64()
}

// --- tests ---------------------------------------------------------------

func TestCompileMinimalCounter(t *testing.T) {
	src := `
	pragma solidity ^0.5.0;
	contract Counter {
		uint public count;
		function increment() public { count = count + 1; }
		function add(uint n) public returns (uint) { count += n; return count; }
	}`
	art := compileOne(t, src, "Counter")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)

	h.mustCall(alice, addr, art, uint256.Zero, "increment")
	out := h.mustCall(alice, addr, art, uint256.Zero, "count")
	if asU64(t, out[0]) != 1 {
		t.Fatalf("count = %v", out[0])
	}
	out = h.mustCall(alice, addr, art, uint256.Zero, "add", uint64(41))
	if asU64(t, out[0]) != 42 {
		t.Fatalf("add returned %v", out[0])
	}
}

func TestConstructorArgsAndPayable(t *testing.T) {
	src := `
	contract Vault {
		uint public target;
		address payable public owner;
		constructor(uint _target) public payable {
			target = _target;
			owner = msg.sender;
		}
		function deposited() public view returns (uint) {
			return address(this).balance;
		}
	}`
	art := compileOne(t, src, "Vault")
	h := newHarness(t)
	addr := h.deploy(art, ethtypes.Ether(5), uint64(12345))
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "target")[0]) != 12345 {
		t.Fatal("ctor arg lost")
	}
	ownerOut := h.mustCall(alice, addr, art, uint256.Zero, "owner")
	if ownerOut[0].(ethtypes.Address) != deployer {
		t.Fatal("owner not deployer")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "deposited")[0]) != ethtypes.Ether(5).Uint64() {
		t.Fatal("balance wrong")
	}
}

func TestRequireRevertsWithReason(t *testing.T) {
	src := `
	contract Guard {
		address public owner;
		constructor() public { owner = msg.sender; }
		function adminOnly() public {
			require(msg.sender == owner, "caller is not the owner");
		}
	}`
	art := compileOne(t, src, "Guard")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	if _, err := h.call(deployer, addr, art, uint256.Zero, "adminOnly"); err != nil {
		t.Fatalf("owner call failed: %v", err)
	}
	_, err := h.call(alice, addr, art, uint256.Zero, "adminOnly")
	if err == nil || err.Error() != "caller is not the owner" {
		t.Fatalf("err = %v", err)
	}
}

func TestNonPayableRejectsValue(t *testing.T) {
	src := `
	contract NP {
		function ping() public returns (uint) { return 1; }
		function pay() public payable returns (uint) { return msg.value; }
	}`
	art := compileOne(t, src, "NP")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	if _, err := h.call(alice, addr, art, ethtypes.Ether(1), "ping"); err == nil {
		t.Fatal("non-payable accepted ether")
	}
	out := h.mustCall(alice, addr, art, ethtypes.Ether(1), "pay")
	if asU64(t, out[0]) != ethtypes.Ether(1).Uint64() {
		t.Fatal("msg.value wrong")
	}
}

func TestStringsStorageRoundTrip(t *testing.T) {
	src := `
	contract Names {
		string public house;
		function set(string memory _h) public { house = _h; }
		function get() public view returns (string memory) { return house; }
	}`
	art := compileOne(t, src, "Names")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)

	for _, s := range []string{
		"a",
		"12345 Main Street",
		"",                                // empty
		"exactly-thirty-one-bytes-here!!", // 31, short-form boundary
		"this string is much longer than thirty two bytes and exercises the long storage form of solidity", // long
	} {
		h.mustCall(alice, addr, art, uint256.Zero, "set", s)
		out := h.mustCall(alice, addr, art, uint256.Zero, "get")
		if out[0].(string) != s {
			t.Fatalf("round trip %q -> %q", s, out[0])
		}
		// And via the auto-getter.
		out = h.mustCall(alice, addr, art, uint256.Zero, "house")
		if out[0].(string) != s {
			t.Fatalf("getter %q -> %q", s, out[0])
		}
	}
}

func TestMappingsIncludingNestedStringKeys(t *testing.T) {
	// The paper's Fig. 3 DataStorage shape.
	src := `
	contract DataStorage {
		mapping (address => mapping(string => string)) public keyValuePairs;
		mapping (address => uint) public balances;
		function set(address c, string memory k, string memory v) public {
			keyValuePairs[c][k] = v;
		}
		function get(address c, string memory k) public view returns (string memory) {
			return keyValuePairs[c][k];
		}
		function credit(address who, uint amt) public { balances[who] += amt; }
	}`
	art := compileOne(t, src, "DataStorage")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)

	h.mustCall(alice, addr, art, uint256.Zero, "set", bob, "rent", "1500")
	h.mustCall(alice, addr, art, uint256.Zero, "set", bob, "house", "22B Baker Street, a rather long address indeed to cross thirty-two bytes")
	out := h.mustCall(alice, addr, art, uint256.Zero, "get", bob, "rent")
	if out[0].(string) != "1500" {
		t.Fatalf("get rent = %q", out[0])
	}
	// Through the public getter as well.
	out = h.mustCall(alice, addr, art, uint256.Zero, "keyValuePairs", bob, "house")
	if !strings.Contains(out[0].(string), "Baker Street") {
		t.Fatalf("nested getter = %q", out[0])
	}
	// Unset key decodes as empty string.
	out = h.mustCall(alice, addr, art, uint256.Zero, "get", alice, "rent")
	if out[0].(string) != "" {
		t.Fatalf("unset = %q", out[0])
	}
	h.mustCall(alice, addr, art, uint256.Zero, "credit", bob, uint64(70))
	h.mustCall(alice, addr, art, uint256.Zero, "credit", bob, uint64(7))
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "balances", bob)[0]) != 77 {
		t.Fatal("balances mapping")
	}
}

func TestStructArrayPushAndGetter(t *testing.T) {
	src := `
	contract Rents {
		struct PaidRent { uint Monthid; uint value; }
		PaidRent[] public paidrents;
		function pay(uint id, uint v) public {
			paidrents.push(PaidRent(id, v));
		}
		function count() public view returns (uint) { return paidrents.length; }
		function total() public view returns (uint sum) {
			for (uint i = 0; i < paidrents.length; i++) {
				sum += paidrents[i].value;
			}
			return sum;
		}
	}`
	art := compileOne(t, src, "Rents")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)

	for i := 1; i <= 5; i++ {
		h.mustCall(alice, addr, art, uint256.Zero, "pay", uint64(i), uint64(i*100))
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "count")[0]) != 5 {
		t.Fatal("count")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "total")[0]) != 1500 {
		t.Fatal("total")
	}
	out := h.mustCall(alice, addr, art, uint256.Zero, "paidrents", uint64(2))
	if asU64(t, out[0]) != 3 || asU64(t, out[1]) != 300 {
		t.Fatalf("paidrents(2) = %v", out)
	}
	// Out-of-bounds index reverts.
	if _, err := h.call(alice, addr, art, uint256.Zero, "paidrents", uint64(9)); err == nil {
		t.Fatal("OOB index accepted")
	}
}

func TestEnumsAndStateMachine(t *testing.T) {
	src := `
	contract Machine {
		enum State {Created, Started, Terminated}
		State public state;
		constructor() public { state = State.Created; }
		function start() public {
			require(state == State.Created, "bad transition");
			state = State.Started;
		}
		function terminate() public {
			require(state == State.Started, "bad transition");
			state = State.Terminated;
		}
	}`
	art := compileOne(t, src, "Machine")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "state")[0]) != 0 {
		t.Fatal("initial state")
	}
	if _, err := h.call(alice, addr, art, uint256.Zero, "terminate"); err == nil {
		t.Fatal("bad transition accepted")
	}
	h.mustCall(alice, addr, art, uint256.Zero, "start")
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "state")[0]) != 1 {
		t.Fatal("state after start")
	}
	h.mustCall(alice, addr, art, uint256.Zero, "terminate")
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "state")[0]) != 2 {
		t.Fatal("state after terminate")
	}
}

func TestEventsWithIndexedArgs(t *testing.T) {
	src := `
	contract Emitter {
		event paidRent(address indexed tenant, uint month, uint amount);
		event note(string text);
		function pay(uint m, uint amt) public {
			emit paidRent(msg.sender, m, amt);
			emit note("rent received");
		}
	}`
	art := compileOne(t, src, "Emitter")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	h.mustCall(alice, addr, art, uint256.Zero, "pay", uint64(3), uint64(1500))
	logs := h.st.Logs()
	if len(logs) != 2 {
		t.Fatalf("logs = %d", len(logs))
	}
	dec, err := art.ABI.DecodeLog(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "paidRent" {
		t.Fatal("event name")
	}
	if dec.Args["tenant"].(ethtypes.Address) != alice {
		t.Fatal("indexed tenant")
	}
	if dec.Args["amount"].(uint256.Int).Uint64() != 1500 {
		t.Fatal("amount")
	}
	dec2, err := art.ABI.DecodeLog(logs[1])
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Args["text"].(string) != "rent received" {
		t.Fatalf("string event arg = %v", dec2.Args["msg"])
	}
}

func TestEtherTransferBuiltin(t *testing.T) {
	src := `
	contract Payer {
		address payable public landlord;
		constructor() public payable { landlord = msg.sender; }
		function payout(uint amt) public {
			landlord.transfer(amt);
		}
	}`
	art := compileOne(t, src, "Payer")
	h := newHarness(t)
	addr := h.deploy(art, ethtypes.Ether(10))
	before := h.st.GetBalance(deployer)
	h.mustCall(alice, addr, art, uint256.Zero, "payout", ethtypes.Ether(4).ToBig())
	diff := h.st.GetBalance(deployer).Sub(before)
	if diff != ethtypes.Ether(4) {
		t.Fatalf("landlord received %s", ethtypes.FormatEther(diff))
	}
	// Transfer beyond balance reverts.
	if _, err := h.call(alice, addr, art, uint256.Zero, "payout", ethtypes.Ether(100).ToBig()); err == nil {
		t.Fatal("overdraft transfer accepted")
	}
}

func TestInheritanceOverride(t *testing.T) {
	src := `
	contract Base {
		uint public x;
		function set() public { x = 1; }
		function bump() public { x += 10; }
	}
	contract Derived is Base {
		uint public y;
		function set() public { x = 2; y = 3; }
	}`
	art := compileOne(t, src, "Derived")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	h.mustCall(alice, addr, art, uint256.Zero, "set")
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "x")[0]) != 2 {
		t.Fatal("override not used")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "y")[0]) != 3 {
		t.Fatal("derived var")
	}
	h.mustCall(alice, addr, art, uint256.Zero, "bump") // inherited
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "x")[0]) != 12 {
		t.Fatal("inherited function")
	}
	// The base contract compiles standalone too.
	base := compileOne(t, src, "Base")
	baddr := h.deploy(base, uint256.Zero)
	h.mustCall(alice, baddr, base, uint256.Zero, "set")
	if asU64(t, h.mustCall(alice, baddr, base, uint256.Zero, "x")[0]) != 1 {
		t.Fatal("base standalone")
	}
}

func TestInternalFunctionCalls(t *testing.T) {
	src := `
	contract Math {
		function double(uint a) internal returns (uint) { return a * 2; }
		function quad(uint a) public returns (uint) { return double(double(a)); }
		function mix(uint a, uint b) public returns (uint) { return double(a) + b; }
	}`
	art := compileOne(t, src, "Math")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "quad", uint64(5))[0]) != 20 {
		t.Fatal("quad")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "mix", uint64(5), uint64(7))[0]) != 17 {
		t.Fatal("mix")
	}
}

func TestControlFlowAndLoops(t *testing.T) {
	src := `
	contract Loops {
		function sumTo(uint n) public returns (uint s) {
			for (uint i = 1; i <= n; i++) { s += i; }
			return s;
		}
		function collatzSteps(uint n) public returns (uint steps) {
			while (n != 1) {
				if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
				steps++;
			}
			return steps;
		}
		function minOf(uint a, uint b) public returns (uint) {
			if (a < b) { return a; }
			return b;
		}
		function logic(bool p, bool q) public returns (bool) {
			return p && !q || q && !p;
		}
	}`
	art := compileOne(t, src, "Loops")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "sumTo", uint64(100))[0]) != 5050 {
		t.Fatal("sumTo")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "collatzSteps", uint64(27))[0]) != 111 {
		t.Fatal("collatz")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "minOf", uint64(9), uint64(4))[0]) != 4 {
		t.Fatal("minOf")
	}
	// XOR truth table.
	for _, c := range []struct{ p, q, want bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false},
	} {
		out := h.mustCall(alice, addr, art, uint256.Zero, "logic", c.p, c.q)
		if out[0].(bool) != c.want {
			t.Fatalf("logic(%v,%v) = %v", c.p, c.q, out[0])
		}
	}
}

func TestBlockBuiltins(t *testing.T) {
	src := `
	contract Env {
		uint public createdTimestamp;
		constructor() public { createdTimestamp = block.timestamp; }
		function info() public view returns (uint ts, uint num) {
			return (block.timestamp, block.number);
		}
	}`
	// Multi-value return via two separate exprs isn't parsed as tuple —
	// adjust: use two functions instead.
	src = `
	contract Env {
		uint public createdTimestamp;
		constructor() public { createdTimestamp = now; }
		function ts() public view returns (uint) { return block.timestamp; }
		function num() public view returns (uint) { return block.number; }
	}`
	art := compileOne(t, src, "Env")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "createdTimestamp")[0]) != 1_700_000_000 {
		t.Fatal("now in constructor")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "ts")[0]) != 1_700_000_000 {
		t.Fatal("timestamp")
	}
	if asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "num")[0]) != 10 {
		t.Fatal("number")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`contract X { uint public a = 5; }`,                          // initializer
		`contract X { function f() public { unknownVar = 1; } }`,     // unknown ident
		`contract X { function f() public { require(1 == 1, 5); } }`, // non-string reason
		`contract X is Missing { }`,                                  // missing parent
		`contract X { struct S { mapping(uint=>uint) m; } }`,         // mapping in struct
		`contract X { function f(uint a, uint b { } }`,               // syntax
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("compile accepted: %s", src)
		}
	}
}

func TestABIArtifactRoundTrip(t *testing.T) {
	src := `
	contract A {
		uint public rent;
		event e(uint x);
		constructor(uint r) public { rent = r; }
		function setRent(uint r) public { rent = r; emit e(r); }
	}`
	art := compileOne(t, src, "A")
	parsed, err := abi.ParseJSON(art.ABIJSON)
	if err != nil {
		t.Fatalf("ABI JSON invalid: %v", err)
	}
	if parsed.Methods["setRent"].ID() != art.ABI.Methods["setRent"].ID() {
		t.Fatal("selector mismatch after JSON round trip")
	}
	if parsed.Constructor == nil || len(parsed.Constructor.Inputs) != 1 {
		t.Fatal("constructor lost")
	}
}

func BenchmarkCompileRental(b *testing.B) {
	src := `
	contract BaseRental {
		struct PaidRent { uint Monthid; uint value; }
		PaidRent[] public paidrents;
		uint public rent;
		string public house;
		address payable public landlord;
		constructor(uint _rent, string memory _house) public payable {
			rent = _rent; house = _house; landlord = msg.sender;
		}
		function payRent() public payable {
			require(msg.value == rent, "wrong amount");
			landlord.transfer(msg.value);
		}
	}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMoreCompileErrors pins additional diagnostics.
func TestMoreCompileErrors(t *testing.T) {
	cases := map[string]string{
		"assign to builtin":   `contract X { function f() public { msg.sender = msg.sender; } }`,
		"unknown method":      `contract X { function f() public { g(); } }`,
		"push on non-array":   `contract X { uint a; function f() public { a.push(1); } }`,
		"transfer on uint":    `contract X { uint a; function f() public { a.transfer(1); } }`,
		"unknown event":       `contract X { function f() public { emit nothing(1); } }`,
		"event arity":         `contract X { event e(uint a); function f() public { emit e(); } }`,
		"mapping local":       `contract X { function f() public { mapping(uint=>uint) m; } }`,
		"string comparison":   `contract X { string s; function f() public returns (bool) { return s == s; } }`,
		"return arity":        `contract X { function f() public returns (uint) { return 1, 2; } }`,
		"internal call arity": `contract X { function g(uint a) internal {} function f() public { g(); } }`,
		"duplicate local":     `contract X { function f() public { uint a = 1; uint a = 2; } }`,
		"duplicate state var": `contract X { uint a; uint a; }`,
		"whole struct read":   `contract X { struct S { uint a; } S s; function f() public { S memory t = s; } }`,
	}
	for name, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEnumOutOfRangeConversion: enum conversions pass values through
// (matching Solidity 0.5's unchecked enum casts).
func TestDeepExpressionStack(t *testing.T) {
	// Deeply nested parenthesised expression exercises the operand stack.
	expr := "1"
	for i := 0; i < 60; i++ {
		expr = "(" + expr + " + 1)"
	}
	src := `contract D { function f() public returns (uint) { return ` + expr + `; } }`
	art := compileOne(t, src, "D")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	out := h.mustCall(alice, addr, art, uint256.Zero, "f")
	if asU64(t, out[0]) != 61 {
		t.Fatalf("got %v", out[0])
	}
}
