package minisol

import (
	"errors"
	"strings"
	"testing"

	"legalchain/internal/evm"
	"legalchain/internal/uint256"
)

// joinerSrc takes string[] parameters the way DataStorage.setValues
// does: the body reads .length and indexes each array, and writes what
// it read, so a refused call can be told from an accepted one by the
// state root.
const joinerSrc = `
contract Joiner {
	uint public count;
	string public joined;
	string public label;
	event item(string value);

	constructor(string[] memory seed) public {
		count = seed.length;
	}

	function join(string[] memory xs, string memory sep) public {
		count = xs.length;
		for (uint i = 0; i < xs.length; i++) {
			emit item(xs[i]);
			label = xs[i];
		}
		joined = sep;
	}

	function pick(string[] memory xs, uint i) public pure returns (string memory) {
		return xs[i];
	}

	function pair(string[] memory a, string[] memory b) public pure returns (string memory) {
		return b[a.length];
	}
}`

func TestStringArrayParameters(t *testing.T) {
	art := compileOne(t, joinerSrc, "Joiner")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero, []interface{}{"a", "b", "c"})
	if got := asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "count")[0]); got != 3 {
		t.Fatalf("constructor count = %d, want 3", got)
	}

	long := strings.Repeat("x", 70)
	xs := []interface{}{"", "one", long, "four"}
	for i, want := range xs {
		if got := h.mustCall(alice, addr, art, uint256.Zero, "pick", xs, uint64(i))[0]; got != want {
			t.Errorf("pick(%d) = %q, want %q", i, got, want)
		}
	}
	if _, err := h.call(alice, addr, art, uint256.Zero, "pick", xs, uint64(len(xs))); err == nil {
		t.Error("index past the end accepted")
	}
	if _, err := h.call(alice, addr, art, uint256.Zero, "pick", []interface{}{}, uint64(0)); err == nil {
		t.Error("index into an empty array accepted")
	}
	if got := h.mustCall(alice, addr, art, uint256.Zero, "pair", []interface{}{"p"}, []interface{}{"q", "r"})[0]; got != "r" {
		t.Errorf("pair = %q, want r", got)
	}

	before := len(h.st.Logs())
	h.mustCall(alice, addr, art, uint256.Zero, "join", xs, "-")
	logs := h.st.Logs()[before:]
	if len(logs) != len(xs) {
		t.Fatalf("join emitted %d logs, want %d", len(logs), len(xs))
	}
	for i, l := range logs {
		dec, err := art.ABI.DecodeLog(l)
		if err != nil || dec.Args["value"] != xs[i] {
			t.Errorf("log %d = %v (%v), want %q", i, dec, err, xs[i])
		}
	}
	if got := h.mustCall(alice, addr, art, uint256.Zero, "label")[0]; got != "four" {
		t.Errorf("label = %q", got)
	}
	if got := h.mustCall(alice, addr, art, uint256.Zero, "joined")[0]; got != "-" {
		t.Errorf("joined = %q: the string after the array decoded wrong", got)
	}
	if got := asU64(t, h.mustCall(alice, addr, art, uint256.Zero, "count")[0]); got != 4 {
		t.Errorf("count = %d", got)
	}
}

// TestStringArrayHostileCalldata: a string[] argument whose words point
// outside the calldata reverts before the body runs: no panic, no state
// change, and not by running out of gas on a huge read. Each case is a
// well-formed call to join with one word replaced or the tail cut off.
func TestStringArrayHostileCalldata(t *testing.T) {
	art := compileOne(t, joinerSrc, "Joiner")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero, []interface{}{})
	good, err := art.ABI.Pack("join", []interface{}{"k1", "k2"}, "-")
	if err != nil {
		t.Fatal(err)
	}
	// Argument words (after the selector): [0] offset of xs = 0x40,
	// [1] offset of sep, [2] xs length = 2, [3] [4] element offsets
	// 0x40 0x80, [5] len("k1"), [6] "k1", [7] len("k2"), [8] "k2",
	// [9] len(sep), [10] sep.
	if n := (len(good) - 4) / 32; n != 11 {
		t.Fatalf("join calldata has %d words, want 11", n)
	}
	// empty is join([""], ""): [2] length 1, [3] offset 0x20, [4] len(""),
	// [5] len(sep). A length of 4 leaves every offset the loop reads
	// inside the blob or in the zero memory after it, so only the bound
	// on the length itself refuses it.
	empty, err := art.ABI.Pack("join", []interface{}{""}, "")
	if err != nil {
		t.Fatal(err)
	}
	setIn := func(data []byte, i int, v uint256.Int) []byte {
		out := append([]byte(nil), data...)
		b := v.Bytes32()
		copy(out[4+32*i:], b[:])
		return out
	}
	set := func(i int, v uint256.Int) []byte { return setIn(good, i, v) }
	huge := uint256.Int{0, 0, 0, 1 << 63} // 2^255
	cases := map[string][]byte{
		"array offset past the end":      set(0, uint256.NewUint64(uint64(len(good)))),
		"array offset wraps":             set(0, uint256.Max),
		"length word past the end":       good[:4+32*2],
		"length past the words":          set(2, uint256.NewUint64(8)),
		"length of 2^255":                set(2, huge),
		"length past the offset words":   setIn(empty, 2, uint256.NewUint64(4)),
		"element offset past the end":    set(4, uint256.NewUint64(0x1000)),
		"element offset wraps":           set(3, uint256.Max),
		"element length past the end":    set(7, uint256.NewUint64(0x100)),
		"element length of 2^255":        set(5, huge),
		"element bytes cut off":          good[:4+32*8],
		"array offset into the selector": set(0, uint256.Max.Sub(uint256.NewUint64(3))),
	}
	if _, err := h.call(alice, addr, art, uint256.Zero, "count"); err != nil {
		t.Fatal(err)
	}
	root := h.st.Root()
	for name, data := range cases {
		if _, _, err := h.e.Call(alice, addr, data, 5_000_000, uint256.Zero); !errors.Is(err, evm.ErrExecutionReverted) {
			t.Errorf("%s: err = %v, want a revert", name, err)
		}
		if got := h.st.Root(); got != root {
			t.Errorf("%s: state root moved", name)
		}
	}
	// The unmodified call goes through.
	if _, _, err := h.e.Call(alice, addr, good, 5_000_000, uint256.Zero); err != nil {
		t.Fatalf("well-formed join refused: %v", err)
	}
	if got := h.mustCall(alice, addr, art, uint256.Zero, "label")[0]; got != "k2" {
		t.Errorf("label = %q", got)
	}
}

// TestStringArrayShapesRefused: string[] is the only array a parameter
// may have, it cannot be assigned into, and no array is a local.
func TestStringArrayShapesRefused(t *testing.T) {
	for name, src := range map[string]string{
		"nested":         `contract X { function f(string[][] memory x) public {} }`,
		"uint array":     `contract X { function f(uint[] memory x) public {} }`,
		"returned":       `contract X { function f(string[] memory x) public pure returns (string[] memory) { return x; } }`,
		"element write":  `contract X { function f(string[] memory x) public { x[0] = "a"; } }`,
		"local":          `contract X { function f() public { string[] memory x; } }`,
		"emitted":        `contract X { event e(string[] v); function f(string[] memory x) public { emit e(x); } }`,
		"indexed":        `contract X { event e(string[] indexed v); function f(string[] memory x) public { emit e(x); } }`,
		"hashed":         `contract X { function f(string[] memory x) public { keccak256(x); } }`,
		"bad index type": `contract X { function f(string[] memory x) public { string memory s = x["a"]; } }`,
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: compiled:\n%s", name, src)
		}
	}
}
