package minisol

import (
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// TestSlotHelpersReadCompiledStorage: MappingSlot with word, address and
// string keys, nested mappings, and LoadString in both storage forms
// find the words the compiled getters return, for strings of 0, 31, 32,
// 33 and 100 bytes and for non-ASCII text.
func TestSlotHelpersReadCompiledStorage(t *testing.T) {
	src := `
	contract K {
		uint public filler;
		mapping(uint => string) public byIndex;
		mapping(address => mapping(string => string)) public byOwner;
		string public plain;
		function set(uint i, address a, string memory k, string memory v) public {
			byIndex[i] = v;
			byOwner[a][k] = v;
			plain = v;
		}
	}`
	art := compileOne(t, src, "K")
	layout := art.Layout
	declared := func(name string) ethtypes.Hash {
		v, ok := layout.Var(name)
		if !ok {
			t.Fatalf("no %s in the layout", name)
		}
		return StorageSlot(v.Slot)
	}
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	read := func(slot ethtypes.Hash) (ethtypes.Hash, error) { return h.st.GetState(addr, slot).Bytes32(), nil }
	for i, v := range []string{"", strings.Repeat("a", 31), strings.Repeat("b", 32), strings.Repeat("c", 33), strings.Repeat("d", 100), "Grüße aus 東京"} {
		key := v + "-key"
		h.mustCall(alice, addr, art, uint256.Zero, "set", uint64(i), bob, key, v)
		for _, c := range []struct {
			name   string
			slot   ethtypes.Hash
			getter []interface{}
		}{
			{"byIndex", MappingSlot(declared("byIndex"), WordKey(uint64(i))), h.mustCall(alice, addr, art, uint256.Zero, "byIndex", uint64(i))},
			{"byOwner", MappingSlot(MappingSlot(declared("byOwner"), AddressKey(bob)), []byte(key)), h.mustCall(alice, addr, art, uint256.Zero, "byOwner", bob, key)},
			{"plain", declared("plain"), h.mustCall(alice, addr, art, uint256.Zero, "plain")},
		} {
			got, err := LoadString(c.slot, read)
			if err != nil || got != v || c.getter[0].(string) != v {
				t.Errorf("%s of %d bytes: slots %q (%v), getter %q", c.name, len(v), got, err, c.getter[0])
			}
		}
	}
}

// TestLoadStringRefusesImpossibleForms: a short form longer than 31
// bytes and a long form past the bound are errors, not reads.
func TestLoadStringRefusesImpossibleForms(t *testing.T) {
	for name, head := range map[string]ethtypes.Hash{
		"short form of 40 bytes":   {31: 80},
		"long form of 2^254 bytes": {0: 0x80, 31: 1},
	} {
		reads := 0
		_, err := LoadString(ethtypes.Hash{}, func(ethtypes.Hash) (ethtypes.Hash, error) {
			reads++
			return head, nil
		})
		if err == nil || reads != 1 {
			t.Errorf("%s: %v after %d reads; want an error after the length word", name, err, reads)
		}
	}
}

// TestArraySlotReadsCompiledArrays: the words at ArraySlot(slot, i,
// stride) + k are what the compiled getter returns for element i, field
// k — for a struct array of three one-slot fields and a plain uint
// array — and the word at slot is the array's length.
func TestArraySlotReadsCompiledArrays(t *testing.T) {
	src := `
	contract A {
		struct Entry { uint id; uint value; address who; }
		uint public filler;
		Entry[] public entries;
		uint[] public plain;
		function add(uint id, uint value, address who) public {
			entries.push(Entry(id, value, who));
			plain.push(value);
		}
	}`
	art := compileOne(t, src, "A")
	h := newHarness(t)
	addr := h.deploy(art, uint256.Zero)
	read := func(slot ethtypes.Hash) uint256.Int { return h.st.GetState(addr, slot) }
	arrays := []struct {
		name   string
		stride uint64
	}{{"entries", 3}, {"plain", 1}}
	for n := uint64(1); n <= 5; n++ {
		h.mustCall(alice, addr, art, uint256.Zero, "add", 7*n, 1000+n, bob)
		for _, c := range arrays {
			decl, ok := art.Layout.Var(c.name)
			if outs := len(art.ABI.Methods[c.name].Outputs); !ok || uint64(outs) != c.stride {
				t.Fatalf("%s: declared %v, getter outputs %d; want %d", c.name, ok, outs, c.stride)
			}
			slot := StorageSlot(decl.Slot)
			if got := read(slot); got != uint256.NewUint64(n) {
				t.Fatalf("%s: length word %s after %d pushes", c.name, got, n)
			}
			for i := uint64(0); i < n; i++ {
				elem := ArraySlot(slot, i, c.stride)
				first := uint256.SetBytes(elem[:])
				for k, want := range h.mustCall(alice, addr, art, uint256.Zero, c.name, i) {
					w := read(ethtypes.Hash(first.Add(uint256.NewUint64(uint64(k))).Bytes32()))
					if a, ok := want.(ethtypes.Address); ok {
						want = uint256.SetBytes(a[:])
					}
					if w != want.(uint256.Int) {
						t.Errorf("%s[%d] field %d: storage %s, getter %v", c.name, i, k, w, want)
					}
				}
			}
		}
	}
}
