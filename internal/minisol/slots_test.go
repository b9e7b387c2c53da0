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
