package contracts

import (
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// dsStrings are the keys and values a script picks from: both sides of
// the 32-byte short/long storage form (0, 31, 32, 33 and 65+ bytes),
// keys that repeat, and non-ASCII text. A script can also take its own
// bytes as a string.
var dsStrings = []string{
	"",
	"a",
	"rent",
	strings.Repeat("k", 31),
	strings.Repeat("v", 32),
	strings.Repeat("w", 33),
	strings.Repeat("x", 65),
	strings.Repeat("long value ", 12),
	"Grüße aus 東京 🏠",
	"\x00\xff\x80 not utf-8 \xc3",
}

// dsNamespaces are the four namespaces a script writes. Four is few
// enough that adoptions close cycles.
var dsNamespaces = []ethtypes.Address{
	ethtypes.HexToAddress("0x00000000000000000000000000000000000000a1"),
	ethtypes.HexToAddress("0x00000000000000000000000000000000000000a2"),
	ethtypes.HexToAddress("0x00000000000000000000000000000000000000a3"),
	ethtypes.HexToAddress("0x00000000000000000000000000000000000000a4"),
}

// dsScript reads a fuzz input as DataStorage writes.
type dsScript struct {
	data []byte
	used map[string]bool // every key the script wrote
}

func (s *dsScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *dsScript) ns() ethtypes.Address { return dsNamespaces[int(s.byte())%len(dsNamespaces)] }

// str is one of dsStrings, or the next n input bytes for n < 100.
func (s *dsScript) str() string {
	b := int(s.byte())
	if b < len(dsStrings) {
		return dsStrings[b]
	}
	n := min((b-len(dsStrings))%100, len(s.data))
	out := string(s.data[:n])
	s.data = s.data[n:]
	return out
}

// FuzzDataStorageSlots runs a script of setValue, setValues and
// adoptNamespace writes on a compiled DataStorage, then reads every
// namespace through DataStorageState's slot arithmetic and through the
// compiled getters, and requires the same answer from both, value for
// value: aliasOf, keyCount, every keyAt (and the one past the end),
// and hasKey and getValue of every key written and every stock string.
func FuzzDataStorageSlots(f *testing.F) {
	// setValue of every stock string as key and value, in namespace 0.
	var all []byte
	for i := range dsStrings {
		all = append(all, 0, 0, byte(i), byte(len(dsStrings)-1-i))
	}
	f.Add(all)
	// Overwrite a short value with a long one and back.
	f.Add([]byte{0, 1, 2, 1, 0, 1, 2, 7, 0, 1, 2, 3})
	// setValues of three pairs, a repeated key among them.
	f.Add([]byte{1, 2, 3, 1, 4, 2, 6, 1, 8})
	// Alias cycle: a1 adopts a2, a2 adopts a3, a3 adopts a1; a namespace
	// adopting itself reverts.
	f.Add([]byte{2, 0, 1, 2, 1, 2, 2, 2, 0, 2, 3, 3, 0, 3, 5, 6})
	// Keys and values taken from the input: 0, 33 and 70 bytes.
	f.Add(append([]byte{0, 1, 10, 43}, []byte(strings.Repeat("é", 20))...))
	f.Add(append([]byte{0, 2, 80}, []byte(strings.Repeat("\x01", 75))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDSEVM(t)
		s := &dsScript{data: data, used: map[string]bool{}}
		for op := 0; op < 24 && len(s.data) > 0; op++ {
			switch s.byte() % 3 {
			case 0:
				ns, key, val := s.ns(), s.str(), s.str()
				s.used[key] = true
				if _, err := d.call(dsOwner, "setValue", ns, key, val); err != nil {
					t.Fatalf("setValue: %v", err)
				}
			case 1:
				ns := s.ns()
				var keys, values []string
				for n := s.byte() % 4; n > 0; n-- {
					keys, values = append(keys, s.str()), append(values, s.str())
					s.used[keys[len(keys)-1]] = true
				}
				if _, err := d.call(dsOwner, "setValues", ns, toArgs(keys), toArgs(values)); err != nil {
					t.Fatalf("setValues: %v", err)
				}
			case 2:
				// A namespace adopting itself reverts and changes nothing.
				d.call(dsOwner, "adoptNamespace", s.ns(), s.ns())
			}
		}

		r := &DataStorageState{Addr: d.addr, Node: d}
		for _, k := range dsStrings {
			s.used[k] = true
		}
		for _, ns := range dsNamespaces {
			if got, want := must(r.AliasOf(ns)), d.get("aliasOf", ns).(ethtypes.Address); got != want {
				t.Fatalf("AliasOf(%s) = %s, getter %s", ns, got, want)
			}
			count := must(r.KeyCount(ns))
			if want := d.get("keyCount", ns).(uint256.Int); count != want.Uint64() || !want.IsUint64() {
				t.Fatalf("KeyCount(%s) = %d, getter %s", ns, count, want)
			}
			for i := uint64(0); i <= count; i++ {
				if got, want := must(r.KeyAt(ns, i)), d.get("keyAt", ns, i).(string); got != want {
					t.Fatalf("KeyAt(%s, %d) = %q, getter %q", ns, i, got, want)
				}
			}
			for key := range s.used {
				if got, want := must(r.HasKey(ns, key)), d.get("hasKey", ns, key).(bool); got != want {
					t.Fatalf("HasKey(%s, %q) = %v, getter %v", ns, key, got, want)
				}
				if got, want := must(r.Value(ns, key)), d.get("getValue", ns, key).(string); got != want {
					t.Fatalf("Value(%s, %q) = %q, getter %q", ns, key, got, want)
				}
			}
		}
	})
}

// must is a slot read that cannot fail: the state reader returns no
// error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
