package core

import (
	"fmt"
	"reflect"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/web3"
)

// loadSnapshotOldestFirst is the merge LoadSnapshot made before it read
// newest first: resolve the whole alias chain, then read every key and
// value of every namespace, deepest ancestor first, newer values
// overwriting older ones. It is the oracle for the newest-first read.
func loadSnapshotOldestFirst(t *testing.T, m *Manager, from, addr ethtypes.Address) map[string]string {
	t.Helper()
	out := map[string]string{}
	ds := m.boundDataStorage()
	if ds == nil {
		return out
	}
	line := []ethtypes.Address{addr}
	for len(line) <= maxChainLength {
		next, err := ds.CallAddress(from, "aliasOf", line[len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		if next.IsZero() {
			break
		}
		line = append(line, next)
	}
	for i := len(line) - 1; i >= 0; i-- {
		count, err := ds.CallUint(from, "keyCount", line[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < count.Uint64(); j++ {
			key, err := ds.CallString(from, "keyAt", line[i], j)
			if err != nil {
				t.Fatal(err)
			}
			if out[key], err = ds.CallString(from, "getValue", line[i], key); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func namespace(i int) ethtypes.Address {
	return ethtypes.HexToAddress(fmt.Sprintf("0x%040x", 0xa000+i))
}

// TestLoadSnapshotMatchesOldestFirstMerge: on every line shape the
// newest-first read returns the oldest-first merge's map, seen from
// every version of the line.
func TestLoadSnapshotMatchesOldestFirstMerge(t *testing.T) {
	m, accs := rig(t)
	from := accs[0].Address
	set := func(ns int, key, val string) {
		t.Helper()
		if _, err := m.SetValue(from, namespace(ns), key, val); err != nil {
			t.Fatal(err)
		}
	}
	adopt := func(ns, prev int) {
		t.Helper()
		if _, err := m.AdoptNamespace(from, namespace(ns), namespace(prev)); err != nil {
			t.Fatal(err)
		}
	}
	// ns1 ← ns2 ← ns3 ← ns4 ← ns5: "rent" is overridden at ns2 and again
	// at ns5, "fine" first appears in ns3, ns4 holds no keys.
	set(1, "rent", "1")
	set(1, "house", "Berlin")
	set(2, "rent", "2")
	set(3, "fine", "3")
	set(5, "rent", "5")
	set(5, "house", "Hamburg")
	for ns := 2; ns <= 5; ns++ {
		adopt(ns, ns-1)
	}
	// ns6 is a MigrateData copy of ns5's view; ns7 adopts it and adds a
	// key; ns8 adopts ns7 and overrides one of the copied keys.
	if n, _, err := m.MigrateData(from, namespace(5), namespace(6)); err != nil || n != 3 {
		t.Fatalf("MigrateData copied %d pairs, %v", n, err)
	}
	adopt(7, 6)
	set(7, "pets", "allowed")
	adopt(8, 7)
	set(8, "fine", "8")

	want := map[int]map[string]string{
		4: {"rent": "2", "house": "Berlin", "fine": "3"},
		5: {"rent": "5", "house": "Hamburg", "fine": "3"},
		6: {"rent": "5", "house": "Hamburg", "fine": "3"},
		8: {"rent": "5", "house": "Hamburg", "fine": "8", "pets": "allowed"},
	}
	for ns := 1; ns <= 8; ns++ {
		got, err := m.LoadSnapshot(from, namespace(ns))
		if err != nil {
			t.Fatal(err)
		}
		if oracle := loadSnapshotOldestFirst(t, m, from, namespace(ns)); !reflect.DeepEqual(got, oracle) {
			t.Errorf("ns%d: newest first %v, oldest first %v", ns, got, oracle)
		}
		if w, ok := want[ns]; ok && !reflect.DeepEqual(got, w) {
			t.Errorf("ns%d: snapshot %v, want %v", ns, got, w)
		}
	}
}

// TestMigrateDataDeterministic: the copy writes its pairs in one order,
// so the same data copied on two fresh chains yields the same state root.
func TestMigrateDataDeterministic(t *testing.T) {
	var roots []ethtypes.Hash
	for run := 0; run < 2; run++ {
		var bc *chain.Blockchain
		m, accs := rigOver(t, func(b *web3.LocalBackend) web3.Backend {
			bc = b.BC
			return b
		})
		from := accs[0].Address
		for i := 0; i < 16; i++ {
			if _, err := m.SetValue(from, namespace(1), fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if n, _, err := m.MigrateData(from, namespace(1), namespace(2)); err != nil || n != 16 {
			t.Fatalf("MigrateData copied %d pairs, %v", n, err)
		}
		roots = append(roots, bc.StateRoot())
	}
	if roots[0] != roots[1] {
		t.Fatalf("state roots after the same copy differ: %s vs %s", roots[0], roots[1])
	}
}
