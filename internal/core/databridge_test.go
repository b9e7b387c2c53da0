package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/minisol"
	"legalchain/internal/rpc"
	"legalchain/internal/web3"
)

// getterReader is the data-tier reader as it was before the reads went
// to storage slots: every read is an eth_call of a DataStorage getter.
// It is the oracle for the slot reads.
type getterReader struct {
	ds   *web3.BoundContract
	from ethtypes.Address
}

func (g getterReader) eachNamespace(addr ethtypes.Address, visit func(ethtypes.Address) (bool, error)) error {
	seen := map[ethtypes.Address]bool{}
	for cur := addr; ; {
		if len(seen) == maxChainLength {
			return fmt.Errorf("core: alias chain from %s exceeds %d", addr, maxChainLength)
		}
		seen[cur] = true
		if done, err := visit(cur); done || err != nil {
			return err
		}
		next, err := g.ds.CallAddress(g.from, "aliasOf", cur)
		if err != nil {
			return err
		}
		if next.IsZero() || seen[next] {
			return nil
		}
		cur = next
	}
}

func (g getterReader) getValue(addr ethtypes.Address, key string) (string, error) {
	var val string
	err := g.eachNamespace(addr, func(ns ethtypes.Address) (bool, error) {
		has, err := g.ds.Call(g.from, "hasKey", ns, key)
		if err != nil || !has[0].(bool) {
			return false, err
		}
		val, err = g.ds.CallString(g.from, "getValue", ns, key)
		return true, err
	})
	return val, err
}

func (g getterReader) ownValue(addr ethtypes.Address, key string) (string, error) {
	return g.ds.CallString(g.from, "getValue", addr, key)
}

func (g getterReader) loadSnapshot(addr ethtypes.Address) (map[string]string, error) {
	out := map[string]string{}
	err := g.eachNamespace(addr, func(ns ethtypes.Address) (bool, error) {
		count, err := g.ds.CallUint(g.from, "keyCount", ns)
		if err != nil {
			return false, err
		}
		for j := uint64(0); j < count.Uint64(); j++ {
			key, err := g.ds.CallString(g.from, "keyAt", ns, j)
			if err != nil {
				return false, err
			}
			if _, ok := out[key]; ok {
				continue
			}
			if out[key], err = g.ds.CallString(g.from, "getValue", ns, key); err != nil {
				return false, err
			}
		}
		return false, nil
	})
	return out, err
}

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

// TestSlotReadsMatchGetters: on lines with shadowed keys, long and
// non-ASCII values, an empty namespace and an alias cycle, LoadSnapshot,
// GetValue and the own-namespace read answer what the getter-based
// reader they replaced answers, for every namespace and key.
func TestSlotReadsMatchGetters(t *testing.T) {
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
	long := strings.Repeat("a clause longer than one storage word; ", 3)
	set(1, "rent", "1")
	set(1, "", "empty key")
	set(1, "clause", long)
	set(2, "rent", strings.Repeat("9", 32))
	set(2, "Straße", "Grüße aus 東京")
	set(4, "clause", "")
	adopt(2, 1)
	adopt(3, 2)
	adopt(4, 3)
	// ns5 ← ns6 ← ns5: a cycle, each side with a key of its own.
	set(5, "five", "5")
	set(6, "six", strings.Repeat("6", 31))
	adopt(5, 6)
	adopt(6, 5)

	oracle := getterReader{ds: m.boundDataStorage(), from: from}
	keys := []string{"rent", "", "clause", "Straße", "five", "six", "absent"}
	for ns := 1; ns <= 7; ns++ {
		addr := namespace(ns)
		got, err := m.LoadSnapshot(from, addr)
		want, werr := oracle.loadSnapshot(addr)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ns%d: LoadSnapshot %v (%v), getters %v (%v)", ns, got, err, want, werr)
		}
		for _, key := range keys {
			got, err := m.GetValue(from, addr, key)
			want, werr := oracle.getValue(addr, key)
			if err != nil || werr != nil || got != want {
				t.Errorf("ns%d: GetValue(%q) = %q (%v), getters %q (%v)", ns, key, got, err, want, werr)
			}
			own, err := m.ownValue(addr, key)
			want, werr = oracle.ownValue(addr, key)
			if err != nil || werr != nil || own != want {
				t.Errorf("ns%d: ownValue(%q) = %q (%v), getters %q (%v)", ns, key, own, err, want, werr)
			}
		}
	}
	if snap, err := m.LoadSnapshot(from, namespace(4)); err != nil || snap["clause"] != "" || snap["Straße"] != "Grüße aus 東京" || snap["rent"] != strings.Repeat("9", 32) {
		t.Errorf("ns4 snapshot = %v, %v", snap, err)
	}
}

// methodCounter counts the JSON-RPC methods an HTTP handler is asked,
// and the eth_calls by selector.
type methodCounter struct {
	next      http.Handler
	mu        sync.Mutex
	n         map[string]int
	selectors map[[4]byte]int
}

func (c *methodCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	var req struct {
		Method string            `json:"method"`
		Params []json.RawMessage `json:"params"`
	}
	if json.Unmarshal(body, &req) == nil {
		var msg struct {
			Data string `json:"data"`
		}
		c.mu.Lock()
		c.n[req.Method]++
		if req.Method == "eth_call" && len(req.Params) > 0 && json.Unmarshal(req.Params[0], &msg) == nil {
			if data, err := hexutil.Decode(msg.Data); err == nil && len(data) >= 4 {
				if c.selectors == nil {
					c.selectors = map[[4]byte]int{}
				}
				c.selectors[[4]byte(data)]++
			}
		}
		c.mu.Unlock()
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	c.next.ServeHTTP(w, r)
}

func (c *methodCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

// TestDataTierReadsOverRPC: a manager whose node is a JSON-RPC client
// reads the evidence line's carried data and recorded rejections
// through eth_getStorageAt, with no eth_call, and gets the answers a
// manager over the chain in process gets.
func TestDataTierReadsOverRPC(t *testing.T) {
	var bc *chain.Blockchain
	m, accs := rigOver(t, func(b *web3.LocalBackend) web3.Backend {
		bc = b.BC
		return b
	})
	landlord := accs[0].Address
	line := evidenceLine(t, m, landlord, accs[1].Address)
	art, err := minisol.CompileContract(degradedSrc, "Degraded")
	if err != nil {
		t.Fatal(err)
	}
	expectRejection(t, m, landlord, line[len(line)-1], art, ModifyOptions{}, ethtypes.Ether(1))

	counter := &methodCounter{next: rpc.NewServer(bc, nil), n: map[string]int{}}
	srv := httptest.NewServer(counter)
	defer srv.Close()
	client, err := web3.NewClient(rpc.Dial(srv.URL), m.Client.Keystore())
	if err != nil {
		t.Fatal(err)
	}
	remote := NewManager(client, m.IPFS, m.Store)
	counter.take()
	for i, addr := range line {
		snap, err := remote.LoadSnapshot(landlord, addr)
		want, werr := m.LoadSnapshot(landlord, addr)
		if err != nil || werr != nil || !reflect.DeepEqual(snap, want) {
			t.Errorf("v%d: LoadSnapshot over rpc %v (%v), in process %v (%v)", i+1, snap, err, want, werr)
		}
		for _, key := range []string{"tenant", "clause-3", "absent"} {
			got, err := remote.GetValue(landlord, addr, key)
			want, werr := m.GetValue(landlord, addr, key)
			if err != nil || werr != nil || got != want {
				t.Errorf("v%d: GetValue(%s) over rpc %q (%v), in process %q (%v)", i+1, key, got, err, want, werr)
			}
		}
		got, err := remote.Rejections(landlord, addr)
		want2, werr := m.Rejections(landlord, addr)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want2) {
			t.Errorf("v%d: Rejections over rpc %d (%v), in process %d (%v)", i+1, len(got), err, len(want2), werr)
		}
	}
	if rejs, _ := remote.Rejections(landlord, line[len(line)-1]); len(rejs) != 1 {
		t.Errorf("the tail's rejection reads %d reports over rpc, want 1", len(rejs))
	}
	if n := counter.take(); n["eth_call"] != 0 || n["eth_getStorageAt"] == 0 {
		t.Errorf("data-tier reads over rpc asked %v; want eth_getStorageAt only", n)
	}
}
