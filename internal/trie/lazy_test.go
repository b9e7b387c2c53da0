package trie

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
)

// mapResolver backs a lazy trie with an in-memory node map — the
// minimal Resolver, with knobs for simulating a corrupt store.
type mapResolver map[ethtypes.Hash][]byte

var errNodeGone = errors.New("node not in store")

func (m mapResolver) ResolveNode(h ethtypes.Hash) ([]byte, error) {
	enc, ok := m[h]
	if !ok {
		return nil, errNodeGone
	}
	return enc, nil
}

// buildLazyFixture hashes a populated trie into a node store and
// returns a fresh lazy trie over it plus the expected key set. Every
// key maps to "v:<key>".
func buildLazyFixture(t *testing.T, keys []string) (*Trie, mapResolver, ethtypes.Hash) {
	t.Helper()
	src := New()
	for _, k := range keys {
		src.Put([]byte(k), []byte("v:"+k))
	}
	store := mapResolver{}
	root := src.HashCollect(func(h ethtypes.Hash, enc []byte) {
		store[h] = append([]byte(nil), enc...)
	})
	return NewFromRoot(root, store), store, root
}

var lazyKeys = []string{
	"do", "dog", "doge", "dogs", "doom", "horse", "house",
	"a", "ab", "abc", "abd", "b", "key-0", "key-1", "key-42",
}

func TestLazyIteratorResolvesUnloadedNodes(t *testing.T) {
	lazy, _, root := buildLazyFixture(t, lazyKeys)

	for _, k := range lazyKeys {
		v, ok, err := lazy.TryGet([]byte(k))
		if err != nil || !ok || string(v) != "v:"+k {
			t.Fatalf("TryGet(%q) over intact store = %q, %v, %v", k, v, ok, err)
		}
	}
	for _, k := range []string{"", "d", "doing", "hors", "key-4"} {
		if _, ok, err := lazy.TryGet([]byte(k)); err != nil || ok {
			t.Fatalf("TryGet(%q) of an absent key: ok=%v err=%v", k, ok, err)
		}
	}
	// Reads resolve into throwaway nodes: the trie stays unloaded.
	if _, unloaded := lazy.root.(hashNode); !unloaded || lazy.Hash() != root {
		t.Fatal("reads materialised the lazy trie")
	}
}

func TestLazyIteratorAfterPartialMutation(t *testing.T) {
	// Mutating a lazy trie materialises only the touched path; reads
	// must still see old (still-unloaded) and new entries, and the root
	// must be that of the same key set built in memory.
	lazy, _, _ := buildLazyFixture(t, lazyKeys)
	lazy.Put([]byte("zebra"), []byte("v:zebra"))
	lazy.Delete([]byte("doom"))

	oracle := New()
	for _, k := range append(lazyKeys, "zebra") {
		if k != "doom" {
			oracle.Put([]byte(k), []byte("v:"+k))
		}
	}
	if got, want := lazy.Hash(), oracle.Hash(); got != want {
		t.Fatalf("mutated lazy root %s, oracle %s", got, want)
	}
	for _, k := range []string{"zebra", "horse", "key-42"} {
		if v, ok, err := lazy.TryGet([]byte(k)); err != nil || !ok || string(v) != "v:"+k {
			t.Fatalf("TryGet(%q) after mutation = %q, %v, %v", k, v, ok, err)
		}
	}
	if _, ok, err := lazy.TryGet([]byte("doom")); err != nil || ok {
		t.Fatalf("deleted key still read: ok=%v err=%v", ok, err)
	}
}

// firstMissing reads every fixture key and returns the first
// resolution failure, which must be a *MissingNodeError.
func firstMissing(t *testing.T, lazy *Trie) *MissingNodeError {
	t.Helper()
	for _, k := range lazyKeys {
		if _, _, err := lazy.TryGet([]byte(k)); err != nil {
			var miss *MissingNodeError
			if !errors.As(err, &miss) {
				t.Fatalf("TryGet(%q): err = %v, want *MissingNodeError", k, err)
			}
			return miss
		}
	}
	t.Fatal("no read touched the damaged node")
	return nil
}

func TestLazyIteratorMissingNodeTypedError(t *testing.T) {
	lazy, store, root := buildLazyFixture(t, lazyKeys)

	// Drop one non-root node so reads start fine and fail mid-walk,
	// naming the dropped node.
	var dropped ethtypes.Hash
	for h := range store {
		if h != root {
			dropped = h
			delete(store, h)
			break
		}
	}
	if miss := firstMissing(t, lazy); miss.Hash != dropped || !errors.Is(miss, errNodeGone) {
		t.Fatalf("missing node error %v, want hash %s and the store's cause", miss, dropped)
	}
}

func TestLazyIteratorCorruptEncodingTypedError(t *testing.T) {
	lazy, store, root := buildLazyFixture(t, lazyKeys)

	// Flip a byte: content-hash verification must reject the node with
	// a typed error, not decode garbage.
	var tampered ethtypes.Hash
	for h, enc := range store {
		if h == root {
			continue
		}
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x01
		store[h] = bad
		tampered = h
		break
	}
	if miss := firstMissing(t, lazy); miss.Hash != tampered {
		t.Fatalf("tampered node: error names %s, want %s", miss.Hash, tampered)
	}
}

func TestLazyProveVerifyRoundTrip(t *testing.T) {
	lazy, _, root := buildLazyFixture(t, lazyKeys)

	for _, k := range lazyKeys {
		gotRoot, proof, err := lazy.Prove([]byte(k))
		if err != nil {
			t.Fatalf("Prove(%q) over lazy trie: %v", k, err)
		}
		if gotRoot != root {
			t.Fatalf("Prove(%q) root %s, want %s", k, gotRoot, root)
		}
		val, ok, err := VerifyProof(root, []byte(k), proof)
		if err != nil || !ok {
			t.Fatalf("VerifyProof(%q): ok=%v err=%v", k, ok, err)
		}
		if want := "v:" + k; string(val) != want {
			t.Fatalf("proof value %q, want %q", val, want)
		}
	}
	// Proof of absence still works through unloaded subtrees.
	_, proof, err := lazy.Prove([]byte("doing"))
	if err != nil {
		t.Fatalf("absence proof: %v", err)
	}
	if _, ok, err := VerifyProof(root, []byte("doing"), proof); ok || err != nil {
		t.Fatalf("absence proof verified as present: ok=%v err=%v", ok, err)
	}
}

func TestLazyProveMissingNodeTypedError(t *testing.T) {
	lazy, store, root := buildLazyFixture(t, lazyKeys)
	for h := range store {
		if h != root {
			delete(store, h)
		}
	}
	var miss *MissingNodeError
	failed := false
	for _, k := range lazyKeys {
		if _, _, err := lazy.Prove([]byte(k)); err != nil {
			if !errors.As(err, &miss) {
				t.Fatalf("Prove(%q): err = %v, want *MissingNodeError", k, err)
			}
			failed = true
		}
	}
	if !failed {
		t.Fatal("no proof touched the gutted store")
	}
}

func TestLazyTryGetMissingNodeTypedError(t *testing.T) {
	lazy, store, root := buildLazyFixture(t, lazyKeys)
	for h := range store {
		if h != root {
			delete(store, h)
		}
	}
	failed := false
	for _, k := range lazyKeys {
		_, _, err := lazy.TryGet([]byte(k))
		if err == nil {
			continue
		}
		var miss *MissingNodeError
		if !errors.As(err, &miss) {
			t.Fatalf("TryGet(%q): err = %v, want *MissingNodeError", k, err)
		}
		if !errors.Is(err, errNodeGone) {
			t.Fatalf("TryGet(%q) lost the cause: %v", k, err)
		}
		failed = true
	}
	if !failed {
		t.Fatal("no read touched the gutted store")
	}
}

func TestLazyNoResolverTypedError(t *testing.T) {
	// A lazy root with no resolver must fail typed, not panic or
	// misreport absence.
	_, _, root := buildLazyFixture(t, lazyKeys)
	orphan := NewFromRoot(root, nil)
	_, _, err := orphan.TryGet([]byte("dog"))
	var miss *MissingNodeError
	if !errors.As(err, &miss) {
		t.Fatalf("resolver-less TryGet: err = %v, want *MissingNodeError", err)
	}
	if _, _, err := orphan.Prove([]byte("dog")); !errors.As(err, &miss) || !errors.Is(err, errNoResolver) {
		t.Fatalf("resolver-less Prove: err = %v, want *MissingNodeError", err)
	}
}

func TestLazyMutationPanicsTyped(t *testing.T) {
	// Put/Delete have no error returns; on a corrupt store they must
	// panic with the typed *MissingNodeError (so chain-level recovery
	// can classify it), never with a decode panic or nil deref.
	lazy, store, root := buildLazyFixture(t, lazyKeys)
	for h := range store {
		if h != root {
			delete(store, h)
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Put over gutted store did not panic")
		}
		err, ok := r.(error)
		var miss *MissingNodeError
		if !ok || !errors.As(err, &miss) {
			t.Fatalf("panic value %v (%T), want *MissingNodeError", r, r)
		}
	}()
	lazy.Put([]byte("dog"), []byte("other"))
}

func TestLazyUnloadRoundTrip(t *testing.T) {
	// Build in memory with a resolver attached, persist, Unload, and
	// keep using the same trie object: reads fault nodes back in and
	// the root is unchanged.
	store := mapResolver{}
	tr := New()
	tr.SetResolver(store)
	var keys []string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("account-%02d", i)
		keys = append(keys, k)
		tr.Put([]byte(k), []byte("v:"+k))
	}
	root := tr.HashCollect(func(h ethtypes.Hash, enc []byte) {
		store[h] = append([]byte(nil), enc...)
	})
	tr.Unload()
	if got := tr.Hash(); got != root {
		t.Fatalf("root after Unload = %s, want %s", got, root)
	}
	for _, k := range keys {
		v, ok := tr.Get([]byte(k))
		if !ok || !bytes.Equal(v, []byte("v:"+k)) {
			t.Fatalf("Get(%q) after Unload = %q, %v", k, v, ok)
		}
	}
	// Mutate the unloaded trie (exercises mustResolve through the
	// resolver), then verify against a from-scratch oracle.
	tr.Put([]byte("account-99"), []byte("v:account-99"))
	tr.Delete([]byte("account-00"))
	oracle := New()
	for _, k := range keys[1:] {
		oracle.Put([]byte(k), []byte("v:"+k))
	}
	oracle.Put([]byte("account-99"), []byte("v:account-99"))
	if got, want := tr.Hash(), oracle.Hash(); got != want {
		t.Fatalf("mutated unloaded trie root %s, oracle %s", got, want)
	}
}

// The Walk tests drive WalkNodeGraph, the one walk over a stored trie
// (node stores mark their live set with it during compaction).

// storedFixture hashes a trie of keys, each mapping to "v:<key>", into
// a node store and returns the store and root.
func storedFixture(keys []string) (mapResolver, ethtypes.Hash) {
	tr := New()
	for _, k := range keys {
		tr.Put([]byte(k), []byte("v:"+k))
	}
	store := mapResolver{}
	root := tr.HashCollect(func(h ethtypes.Hash, enc []byte) { store[h] = enc })
	return store, root
}

func TestWalkOrderAndCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	model := map[string]bool{}
	var keys []string
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%03d", r.Intn(500))
		if !model[k] {
			model[k] = true
			keys = append(keys, k)
		}
	}
	store, root := storedFixture(keys)
	visited := map[ethtypes.Hash]bool{}
	var leaves []string
	err := WalkNodeGraph(root, store, func(h ethtypes.Hash, enc []byte) error {
		if ethtypes.Keccak256(enc) != h || visited[h] {
			t.Fatalf("node %s visited twice or with a foreign encoding", h)
		}
		visited[h] = true
		return nil
	}, func(v []byte) error {
		leaves = append(leaves, strings.TrimPrefix(string(v), "v:"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != len(store) {
		t.Fatalf("visited %d nodes, store holds %d", len(visited), len(store))
	}
	// Keys of one length put no value in a branch, so leaves come in
	// key order.
	sort.Strings(keys)
	if strings.Join(leaves, ",") != strings.Join(keys, ",") {
		t.Fatalf("leaves %v, want %v", leaves, keys)
	}
}

func TestWalkPrefixKeys(t *testing.T) {
	keys := []string{"a", "ab", "abc", "b", ""}
	store, root := storedFixture(keys)
	var leaves []string
	if err := WalkNodeGraph(root, store, nil, func(v []byte) error {
		leaves = append(leaves, strings.TrimPrefix(string(v), "v:"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(leaves)
	sort.Strings(keys)
	if strings.Join(leaves, ",") != strings.Join(keys, ",") {
		t.Fatalf("leaves %q, want %q", leaves, keys)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	var keys []string
	for i := 0; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("%02d", i))
	}
	store, root := storedFixture(keys)
	errStop := errors.New("stop")
	n := 0
	err := WalkNodeGraph(root, store, nil, func([]byte) error {
		n++
		if n == 7 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || n != 7 {
		t.Fatalf("walk returned %v after %d leaves, want the callback's error after 7", err, n)
	}
}

func TestWalkEmptyTrie(t *testing.T) {
	for _, root := range []ethtypes.Hash{{}, EmptyRoot} {
		err := WalkNodeGraph(root, nil, func(ethtypes.Hash, []byte) error {
			t.Fatal("empty trie visited a node")
			return nil
		}, func([]byte) error {
			t.Fatal("empty trie yielded a leaf")
			return nil
		})
		if err != nil {
			t.Fatalf("walk of root %s: %v", root, err)
		}
	}
}
