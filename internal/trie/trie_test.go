package trie

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
)

func TestEmptyRoot(t *testing.T) {
	tr := New()
	if got := tr.Hash(); got != EmptyRoot {
		t.Fatalf("empty root = %s, want %s", got, EmptyRoot)
	}
	if got := ethtypes.Keccak256([]byte{0x80}); got != EmptyRoot {
		t.Fatalf("EmptyRoot constant inconsistent with keccak(rlp(\"\"))")
	}
}

// The canonical "dog" vector from the ethereum/tests trie suite.
func TestKnownRootDogVector(t *testing.T) {
	tr := New()
	for k, v := range map[string]string{
		"do":    "verb",
		"dog":   "puppy",
		"doge":  "coin",
		"horse": "stallion",
	} {
		tr.Put([]byte(k), []byte(v))
	}
	want := ethtypes.HexToHash("0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84")
	if got := tr.Hash(); got != want {
		t.Fatalf("dog vector root = %s, want %s", got, want)
	}
}

// Root is insertion-order independent.
func TestRootOrderIndependence(t *testing.T) {
	keys := []string{"do", "dog", "doge", "horse", "", "a", "ab", "abc", "abd", "b"}
	perm := rand.New(rand.NewSource(3)).Perm(len(keys))
	t1, t2 := New(), New()
	for _, k := range keys {
		t1.Put([]byte(k), []byte("v:"+k))
	}
	for _, i := range perm {
		t2.Put([]byte(keys[i]), []byte("v:"+keys[i]))
	}
	if t1.Hash() != t2.Hash() {
		t.Fatal("root depends on insertion order")
	}
}

func TestGetPutDelete(t *testing.T) {
	tr := New()
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("empty trie returned a value")
	}
	tr.Put([]byte("key"), []byte("one"))
	if v, ok := tr.Get([]byte("key")); !ok || string(v) != "one" {
		t.Fatal("get after put")
	}
	tr.Put([]byte("key"), []byte("two"))
	if v, _ := tr.Get([]byte("key")); string(v) != "two" {
		t.Fatal("update failed")
	}
	once := New()
	once.Put([]byte("key"), []byte("two"))
	if tr.Hash() != once.Hash() {
		t.Fatal("update left the overwritten value in the trie")
	}
	if !tr.Delete([]byte("key")) {
		t.Fatal("delete reported absent")
	}
	if tr.Delete([]byte("key")) {
		t.Fatal("double delete reported present")
	}
	if tr.Hash() != EmptyRoot {
		t.Fatal("trie not empty after deleting only key")
	}
}

// Keys that are prefixes of one another exercise the terminator logic.
func TestPrefixKeys(t *testing.T) {
	tr := New()
	tr.Put([]byte("a"), []byte("1"))
	tr.Put([]byte("ab"), []byte("2"))
	tr.Put([]byte("abc"), []byte("3"))
	for k, want := range map[string]string{"a": "1", "ab": "2", "abc": "3"} {
		if v, ok := tr.Get([]byte(k)); !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v", k, v, ok)
		}
	}
	// Delete the middle key; neighbours survive.
	tr.Delete([]byte("ab"))
	if _, ok := tr.Get([]byte("ab")); ok {
		t.Fatal("deleted key still present")
	}
	if v, _ := tr.Get([]byte("a")); string(v) != "1" {
		t.Fatal("sibling destroyed")
	}
	if v, _ := tr.Get([]byte("abc")); string(v) != "3" {
		t.Fatal("descendant destroyed")
	}
}

// Property: the trie behaves exactly like a map over random workloads,
// and equal maps give equal roots.
func TestMapEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := New()
	model := map[string]string{}
	keyPool := make([]string, 50)
	for i := range keyPool {
		keyPool[i] = fmt.Sprintf("k%02d-%x", i, r.Intn(256))
	}
	for step := 0; step < 5000; step++ {
		k := keyPool[r.Intn(len(keyPool))]
		switch r.Intn(3) {
		case 0, 1: // put
			v := fmt.Sprintf("v%d", r.Intn(1000))
			tr.Put([]byte(k), []byte(v))
			model[k] = v
		case 2: // delete
			_, inModel := model[k]
			if tr.Delete([]byte(k)) != inModel {
				t.Fatalf("delete disagreement for %q", k)
			}
			delete(model, k)
		}
		got, ok := tr.Get([]byte(k))
		if want, inModel := model[k]; ok != inModel || string(got) != want {
			t.Fatalf("step %d: Get(%q) = %q, %v; model %q, %v", step, k, got, ok, want, inModel)
		}
	}
	for k, v := range model {
		got, ok := tr.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("final Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
	// Rebuild from the model: roots must match.
	rebuilt := New()
	for k, v := range model {
		rebuilt.Put([]byte(k), []byte(v))
	}
	if rebuilt.Hash() != tr.Hash() {
		t.Fatal("root differs from rebuilt trie")
	}
}

func TestDeleteEverythingRestoresEmptyRoot(t *testing.T) {
	tr := New()
	var keys []string
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		keys = append(keys, k)
		tr.Put([]byte(k), bytes.Repeat([]byte{byte(i)}, i%40+1))
	}
	for _, k := range keys {
		if !tr.Delete([]byte(k)) {
			t.Fatalf("delete %q failed", k)
		}
	}
	if tr.Hash() != EmptyRoot {
		t.Fatal("root not empty after deleting all keys")
	}
}

func TestHexPrefixRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{terminator},
		{1, 2, 3},
		{1, 2, 3, terminator},
		{0xf},
		{0xf, terminator},
		{0, 0, 0, 0},
	}
	for _, nibbles := range cases {
		enc := hexPrefix(append([]byte(nil), nibbles...))
		back, err := compactToNibbles(enc)
		if err != nil {
			t.Fatalf("decode(%x): %v", enc, err)
		}
		if !bytes.Equal(back, nibbles) {
			t.Fatalf("hexPrefix round trip: %v -> %x -> %v", nibbles, enc, back)
		}
	}
}

func TestProveAndVerify(t *testing.T) {
	tr := New()
	entries := map[string]string{}
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("account-%03d", i)
		v := fmt.Sprintf("balance=%d wei and some padding to cross 32 bytes", i*7)
		entries[k] = v
		tr.Put([]byte(k), []byte(v))
	}
	for k, v := range entries {
		root, proof, err := tr.Prove([]byte(k))
		if err != nil {
			t.Fatalf("Prove(%q): %v", k, err)
		}
		got, ok, err := VerifyProof(root, []byte(k), proof)
		if err != nil {
			t.Fatalf("VerifyProof(%q): %v", k, err)
		}
		if !ok || string(got) != v {
			t.Fatalf("VerifyProof(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
}

func TestProofOfAbsence(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("present-%d", i)), []byte("x"))
	}
	root, proof, err := tr.Prove([]byte("absent-key"))
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := VerifyProof(root, []byte("absent-key"), proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("absence proof claimed presence")
	}
}

func TestProofRejectsTampering(t *testing.T) {
	tr := New()
	for i := 0; i < 64; i++ {
		tr.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 40))
	}
	root, proof, err := tr.Prove([]byte("k7"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte of a proof node: either an error or a failed lookup,
	// never a successful wrong value.
	if len(proof) == 0 {
		t.Fatal("empty proof")
	}
	tampered := make([][]byte, len(proof))
	for i := range proof {
		tampered[i] = append([]byte(nil), proof[i]...)
	}
	tampered[len(tampered)-1][5] ^= 0xff
	v, ok, err := VerifyProof(root, []byte("k7"), tampered)
	if err == nil && ok && string(v) == string(bytes.Repeat([]byte{7}, 40)) {
		t.Fatal("tampered proof verified to the original value")
	}
	// Wrong root must fail.
	badRoot := ethtypes.Keccak256([]byte("not the root"))
	if _, ok, err := VerifyProof(badRoot, []byte("k7"), proof); err == nil && ok {
		t.Fatal("proof verified against wrong root")
	}
}

func TestSecureTrie(t *testing.T) {
	s := NewSecure()
	s.Put([]byte("landlord"), []byte("0xabc"))
	s.Put([]byte("tenant"), []byte("0xdef"))
	if v, ok := s.Get([]byte("landlord")); !ok || string(v) != "0xabc" {
		t.Fatal("secure get")
	}
	if v, ok := s.Get([]byte("tenant")); !ok || string(v) != "0xdef" {
		t.Fatal("secure get of the second key")
	}
	root, proof, err := s.Prove([]byte("tenant"))
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := VerifySecureProof(root, []byte("tenant"), proof)
	if err != nil || !ok || string(v) != "0xdef" {
		t.Fatalf("secure proof: %q %v %v", v, ok, err)
	}
	if !s.Delete([]byte("tenant")) {
		t.Fatal("secure delete")
	}
	if _, ok := s.Get([]byte("tenant")); ok {
		t.Fatal("secure delete left value")
	}
}

func TestEmptyValueDistinctFromAbsent(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), nil)
	if v, ok := tr.Get([]byte("k")); !ok || len(v) != 0 {
		t.Fatal("empty value not stored")
	}
	if tr.Hash() == EmptyRoot {
		t.Fatal("an empty value hashes like an empty trie")
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		tr.Put(key, key)
	}
}

func BenchmarkHash1k(b *testing.B) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte(i)}, 32))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Hash()
	}
}

// A snapshot must keep hashing to the root it was taken at while the
// parent diverges, and vice versa.
func TestSnapshotIndependence(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte(i)}, 40))
	}
	rootBefore := tr.Hash()
	snap := tr.Snapshot()

	tr.Put([]byte("key-7"), []byte("mutated"))
	tr.Delete([]byte("key-11"))
	if got := snap.Hash(); got != rootBefore {
		t.Fatalf("snapshot root drifted: %s != %s", got, rootBefore)
	}
	if tr.Hash() == rootBefore {
		t.Fatal("parent root did not change")
	}

	snap.Put([]byte("key-99"), []byte("snap-only"))
	if _, ok := tr.Get([]byte("key-99")); ok {
		t.Fatal("snapshot write leaked into parent")
	}
	if v, ok := snap.Get([]byte("key-11")); !ok || len(v) != 40 {
		t.Fatal("parent delete leaked into snapshot")
	}
}

// --- Reference encoder and prover ---
//
// refNodeStore, refHash, refEncodeNode, refChildItem, refProve and
// refStepProof are the rlp.Item node encoder and the store-backed Prove
// the memoised encoder replaced, kept as oracles: roots, emitted node
// sets and proofs must stay byte-identical to them.

// refNodeStore records hash-referenced node encodings by hash.
type refNodeStore map[ethtypes.Hash][]byte

// refHash computes the root of t without touching any node cache,
// recording every hash-referenced node (the root included) in store.
func refHash(t *Trie, store refNodeStore) ethtypes.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	if hn, ok := t.root.(hashNode); ok {
		return ethtypes.Hash(hn)
	}
	enc := rlp.Encode(refEncodeNode(t.root, store))
	h := ethtypes.Keccak256(enc)
	store[h] = enc
	return h
}

func refEncodeNode(n node, store refNodeStore) *rlp.Item {
	switch cur := n.(type) {
	case valueNode:
		return rlp.Bytes(cur)
	case *shortNode:
		return rlp.List(rlp.Bytes(hexPrefix(cur.Key)), refChildItem(cur.Val, store))
	case *fullNode:
		items := make([]*rlp.Item, 17)
		for i := 0; i < 16; i++ {
			items[i] = refChildItem(cur.Children[i], store)
		}
		if v, ok := cur.Children[16].(valueNode); ok {
			items[16] = rlp.Bytes(v)
		} else {
			items[16] = rlp.Bytes(nil)
		}
		return rlp.List(items...)
	default:
		panic(fmt.Sprintf("trie: unknown node %T", n))
	}
}

// refChildItem is a child's reference form: the node itself when its
// encoding is under 32 bytes, otherwise its keccak hash.
func refChildItem(n node, store refNodeStore) *rlp.Item {
	switch cur := n.(type) {
	case nil:
		return rlp.Bytes(nil)
	case valueNode:
		return rlp.Bytes(cur)
	case hashNode:
		return rlp.Bytes(cur[:])
	}
	item := refEncodeNode(n, store)
	enc := rlp.Encode(item)
	if len(enc) < 32 {
		return item
	}
	h := ethtypes.Keccak256(enc)
	store[h] = enc
	return rlp.Bytes(h[:])
}

// refProve walks the recorded encodings from the root the way
// VerifyProof does, falling back to the resolver for unloaded nodes.
func refProve(t *Trie, key []byte) (ethtypes.Hash, [][]byte, error) {
	store := refNodeStore{}
	root := refHash(t, store)
	var proof [][]byte
	h := root
	k := keyNibbles(key)
	for {
		enc, ok := store[h]
		if !ok && t.resolver != nil {
			loaded, err := t.resolver.ResolveNode(h)
			if err != nil {
				return root, nil, &MissingNodeError{Hash: h, Err: err}
			}
			if got := ethtypes.Keccak256(loaded); got != h {
				return root, nil, &MissingNodeError{Hash: h, Err: fmt.Errorf("content hash mismatch (got %s)", got)}
			}
			enc, ok = loaded, true
		}
		if !ok {
			return root, nil, &MissingNodeError{Hash: h, Err: errNoResolver}
		}
		proof = append(proof, enc)
		item, err := rlp.Decode(enc)
		if err != nil {
			return root, nil, err
		}
		for {
			next, rest, err := refStepProof(item, k)
			if err != nil {
				return root, nil, err
			}
			if next == nil { // terminated (found or proven absent)
				return root, proof, nil
			}
			k = rest
			if nh, ok := next.(proofHashRef); ok {
				h = ethtypes.Hash(nh)
				break
			}
			item = next.(*rlp.Item) // inline node: step within this element
		}
	}
}

func refStepProof(item *rlp.Item, k []byte) (interface{}, []byte, error) {
	if item.Kind() != rlp.KindList {
		return nil, nil, errors.New("trie: proof node is not a list")
	}
	switch item.Len() {
	case 2:
		nibbles, err := compactToNibbles(item.At(0).Str())
		if err != nil {
			return nil, nil, err
		}
		if len(k) < len(nibbles) || !bytes.Equal(nibbles, k[:len(nibbles)]) {
			return nil, nil, nil
		}
		rest := k[len(nibbles):]
		if len(rest) == 0 {
			return nil, nil, nil
		}
		return childRef(item.At(1), rest)
	case 17:
		if len(k) == 0 {
			return nil, nil, errors.New("trie: key exhausted at branch")
		}
		if k[0] == terminator {
			return nil, nil, nil
		}
		return childRef(item.At(int(k[0])), k[1:])
	default:
		return nil, nil, fmt.Errorf("trie: proof node has %d items", item.Len())
	}
}

// churnValue spans inline (< 32-byte) and hash-referenced nodes.
func churnValue(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%70) }

// The memoised encoder, without a sink and with one, must produce the
// reference encoder's root across a churn of inserts, overwrites and
// deletes, and the sink must emit exactly the nodes a store needs: on
// every hash, only nodes of the current trie, and over all hashes
// every node of it.
func TestMemoisedHashMatchesReference(t *testing.T) {
	plain, collected := New(), New()
	persisted := refNodeStore{}
	check := func(step int) {
		t.Helper()
		ref := refNodeStore{}
		want := refHash(plain, ref)
		if got := plain.Hash(); got != want {
			t.Fatalf("step %d: nil-sink root %s, reference %s", step, got, want)
		}
		emitted := refNodeStore{}
		got := collected.HashCollect(func(h ethtypes.Hash, enc []byte) {
			if ethtypes.Keccak256(enc) != h {
				t.Fatalf("step %d: sink got an encoding that does not hash to %s", step, h)
			}
			emitted[h] = enc
		})
		if got != want {
			t.Fatalf("step %d: sink root %s, reference %s", step, got, want)
		}
		if plain.root == nil {
			return
		}
		for h, enc := range emitted {
			if !bytes.Equal(ref[h], enc) {
				t.Fatalf("step %d: sink emitted %s, which the reference trie does not hold", step, h)
			}
			persisted[h] = enc
		}
		for h := range ref {
			if _, ok := persisted[h]; !ok {
				t.Fatalf("step %d: node %s of the trie was never emitted", step, h)
			}
		}
		if step == 0 && len(emitted) != len(ref) {
			t.Fatalf("fresh trie: sink emitted %d nodes, reference holds %d", len(emitted), len(ref))
		}
	}
	check(-1) // empty
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%64))
		for _, tr := range []*Trie{plain, collected} {
			if i%5 == 4 {
				tr.Delete(key)
			} else {
				tr.Put(key, churnValue(i))
			}
		}
		check(i)
	}
}

// proofFixture is a trie of n keys with values spanning inline and
// hashed nodes, plus its keys and some absent ones.
func proofFixture(n int) (*Trie, [][]byte) {
	tr := New()
	var keys [][]byte
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		tr.Put(k, churnValue(i*7+1))
		keys = append(keys, k)
	}
	for _, k := range []string{"", "k", "key-", "key-1000", "zzz", "key-5x"} {
		keys = append(keys, []byte(k))
	}
	return tr, keys
}

// assertProofsMatchReference compares Prove with the reference prover
// for every key: same root, byte-equal proofs, and errors together.
func assertProofsMatchReference(t *testing.T, label string, tr *Trie, keys [][]byte) {
	t.Helper()
	for _, k := range keys {
		wantRoot, want, wantErr := refProve(tr, k)
		gotRoot, got, gotErr := tr.Prove(k)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: Prove(%q) err %v, reference err %v", label, k, gotErr, wantErr)
		}
		if gotRoot != wantRoot || len(got) != len(want) {
			t.Fatalf("%s: Prove(%q) root %s with %d elements, reference %s with %d", label, k, gotRoot, len(got), wantRoot, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: Prove(%q) element %d differs from the reference", label, k, i)
			}
		}
	}
}

// Prove must return exactly the reference prover's output for present
// and absent keys, on in-memory tries (tiny ones with an inline root
// included), unloaded lazy tries, and lazy tries partly materialised by
// mutation.
func TestProveMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 120} {
		tr, keys := proofFixture(n)
		// Persist before proving: Prove hashes without a sink.
		store := mapResolver{}
		root := tr.HashCollect(func(h ethtypes.Hash, enc []byte) { store[h] = enc })
		assertProofsMatchReference(t, fmt.Sprintf("in-memory n=%d", n), tr, keys)
		assertProofsMatchReference(t, fmt.Sprintf("unloaded n=%d", n), NewFromRoot(root, store), keys)

		partial := NewFromRoot(root, store)
		partial.Put([]byte("key-3"), []byte("rewritten"))
		partial.Delete([]byte("key-0"))
		assertProofsMatchReference(t, fmt.Sprintf("partly loaded n=%d", n), partial, keys)
	}
}

// A proof node whose short-node key is a list, not a string, is
// malformed input: VerifyProof and decodeNode must refuse it with an
// error, both as a top-level element and as an inline branch child.
func TestVerifyProofRefusesListKey(t *testing.T) {
	listKey := rlp.List(rlp.List(), rlp.String("x"))
	slots := make([]*rlp.Item, 17)
	for i := range slots {
		slots[i] = rlp.Bytes(nil)
	}
	slots[6] = listKey // first nibble of "a" (0x61)
	for name, enc := range map[string][]byte{
		"short_node_list_key": rlp.Encode(listKey),
		"inline_child":        rlp.Encode(rlp.List(slots...)),
	} {
		root := ethtypes.Keccak256(enc)
		if _, _, err := VerifyProof(root, []byte("a"), [][]byte{enc}); err == nil {
			t.Fatalf("%s: VerifyProof accepted a list key", name)
		}
		if _, err := decodeNode(enc); err == nil {
			t.Fatalf("%s: decodeNode accepted a list key", name)
		}
		var miss *MissingNodeError
		lazy := NewFromRoot(root, mapResolver{root: enc})
		if _, _, err := lazy.TryGet([]byte("a")); !errors.As(err, &miss) {
			t.Fatalf("%s: lazy TryGet err = %v, want *MissingNodeError", name, err)
		}
	}
}

// Snapshots sharing structure with a live trie may be hashed from
// several goroutines at once, with and without a sink; the node caches
// are atomic pointers so the race detector must stay quiet and every
// root must be the reference one.
func TestConcurrentSnapshotHashing(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), churnValue(i))
	}
	first := tr.Snapshot()
	for i := 0; i < 300; i += 7 {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("second"))
	}
	second := tr.Snapshot()
	want := []ethtypes.Hash{refHash(first, refNodeStore{}), refHash(second, refNodeStore{})}

	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, snap := range []*Trie{first, second} {
			for _, withSink := range []bool{false, true} {
				wg.Add(1)
				go func(i int, snap *Trie, withSink bool) {
					defer wg.Done()
					var got ethtypes.Hash
					if withSink {
						got = snap.Snapshot().HashCollect(func(ethtypes.Hash, []byte) {})
					} else {
						got = snap.Snapshot().Hash()
					}
					if got != want[i] {
						t.Errorf("snapshot %d (sink %v): root %s, reference %s", i, withSink, got, want[i])
					}
				}(i, snap, withSink)
			}
		}
	}
	wg.Wait()
}

// FuzzVerifyProof feeds VerifyProof arbitrary proof elements, the root
// being the keccak of the first: it must return a value or an error,
// never panic. The key is also proven on a seeded trie, where Prove
// followed by VerifyProof must agree with Get.
func FuzzVerifyProof(f *testing.F) {
	seeded, _ := proofFixture(40)
	for _, k := range []string{"key-7", "key-33", "key-", "absent"} {
		_, proof, err := seeded.Prove([]byte(k))
		if err != nil {
			f.Fatal(err)
		}
		second := []byte{}
		if len(proof) > 1 {
			second = proof[1]
		}
		f.Add(proof[0], second, []byte(k))
	}
	f.Fuzz(func(t *testing.T, first, second, key []byte) {
		VerifyProof(ethtypes.Keccak256(first), key, [][]byte{first, second})

		root, proof, err := seeded.Prove(key)
		if err != nil {
			t.Fatalf("Prove(%q) on the seeded trie: %v", key, err)
		}
		got, ok, err := VerifyProof(root, key, proof)
		if err != nil {
			t.Fatalf("VerifyProof(%q) of a fresh proof: %v", key, err)
		}
		want, present := seeded.Get(key)
		if ok != present || !bytes.Equal(got, want) {
			t.Fatalf("proof of %q: %x, %v; Get: %x, %v", key, got, ok, want, present)
		}
	})
}
