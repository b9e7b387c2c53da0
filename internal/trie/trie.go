// Package trie implements the Merkle Patricia Trie, Ethereum's
// authenticated key/value structure used for the state, storage and
// receipt commitments.
//
// The implementation follows the yellow-paper node model: short nodes
// (leaf/extension with hex-prefix-encoded key fragments), full nodes
// (17-ary branches) and value nodes, with sub-32-byte nodes inlined into
// their parent and larger nodes referenced by Keccak-256 hash. Keys are
// expanded to nibbles with a terminator nibble (16) so that keys may be
// prefixes of one another.
//
// One memoised encoder (hasher.go) computes every root; given a sink
// it also emits each freshly hashed node for a disk store. Prove walks
// the node tree and VerifyProof checks the result without a trie.
package trie

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
)

// EmptyRoot is the root hash of an empty trie,
// keccak256(rlp("")) — a well-known constant.
var EmptyRoot = ethtypes.HexToHash("0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421")

// node is one of: nil, *shortNode, *fullNode, valueNode.
type node interface{}

type (
	// shortNode is a leaf (Val is valueNode, Key ends with the
	// terminator nibble) or an extension (Val is a further node).
	shortNode struct {
		Key   []byte // nibbles
		Val   node
		cache atomic.Pointer[encCache] // memoised encoding, see hasher.go
	}
	// fullNode is a 17-way branch; slot 16 holds a value terminating
	// exactly at this node.
	fullNode struct {
		Children [17]node
		cache    atomic.Pointer[encCache]
	}
	valueNode []byte
)

const terminator = 16

// Trie is a mutable Merkle Patricia Trie. It is fully in-memory when
// built with New; tries built with NewFromRoot resolve hash-referenced
// subtrees lazily through their Resolver (see lazy.go).
type Trie struct {
	root     node
	resolver Resolver
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// keyNibbles converts a byte key to its nibble expansion plus terminator.
func keyNibbles(key []byte) []byte {
	n := make([]byte, 0, len(key)*2+1)
	for _, b := range key {
		n = append(n, b>>4, b&0x0f)
	}
	return append(n, terminator)
}

func prefixLen(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// Get returns the value for key and whether it exists. On a lazy trie
// a resolution failure panics with *MissingNodeError; use TryGet to
// receive it as an error instead.
func (t *Trie) Get(key []byte) ([]byte, bool) {
	v, ok, err := t.TryGet(key)
	if err != nil {
		panic(err)
	}
	return v, ok
}

// TryGet returns the value for key and whether it exists, surfacing
// lazy-resolution failures as *MissingNodeError.
func (t *Trie) TryGet(key []byte) ([]byte, bool, error) {
	n := t.root
	k := keyNibbles(key)
	for {
		switch cur := n.(type) {
		case nil:
			return nil, false, nil
		case valueNode:
			if len(k) == 0 {
				return cur, true, nil
			}
			return nil, false, nil
		case *shortNode:
			if len(k) < len(cur.Key) || !bytes.Equal(cur.Key, k[:len(cur.Key)]) {
				return nil, false, nil
			}
			k = k[len(cur.Key):]
			n = cur.Val
		case *fullNode:
			if len(k) == 0 {
				return nil, false, nil
			}
			n = cur.Children[k[0]]
			k = k[1:]
		case hashNode:
			dec, err := t.resolve(cur)
			if err != nil {
				return nil, false, err
			}
			n = dec
		default:
			panic(fmt.Sprintf("trie: unknown node %T", n))
		}
	}
}

// Put inserts or updates key with value. Empty values are legal and
// distinct from absence (use Delete to remove).
func (t *Trie) Put(key, value []byte) {
	v := valueNode(append([]byte(nil), value...))
	t.root = t.insert(t.root, keyNibbles(key), v)
}

func (t *Trie) insert(n node, key []byte, value node) node {
	if len(key) == 0 {
		return value
	}
	switch cur := n.(type) {
	case nil:
		return &shortNode{Key: key, Val: value}
	case hashNode:
		return t.insert(t.mustResolve(cur), key, value)
	case *shortNode:
		match := prefixLen(key, cur.Key)
		if match == len(cur.Key) {
			return &shortNode{Key: cur.Key, Val: t.insert(cur.Val, key[match:], value)}
		}
		// Paths diverge inside cur.Key: split into a branch.
		branch := &fullNode{}
		branch.Children[cur.Key[match]] = shortOrVal(cur.Key[match+1:], cur.Val)
		branch.Children[key[match]] = shortOrVal(key[match+1:], value)
		if match == 0 {
			return branch
		}
		return &shortNode{Key: key[:match], Val: branch}
	case *fullNode:
		// Path-copy: a fresh node (with an empty encoding cache) so that
		// prior snapshots sharing cur stay valid.
		out := &fullNode{Children: cur.Children}
		out.Children[key[0]] = t.insert(cur.Children[key[0]], key[1:], value)
		return out
	case valueNode:
		// Existing value terminates here but the new key continues —
		// impossible with terminator nibbles (terminator can't extend).
		panic("trie: insert past value node")
	default:
		panic(fmt.Sprintf("trie: unknown node %T", n))
	}
}

func shortOrVal(key []byte, val node) node {
	if len(key) == 0 {
		return val
	}
	return &shortNode{Key: key, Val: val}
}

// Delete removes key; it reports whether the key was present.
func (t *Trie) Delete(key []byte) bool {
	newRoot, deleted := t.del(t.root, keyNibbles(key))
	if deleted {
		t.root = newRoot
	}
	return deleted
}

func (t *Trie) del(n node, key []byte) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return nil, false
	case hashNode:
		return t.del(t.mustResolve(cur), key)
	case valueNode:
		if len(key) == 0 {
			return nil, true
		}
		return n, false
	case *shortNode:
		match := prefixLen(key, cur.Key)
		if match < len(cur.Key) {
			return n, false
		}
		child, ok := t.del(cur.Val, key[match:])
		if !ok {
			return n, false
		}
		switch c := child.(type) {
		case nil:
			return nil, true
		case *shortNode:
			// Merge consecutive short nodes.
			merged := append(append([]byte(nil), cur.Key...), c.Key...)
			return &shortNode{Key: merged, Val: c.Val}, true
		default:
			return &shortNode{Key: cur.Key, Val: child}, true
		}
	case *fullNode:
		if len(key) == 0 {
			return n, false
		}
		child, ok := t.del(cur.Children[key[0]], key[1:])
		if !ok {
			return n, false
		}
		out := &fullNode{Children: cur.Children}
		out.Children[key[0]] = child

		// If only one child remains, collapse the branch.
		pos := -1
		count := 0
		for i, ch := range out.Children {
			if ch != nil {
				count++
				pos = i
			}
		}
		if count > 1 {
			return out, true
		}
		if pos == terminator {
			return &shortNode{Key: []byte{terminator}, Val: out.Children[terminator]}, true
		}
		// The surviving sibling may be an unresolved reference; its
		// shape decides how the branch collapses (short-node keys must
		// merge), so it has to be materialised here.
		survivor := out.Children[pos]
		if hn, isHash := survivor.(hashNode); isHash {
			survivor = t.mustResolve(hn)
		}
		if sn, isShort := survivor.(*shortNode); isShort {
			merged := append([]byte{byte(pos)}, sn.Key...)
			return &shortNode{Key: merged, Val: sn.Val}, true
		}
		return &shortNode{Key: []byte{byte(pos)}, Val: survivor}, true
	default:
		panic(fmt.Sprintf("trie: unknown node %T", n))
	}
}

// hexPrefix encodes nibbles (possibly ending in the terminator) into the
// yellow-paper compact encoding.
func hexPrefix(nibbles []byte) []byte {
	leaf := false
	if len(nibbles) > 0 && nibbles[len(nibbles)-1] == terminator {
		leaf = true
		nibbles = nibbles[:len(nibbles)-1]
	}
	var flag byte
	if leaf {
		flag = 2
	}
	out := make([]byte, 0, len(nibbles)/2+1)
	if len(nibbles)%2 == 1 {
		out = append(out, (flag+1)<<4|nibbles[0])
		nibbles = nibbles[1:]
	} else {
		out = append(out, flag<<4)
	}
	for i := 0; i < len(nibbles); i += 2 {
		out = append(out, nibbles[i]<<4|nibbles[i+1])
	}
	return out
}

// compactToNibbles reverses hexPrefix.
func compactToNibbles(compact []byte) ([]byte, error) {
	if len(compact) == 0 {
		return nil, errors.New("trie: empty compact key")
	}
	flag := compact[0] >> 4
	if flag > 3 {
		return nil, errors.New("trie: bad hex-prefix flag")
	}
	var nibbles []byte
	if flag&1 == 1 { // odd
		nibbles = append(nibbles, compact[0]&0x0f)
	}
	for _, b := range compact[1:] {
		nibbles = append(nibbles, b>>4, b&0x0f)
	}
	if flag&2 == 2 { // leaf
		nibbles = append(nibbles, terminator)
	}
	return nibbles, nil
}

// Snapshot returns an O(1) logical copy of the trie. Nodes are immutable
// once linked in (Put/Delete path-copy), so the snapshot and the parent
// can both be read, mutated and hashed independently — including from
// different goroutines (the encoding caches are updated atomically).
func (t *Trie) Snapshot() *Trie { return &Trie{root: t.root, resolver: t.resolver} }

// SetResolver attaches r for lazy hash-reference resolution, making the
// trie safe to Unload: a fully in-memory trie whose nodes are also
// persisted elsewhere becomes collapsible to its root hash.
func (t *Trie) SetResolver(r Resolver) { t.resolver = r }

// Prove returns the ordered list of RLP node encodings from the root to
// the node proving key (inclusive), suitable for VerifyProof: the root
// and every node on the key's path whose encoding is 32 bytes or more.
// It walks the node tree the way TryGet does; on a lazy trie, nodes of
// unloaded subtrees are fetched through the resolver and a node that
// cannot be fetched yields a *MissingNodeError. The trie is hashed as a
// side effect (like Hash, without a sink), so a disk-backed trie must
// be HashCollect'ed first.
func (t *Trie) Prove(key []byte) (ethtypes.Hash, [][]byte, error) {
	root := t.Hash()
	if t.root == nil {
		return root, nil, errors.New("trie: no proof in an empty trie")
	}
	var proof [][]byte
	n, k := t.root, keyNibbles(key)
	byHash := true // n is referenced by hash, so its encoding is an element
	for {
		if hn, ok := n.(hashNode); ok {
			enc, dec, err := t.load(hn)
			if err != nil {
				return root, nil, err
			}
			proof = append(proof, enc)
			n = dec
		} else if byHash {
			proof = append(proof, encoding(n))
		}
		switch cur := n.(type) {
		case *shortNode:
			if len(k) < len(cur.Key) || !bytes.Equal(cur.Key, k[:len(cur.Key)]) {
				return root, proof, nil // diverged: key absent
			}
			k = k[len(cur.Key):]
			n = cur.Val
		case *fullNode:
			n = cur.Children[k[0]]
			k = k[1:]
		default: // a value or an empty slot ends the walk
			return root, proof, nil
		}
		switch n.(type) {
		case *shortNode, *fullNode:
			// Resident, or inline in a node just loaded: the cache
			// says whether its parent embeds it or its hash.
			byHash = cachedRef(n, nil).hashed
		default:
			byHash = false
		}
	}
}

// proofHashRef marks a 32-byte hash reference during proof walking.
type proofHashRef ethtypes.Hash

func childRef(child *rlp.Item, rest []byte) (interface{}, []byte, error) {
	if child.Kind() == rlp.KindList {
		return child, rest, nil // inline node
	}
	s := child.Str()
	switch len(s) {
	case 0:
		return nil, nil, nil // empty slot: absent
	case 32:
		var h proofHashRef
		copy(h[:], s)
		return h, rest, nil
	default:
		return nil, nil, errors.New("trie: bad child reference length")
	}
}

// VerifyProof checks a Merkle proof against root and returns the proven
// value (nil with ok=false meaning proven absence). An error indicates a
// malformed or non-matching proof.
func VerifyProof(root ethtypes.Hash, key []byte, proof [][]byte) (value []byte, ok bool, err error) {
	nodes := map[ethtypes.Hash][]byte{}
	for _, enc := range proof {
		nodes[ethtypes.Keccak256(enc)] = enc
	}
	k := keyNibbles(key)
	var next interface{} = proofHashRef(root)
	for next != nil {
		item, isInline := next.(*rlp.Item)
		if !isInline {
			want := ethtypes.Hash(next.(proofHashRef))
			enc, found := nodes[want]
			if !found {
				return nil, false, fmt.Errorf("trie: proof missing node %s", want)
			}
			if item, err = rlp.Decode(enc); err != nil {
				return nil, false, err
			}
		}
		if value, next, k, err = walkProofNode(item, k); err != nil {
			return nil, false, err
		}
	}
	return value, value != nil, nil
}

// walkProofNode resolves one node for verification, returning either a
// terminal value, or the next reference with remaining key.
func walkProofNode(item *rlp.Item, k []byte) (value []byte, next interface{}, rest []byte, err error) {
	if item.Kind() != rlp.KindList {
		return nil, nil, nil, errors.New("trie: proof node is not a list")
	}
	switch item.Len() {
	case 2:
		nibbles, err := keyFromItem(item.At(0))
		if err != nil {
			return nil, nil, nil, err
		}
		if len(k) < len(nibbles) || !bytes.Equal(nibbles, k[:len(nibbles)]) {
			return nil, nil, nil, nil // proven absent
		}
		restK := k[len(nibbles):]
		child := item.At(1)
		if len(restK) == 0 {
			if len(nibbles) == 0 || nibbles[len(nibbles)-1] == terminator {
				if child.Kind() != rlp.KindString {
					return nil, nil, nil, errors.New("trie: leaf value is a list")
				}
				return child.Str(), nil, nil, nil
			}
			return nil, nil, nil, nil
		}
		ref, rest2, err := childRef(child, restK)
		if err != nil {
			return nil, nil, nil, err
		}
		return nil, ref, rest2, nil
	case 17:
		if len(k) == 0 {
			return nil, nil, nil, errors.New("trie: key exhausted at branch")
		}
		if k[0] == terminator {
			v := item.At(16)
			if v.Kind() != rlp.KindString {
				return nil, nil, nil, errors.New("trie: branch value is a list")
			}
			if v.Len() == 0 {
				return nil, nil, nil, nil // absent
			}
			return v.Str(), nil, nil, nil
		}
		ref, rest2, err := childRef(item.At(int(k[0])), k[1:])
		if err != nil {
			return nil, nil, nil, err
		}
		return nil, ref, rest2, nil
	default:
		return nil, nil, nil, fmt.Errorf("trie: proof node has %d items", item.Len())
	}
}

// keyFromItem decodes the hex-prefix key of a short node's RLP item,
// refusing a list where the key string belongs.
func keyFromItem(key *rlp.Item) ([]byte, error) {
	if key.Kind() != rlp.KindString {
		return nil, errors.New("trie: short node key is a list")
	}
	return compactToNibbles(key.Str())
}

// Secure wraps a Trie so that all keys are hashed with Keccak-256 before
// use, bounding path depth and preventing key-grinding attacks — the
// construction used by the Ethereum state trie.
type Secure struct {
	t *Trie
}

// NewSecure returns an empty secure trie.
func NewSecure() *Secure { return &Secure{t: New()} }

// Get returns the value for key.
func (s *Secure) Get(key []byte) ([]byte, bool) {
	h := ethtypes.Keccak256(key)
	return s.t.Get(h[:])
}

// Put inserts or updates key.
func (s *Secure) Put(key, value []byte) {
	h := ethtypes.Keccak256(key)
	s.t.Put(h[:], value)
}

// Delete removes key.
func (s *Secure) Delete(key []byte) bool {
	h := ethtypes.Keccak256(key)
	return s.t.Delete(h[:])
}

// Hash computes the root (see Trie.Hash).
func (s *Secure) Hash() ethtypes.Hash { return s.t.Hash() }

// HashCollect computes the root, emitting freshly hashed nodes to
// sink (see Trie.HashCollect).
func (s *Secure) HashCollect(sink func(h ethtypes.Hash, enc []byte)) ethtypes.Hash {
	return s.t.HashCollect(sink)
}

// Unload collapses the trie to its root hash (see Trie.Unload).
func (s *Secure) Unload() { s.t.Unload() }

// SetResolver attaches r for lazy resolution (see Trie.SetResolver).
func (s *Secure) SetResolver(r Resolver) { s.t.SetResolver(r) }

// TryGet is Get with lazy-resolution failures surfaced as an error.
func (s *Secure) TryGet(key []byte) ([]byte, bool, error) {
	h := ethtypes.Keccak256(key)
	return s.t.TryGet(h[:])
}

// Snapshot returns an O(1) logical copy (see Trie.Snapshot).
func (s *Secure) Snapshot() *Secure { return &Secure{t: s.t.Snapshot()} }

// Prove produces a proof for the hashed key.
func (s *Secure) Prove(key []byte) (ethtypes.Hash, [][]byte, error) {
	h := ethtypes.Keccak256(key)
	return s.t.Prove(h[:])
}

// VerifySecureProof verifies a proof produced by Secure.Prove.
func VerifySecureProof(root ethtypes.Hash, key []byte, proof [][]byte) ([]byte, bool, error) {
	h := ethtypes.Keccak256(key)
	return VerifyProof(root, h[:], proof)
}
