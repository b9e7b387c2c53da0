// Trie hashing: one node encoder with an optional sink.
//
// Every shortNode/fullNode memoises the *reference form* of its RLP
// encoding — the bytes a parent embeds for it: the encoding itself when
// it is under 32 bytes, otherwise rlp(keccak(encoding)). Because Put and
// Delete path-copy (hasher caches start empty on every fresh node and
// nodes already linked into a trie are never mutated), a memoised entry
// can never go stale: re-hashing after k updates recomputes only the
// O(k·depth) nodes along the changed paths and serves every untouched
// subtree from its cache.
//
// cachedRef is the only encoder. Given a sink it also emits every
// freshly hashed node as (hash, full encoding) — what a disk store
// persists; Prove rebuilds the full encoding of a cached node from the
// same payload builder, appendPayload.
//
// Caches are published through atomic pointers so snapshots sharing
// structure with a live trie can be hashed concurrently: racing writers
// compute identical values, and last-write-wins is harmless.
package trie

import (
	"sync"
	"sync/atomic"

	"legalchain/internal/ethtypes"
)

// encCache is the memoised hashing result of one immutable node.
type encCache struct {
	ref    []byte        // reference form: full encoding if <32 bytes, else rlp(hash)
	hash   ethtypes.Hash // keccak256 of the full encoding; valid when hashed
	hashed bool
}

// encBufPool recycles the payload-assembly scratch buffers so steady-state
// hashing does not allocate per node beyond the retained cache entry.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// Hash computes the Merkle root. The computation is incremental: every
// node memoises its encoding, and because mutations path-copy (never
// edit nodes in place) a re-hash after k updates touches only the
// O(k·depth) fresh nodes — unchanged subtrees are served from their
// caches.
func (t *Trie) Hash() ethtypes.Hash { return t.HashCollect(nil) }

// HashCollect computes the root like Hash while emitting every
// *freshly hashed* node — a node whose encoding is >= 32 bytes and
// whose cache was empty when visited — to sink as (hash, encoding).
// A nil sink emits nothing. Because mutations path-copy and caches
// persist, repeated HashCollect calls after k updates emit only the
// O(k·depth) new nodes: exactly the set a disk store needs to persist
// to keep the trie resolvable from its root. Already-cached nodes are
// assumed persisted by the HashCollect (or store load) that cached
// them, so a disk-backed trie must be hashed with its sink every time.
//
// The encoding passed to sink is freshly allocated and never reused.
// A sub-32-byte root is also emitted (it is still referenced by hash
// at the top level); this may re-emit on every call, which stores
// treat as an idempotent overwrite.
func (t *Trie) HashCollect(sink func(h ethtypes.Hash, enc []byte)) ethtypes.Hash {
	switch root := t.root.(type) {
	case nil:
		return EmptyRoot
	case hashNode:
		// Fully unloaded trie: the root hash is the reference itself.
		return ethtypes.Hash(root)
	}
	c := cachedRef(t.root, sink)
	if c.hashed {
		return c.hash
	}
	// Root encoding under 32 bytes: the root is still referenced by
	// hash, so hash its (inline) encoding.
	h := ethtypes.Keccak256(c.ref)
	if sink != nil {
		sink(h, append([]byte(nil), c.ref...))
	}
	return h
}

// hashRefCache builds the (trivial) cache entry for an unresolved
// reference: the hash is known by construction, the reference form is
// rlp(hash). hashNodes only ever stand in for >=32-byte encodings, so
// the hash reference form is always correct.
func hashRefCache(h hashNode) *encCache {
	return &encCache{ref: hashRef(ethtypes.Hash(h)), hash: ethtypes.Hash(h), hashed: true}
}

// hashRef is the reference form of a hash-referenced node: rlp(hash).
func hashRef(h ethtypes.Hash) []byte {
	ref := make([]byte, 33)
	ref[0] = 0x80 + 32
	copy(ref[1:], h[:])
	return ref
}

// cachedRef returns the memoised reference of a shortNode or fullNode,
// computing and publishing it on first use. Freshly hashed nodes (the
// node itself and any uncached descendant) go to sink when it is
// non-nil.
func cachedRef(n node, sink func(ethtypes.Hash, []byte)) *encCache {
	var slot *atomic.Pointer[encCache]
	switch cur := n.(type) {
	case hashNode:
		return hashRefCache(cur)
	case *shortNode:
		slot = &cur.cache
	case *fullNode:
		slot = &cur.cache
	default:
		panic("trie: cachedRef on non-cacheable node")
	}
	if c := slot.Load(); c != nil {
		return c
	}
	bufp := encBufPool.Get().(*[]byte)
	payload := appendPayload((*bufp)[:0], n, sink)

	var header [9]byte
	hn := putListHeader(header[:], len(payload))

	c := &encCache{}
	if hn+len(payload) < 32 {
		c.ref = joined(header[:hn], payload)
	} else {
		c.hash = ethtypes.Keccak256(header[:hn], payload)
		c.ref = hashRef(c.hash)
		c.hashed = true
		if sink != nil {
			sink(c.hash, joined(header[:hn], payload))
		}
	}

	*bufp = payload[:0]
	encBufPool.Put(bufp)
	slot.Store(c)
	return c
}

// appendPayload appends the RLP list payload of a shortNode or fullNode:
// its fields in order, each child in reference form.
func appendPayload(dst []byte, n node, sink func(ethtypes.Hash, []byte)) []byte {
	switch cur := n.(type) {
	case *shortNode:
		dst = appendRLPString(dst, hexPrefix(cur.Key))
		return appendChildRef(dst, cur.Val, sink)
	case *fullNode:
		for i := 0; i < 16; i++ {
			dst = appendChildRef(dst, cur.Children[i], sink)
		}
		v, _ := cur.Children[16].(valueNode)
		return appendRLPString(dst, v)
	default:
		panic("trie: appendPayload on non-cacheable node")
	}
}

// appendChildRef appends the reference form of a child node: value
// nodes are embedded as strings, cacheable nodes via their memoised
// reference.
func appendChildRef(dst []byte, n node, sink func(ethtypes.Hash, []byte)) []byte {
	switch cur := n.(type) {
	case nil:
		return append(dst, 0x80)
	case valueNode:
		return appendRLPString(dst, cur)
	default:
		return append(dst, cachedRef(n, sink).ref...)
	}
}

// encoding returns the full RLP encoding of a resident shortNode or
// fullNode, freshly allocated, built from its children's memoised
// references.
func encoding(n node) []byte {
	payload := appendPayload(nil, n, nil)
	var header [9]byte
	hn := putListHeader(header[:], len(payload))
	return joined(header[:hn], payload)
}

// joined returns a freshly allocated a followed by b.
func joined(a, b []byte) []byte {
	return append(append(make([]byte, 0, len(a)+len(b)), a...), b...)
}

// appendRLPString appends the canonical RLP encoding of byte string s,
// byte-identical to rlp.Encode(rlp.Bytes(s)).
func appendRLPString(dst, s []byte) []byte {
	if len(s) == 1 && s[0] <= 0x7f {
		return append(dst, s[0])
	}
	if len(s) <= 55 {
		dst = append(dst, 0x80+byte(len(s)))
		return append(dst, s...)
	}
	var lenBytes [8]byte
	i := 8
	for v := uint64(len(s)); v > 0; v >>= 8 {
		i--
		lenBytes[i] = byte(v)
	}
	dst = append(dst, 0xb7+byte(8-i))
	dst = append(dst, lenBytes[i:]...)
	return append(dst, s...)
}

// putListHeader writes the RLP list header for a payload of n bytes into
// dst and returns the header length.
func putListHeader(dst []byte, n int) int {
	if n <= 55 {
		dst[0] = 0xc0 + byte(n)
		return 1
	}
	var lenBytes [8]byte
	i := 8
	for v := uint64(n); v > 0; v >>= 8 {
		i--
		lenBytes[i] = byte(v)
	}
	dst[0] = 0xf7 + byte(8-i)
	copy(dst[1:], lenBytes[i:])
	return 1 + (8 - i)
}
