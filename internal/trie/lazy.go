package trie

// Lazy (disk-backed) tries. A trie may contain hashNode references in
// place of fully materialised subtrees; a Resolver loads the RLP
// encoding of such a node on demand. Combined with path-copying
// mutation this keeps resident memory proportional to the *touched*
// part of the trie: a Put materialises only the nodes along its path,
// untouched siblings stay as 32-byte hash references, and Unload
// collapses a fully hashed trie back to a single reference.
//
// Resolution failures on the read and proof paths surface as
// *MissingNodeError; the mutation paths (Put/Delete) panic with the
// same typed value since their signatures predate lazy tries and a
// missing node there means the backing store is corrupt.

import (
	"errors"
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
)

// hashNode is a reference to a node that is not resident: the keccak
// hash of its RLP encoding. Only nodes whose encoding is >= 32 bytes
// are ever hash-referenced (smaller nodes are inlined into their
// parent), so decoding a resolved node can never yield a dangling
// sub-32-byte reference.
type hashNode ethtypes.Hash

// Resolver loads the RLP encoding of a trie node by the keccak hash of
// that encoding. Implementations must be safe for concurrent use.
type Resolver interface {
	ResolveNode(h ethtypes.Hash) ([]byte, error)
}

// errNoResolver is the cause recorded when a hash reference is hit on
// a trie that has no resolver attached.
var errNoResolver = errors.New("no resolver attached")

// MissingNodeError reports that a hash-referenced trie node could not
// be resolved (absent from the backing store, failed its content-hash
// check, or failed to decode). It indicates a corrupt or incomplete
// node store, never a merely-absent key.
type MissingNodeError struct {
	Hash ethtypes.Hash
	Err  error
}

func (e *MissingNodeError) Error() string {
	return fmt.Sprintf("trie: missing node %s: %v", e.Hash, e.Err)
}

func (e *MissingNodeError) Unwrap() error { return e.Err }

// NewFromRoot returns a lazy trie rooted at root; nodes are resolved
// through r on demand. A zero or EmptyRoot hash yields an empty trie.
func NewFromRoot(root ethtypes.Hash, r Resolver) *Trie {
	t := &Trie{resolver: r}
	if root != (ethtypes.Hash{}) && root != EmptyRoot {
		t.root = hashNode(root)
	}
	return t
}

// NewSecureFromRoot is NewFromRoot for a keccak-keyed Secure trie.
func NewSecureFromRoot(root ethtypes.Hash, r Resolver) *Secure {
	return &Secure{t: NewFromRoot(root, r)}
}

// resolve expands a hashNode through the trie's resolver (see load).
// Non-reference nodes pass through unchanged.
func (t *Trie) resolve(n node) (node, error) {
	hn, ok := n.(hashNode)
	if !ok {
		return n, nil
	}
	_, dec, err := t.load(hn)
	return dec, err
}

// load fetches the encoding hn references through the trie's resolver,
// verifies its content hash and decodes it.
func (t *Trie) load(hn hashNode) ([]byte, node, error) {
	h := ethtypes.Hash(hn)
	if t.resolver == nil {
		return nil, nil, &MissingNodeError{Hash: h, Err: errNoResolver}
	}
	enc, err := t.resolver.ResolveNode(h)
	if err != nil {
		return nil, nil, &MissingNodeError{Hash: h, Err: err}
	}
	if got := ethtypes.Keccak256(enc); got != h {
		return nil, nil, &MissingNodeError{Hash: h, Err: fmt.Errorf("content hash mismatch (got %s)", got)}
	}
	dec, err := decodeNode(enc)
	if err != nil {
		return nil, nil, &MissingNodeError{Hash: h, Err: err}
	}
	return enc, dec, nil
}

// mustResolve is resolve for the mutation paths, which have no error
// returns: a failure is a corrupt store and panics with the typed
// *MissingNodeError.
func (t *Trie) mustResolve(n node) node {
	out, err := t.resolve(n)
	if err != nil {
		panic(err)
	}
	return out
}

// decodeNode parses an RLP node encoding into the in-memory node
// model, keeping sub-32-byte children inline and larger children as
// hashNode references. All returned byte slices are freshly allocated
// (the input buffer may be shared, e.g. by a node cache).
func decodeNode(enc []byte) (node, error) {
	item, err := rlp.Decode(enc)
	if err != nil {
		return nil, err
	}
	return nodeFromItem(item)
}

func nodeFromItem(item *rlp.Item) (node, error) {
	if item.Kind() != rlp.KindList {
		return nil, errors.New("trie: node encoding is not a list")
	}
	switch item.Len() {
	case 2:
		nibbles, err := keyFromItem(item.At(0))
		if err != nil {
			return nil, err
		}
		child := item.At(1)
		if len(nibbles) > 0 && nibbles[len(nibbles)-1] == terminator {
			if child.Kind() != rlp.KindString {
				return nil, errors.New("trie: leaf value is a list")
			}
			return &shortNode{Key: nibbles, Val: valueNode(append([]byte(nil), child.Str()...))}, nil
		}
		c, err := childFromItem(child)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return nil, errors.New("trie: extension with empty child")
		}
		return &shortNode{Key: nibbles, Val: c}, nil
	case 17:
		fn := &fullNode{}
		for i := 0; i < 16; i++ {
			c, err := childFromItem(item.At(i))
			if err != nil {
				return nil, err
			}
			fn.Children[i] = c
		}
		v := item.At(16)
		if v.Kind() != rlp.KindString {
			return nil, errors.New("trie: branch value is a list")
		}
		if s := v.Str(); len(s) > 0 {
			fn.Children[16] = valueNode(append([]byte(nil), s...))
		}
		return fn, nil
	default:
		return nil, fmt.Errorf("trie: node encoding has %d items", item.Len())
	}
}

func childFromItem(c *rlp.Item) (node, error) {
	if c.Kind() == rlp.KindList {
		return nodeFromItem(c)
	}
	s := c.Str()
	switch len(s) {
	case 0:
		return nil, nil
	case 32:
		var h hashNode
		copy(h[:], s)
		return h, nil
	default:
		return nil, errors.New("trie: bad child reference length")
	}
}

// Unload collapses the trie to a single hash reference, releasing
// every resident node. The trie must have a resolver (or stay
// read-only) to be useful afterwards; callers persist all fresh nodes
// (HashCollect) before unloading.
func (t *Trie) Unload() {
	if t.root == nil {
		return
	}
	if _, ok := t.root.(hashNode); ok {
		return
	}
	h := t.Hash()
	if h == EmptyRoot {
		t.root = nil
		return
	}
	t.root = hashNode(h)
}

// WalkNodeGraph visits every hash-referenced node reachable from root,
// resolving through r, calling visit with each node's hash and RLP
// encoding and leaf (when non-nil) with each leaf value. Inline
// (sub-32-byte) nodes are traversed but not visited — they live inside
// their parent's encoding and have no identity of their own. Used by
// node stores to mark the live set during compaction.
func WalkNodeGraph(root ethtypes.Hash, r Resolver, visit func(h ethtypes.Hash, enc []byte) error, leaf func(value []byte) error) error {
	if root == (ethtypes.Hash{}) || root == EmptyRoot {
		return nil
	}
	enc, dec, err := (&Trie{resolver: r}).load(hashNode(root))
	if err != nil {
		return err
	}
	if visit != nil {
		if err := visit(root, enc); err != nil {
			return err
		}
	}
	return walkDecoded(dec, r, visit, leaf)
}

func walkDecoded(n node, r Resolver, visit func(h ethtypes.Hash, enc []byte) error, leaf func(value []byte) error) error {
	switch cur := n.(type) {
	case nil:
		return nil
	case valueNode:
		if leaf != nil {
			return leaf(cur)
		}
		return nil
	case hashNode:
		return WalkNodeGraph(ethtypes.Hash(cur), r, visit, leaf)
	case *shortNode:
		return walkDecoded(cur.Val, r, visit, leaf)
	case *fullNode:
		for i := 0; i < 17; i++ {
			if cur.Children[i] == nil {
				continue
			}
			if err := walkDecoded(cur.Children[i], r, visit, leaf); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("trie: unknown node %T in graph walk", n)
	}
}
