// Package ipfs implements a content-addressable store with the
// properties the paper relies on from the InterPlanetary File System:
// blobs are addressed by a CID derived from their content (a CIDv0-style
// base58btc sha2-256 multihash), and retrieval is integrity-checked. It
// is the CID store only: the registry row of a contract version names
// the CIDs of its ABI, storage layout and legal document, so a client
// holding only an address recovered from a version link reads the row
// and fetches the blobs here.
package ipfs

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Errors returned by stores.
var (
	ErrNotFound  = errors.New("ipfs: content not found")
	ErrCorrupted = errors.New("ipfs: stored content does not match its CID")
	ErrBadCID    = errors.New("ipfs: malformed CID")
)

// CID is a content identifier string ("Qm..." base58btc of the sha2-256
// multihash).
type CID string

// multihash prefix for sha2-256: code 0x12, length 0x20.
var mhPrefix = []byte{0x12, 0x20}

// base58btc alphabet (Bitcoin/IPFS).
const b58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

// ComputeCID derives the CID of a blob.
func ComputeCID(data []byte) CID {
	sum := sha256.Sum256(data)
	raw := append(append([]byte(nil), mhPrefix...), sum[:]...)
	return CID(base58Encode(raw))
}

// Validate checks the CID's syntax and digest length.
func (c CID) Validate() error {
	raw, err := base58Decode(string(c))
	if err != nil {
		return ErrBadCID
	}
	if len(raw) != 34 || raw[0] != 0x12 || raw[1] != 0x20 {
		return ErrBadCID
	}
	return nil
}

func base58Encode(b []byte) string {
	x := new(big.Int).SetBytes(b)
	radix := big.NewInt(58)
	mod := new(big.Int)
	var out []byte
	for x.Sign() > 0 {
		x.DivMod(x, radix, mod)
		out = append(out, b58Alphabet[mod.Int64()])
	}
	// Leading zero bytes become leading '1's.
	for _, c := range b {
		if c != 0 {
			break
		}
		out = append(out, '1')
	}
	// Reverse.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return string(out)
}

func base58Decode(s string) ([]byte, error) {
	x := big.NewInt(0)
	radix := big.NewInt(58)
	for _, c := range s {
		idx := strings.IndexRune(b58Alphabet, c)
		if idx < 0 {
			return nil, fmt.Errorf("ipfs: invalid base58 character %q", c)
		}
		x.Mul(x, radix)
		x.Add(x, big.NewInt(int64(idx)))
	}
	out := x.Bytes()
	// Restore leading zeros.
	for _, c := range s {
		if c != '1' {
			break
		}
		out = append([]byte{0}, out...)
	}
	return out, nil
}

// Store is a content-addressable blob store.
type Store interface {
	// Add stores data and returns its CID (idempotent).
	Add(data []byte) (CID, error)
	// Get retrieves and integrity-checks the blob.
	Get(cid CID) ([]byte, error)
}

// MemStore keeps blobs in memory.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[CID][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: map[CID][]byte{}}
}

// Add implements Store.
func (m *MemStore) Add(data []byte) (CID, error) {
	cid := ComputeCID(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[cid]; !ok {
		m.blobs[cid] = append([]byte(nil), data...)
	}
	return cid, nil
}

// Get implements Store.
func (m *MemStore) Get(cid CID) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.blobs[cid]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, cid)
	}
	if ComputeCID(data) != cid {
		return nil, ErrCorrupted
	}
	return append([]byte(nil), data...), nil
}

// FileStore persists blobs under a directory, one file per CID.
type FileStore struct {
	dir string
	mu  sync.RWMutex
}

// NewFileStore creates/opens a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ipfs: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (f *FileStore) path(cid CID) string { return filepath.Join(f.dir, string(cid)) }

// Add implements Store. The blob is synced before it is renamed into
// place and the directory after, so a registry row that names the CID,
// written after Add returns, cannot outlive the blob across a crash. A
// <cid>.tmp that a crash left behind is overwritten.
func (f *FileStore) Add(data []byte) (CID, error) {
	cid := ComputeCID(data)
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.path(cid)
	if _, err := os.Stat(p); err == nil {
		return cid, nil
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := fsync(tmp); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, p); err != nil {
		return "", err
	}
	if err := fsync(f.dir); err != nil {
		return "", err
	}
	return cid, nil
}

// fsync flushes the named file or directory to stable storage.
func fsync(name string) error {
	fh, err := os.Open(name)
	if err != nil {
		return err
	}
	err = fh.Sync()
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements Store.
func (f *FileStore) Get(cid CID) ([]byte, error) {
	if err := cid.Validate(); err != nil {
		return nil, err
	}
	f.mu.RLock()
	data, err := os.ReadFile(f.path(cid))
	f.mu.RUnlock()
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, cid)
		}
		return nil, err
	}
	if ComputeCID(data) != cid {
		return nil, ErrCorrupted
	}
	return data, nil
}

// Node is the "IPFS node" of the paper's architecture: the blob store
// every tier shares. Which CID belongs to which contract version is the
// registry's record (core.ContractRow), not the node's.
type Node struct {
	Blobs Store
}

// NewNode builds a node over the given blob store.
func NewNode(blobs Store) *Node {
	return &Node{Blobs: blobs}
}
