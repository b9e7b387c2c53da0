package statestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/trie"
)

// copyDir copies the flat directory src into dst (created if needed),
// overwriting files of the same name.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// liveView is what a reopened store must agree on: the anchor, every
// flat account and slot, and the bytes of the given codes and nodes.
type liveView struct {
	anchor   Anchor
	accounts map[ethtypes.Address][]byte
	slots    map[slotKey][]byte
	blobs    map[ethtypes.Hash][]byte
}

func viewOf(t *testing.T, s *Store, codes, nodes []ethtypes.Hash) liveView {
	t.Helper()
	a, ok := s.Anchor()
	if !ok {
		t.Fatal("no anchor")
	}
	v := liveView{anchor: a, accounts: map[ethtypes.Address][]byte{}, slots: map[slotKey][]byte{}, blobs: map[ethtypes.Hash][]byte{}}
	for addr, p := range s.accounts {
		enc, err := s.recordValue(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		v.accounts[addr] = enc
	}
	for k, p := range s.slots {
		val, err := s.recordValue(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		v.slots[k] = val
	}
	for _, h := range codes {
		c, err := s.Code(h)
		if err != nil {
			t.Fatalf("code %s: %v", h, err)
		}
		v.blobs[h] = c
	}
	for _, h := range nodes {
		n, err := s.ResolveNode(h)
		if err != nil {
			t.Fatalf("node %s: %v", h, err)
		}
		v.blobs[h] = n
	}
	return v
}

func (v liveView) equal(w liveView) bool {
	if v.anchor != w.anchor || len(v.accounts) != len(w.accounts) || len(v.slots) != len(w.slots) || len(v.blobs) != len(w.blobs) {
		return false
	}
	for k, x := range v.accounts {
		if !bytes.Equal(x, w.accounts[k]) {
			return false
		}
	}
	for k, x := range v.slots {
		if !bytes.Equal(x, w.slots[k]) {
			return false
		}
	}
	for k, x := range v.blobs {
		if !bytes.Equal(x, w.blobs[k]) {
			return false
		}
	}
	return true
}

// TestCompactCrashImages checks compaction's crash claim on the images
// a crash can leave: the directory before Compact (A) and after it (B)
// both present — old and new segments side by side, as when a crash
// lands before the old segments are deleted — and the same with B's
// last segment torn mid-frame. Each must reopen to the anchor and live
// index the compacted store has.
func TestCompactCrashImages(t *testing.T) {
	opts := Options{NoSync: true, SegmentSize: 1024}
	work := t.TempDir()
	s, err := Open(work, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := trie.NewSecure()
	code := []byte("live contract code")
	codeHash := ethtypes.Keccak256(code)
	for gen := uint64(1); gen <= 6; gen++ {
		b := &Batch{}
		for i := 0; i < 16; i++ {
			a := addr(byte(i))
			if gen == 6 && i%4 == 0 {
				tr.Delete(a[:])
				b.PutAccount(a, nil) // a tombstone the copies must not undo
				b.PutSlot(a, h32(1), nil)
				continue
			}
			rec := &AccountRecord{Nonce: gen, Balance: []byte{byte(gen), byte(i)}, StorageRoot: trie.EmptyRoot, CodeHash: codeHash}
			tr.Put(a[:], rec.Encode())
			b.PutAccount(a, rec)
			b.PutSlot(a, h32(1), []byte{byte(gen)})
		}
		b.PutCode(codeHash, code)
		b.PutCode(h32(byte(gen)), []byte("dead code")) // unreachable: compaction drops it
		root := tr.HashCollect(func(h ethtypes.Hash, enc []byte) {
			b.PutNode(h, append([]byte(nil), enc...))
		})
		if err := s.Commit(b, Anchor{Gen: gen, Number: gen, BlockHash: h32(byte(gen)), Root: root}); err != nil {
			t.Fatal(err)
		}
	}
	imageA := t.TempDir()
	copyDir(t, work, imageA)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	imageB := t.TempDir()
	copyDir(t, work, imageB)
	var nodes []ethtypes.Hash
	for h := range s.nodes {
		nodes = append(nodes, h)
	}
	want := viewOf(t, s, []ethtypes.Hash{codeHash}, nodes)
	if len(want.accounts) != 12 || len(want.slots) != 12 || len(s.codes) != 1 {
		t.Fatalf("compacted store holds %d accounts, %d slots, %d codes", len(want.accounts), len(want.slots), len(s.codes))
	}
	s.Close()

	segsB, _ := filepath.Glob(filepath.Join(imageB, "kv-*.seg"))
	sort.Strings(segsB)
	if len(segsB) < 2 {
		t.Fatalf("compaction wrote %d segments; the torn case wants several", len(segsB))
	}
	lastB := filepath.Base(segsB[len(segsB)-1])

	both := t.TempDir()
	copyDir(t, imageA, both)
	copyDir(t, imageB, both)
	torn := t.TempDir()
	copyDir(t, both, torn)
	data, err := os.ReadFile(filepath.Join(torn, lastB))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, lastB), data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, image := range []struct{ name, dir string }{{"B", imageB}, {"A+B", both}, {"A+B torn", torn}} {
		r, err := Open(image.dir, opts)
		if err != nil {
			t.Fatalf("%s: %v", image.name, err)
		}
		if got := viewOf(t, r, []ethtypes.Hash{codeHash}, nodes); !got.equal(want) {
			t.Errorf("%s reopened to anchor %+v with %d accounts, %d slots; want anchor %+v with %d, %d",
				image.name, got.anchor, len(got.accounts), len(got.slots), want.anchor, len(want.accounts), len(want.slots))
		}
		if _, err := r.Account(addr(0)); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: deleted account resurrected: %v", image.name, err)
		}
		r.Close()
	}
}
