package ipfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestComputeCIDKnown(t *testing.T) {
	// Raw sha2-256 multihash of the content, base58btc. (Unlike `ipfs
	// add`, no UnixFS dag-pb framing is applied — the content IS the
	// block.) The constant was computed independently of this package.
	got := ComputeCID([]byte("hello world\n"))
	want := CID("QmZjTnYw2TFhn9Nn7tjmPSoTBoY7YRkwPzwSrSbabY24Kp")
	if got != want {
		t.Fatalf("CID = %s, want %s", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCIDDeterministicAndDistinct(t *testing.T) {
	f := func(a, b []byte) bool {
		ca1, ca2 := ComputeCID(a), ComputeCID(a)
		cb := ComputeCID(b)
		if ca1 != ca2 {
			return false
		}
		if !bytes.Equal(a, b) && ca1 == cb {
			return false // collision on random input: effectively impossible
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBase58RoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		enc := base58Encode(raw)
		dec, err := base58Decode(enc)
		return err == nil && bytes.Equal(dec, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := base58Decode("0OIl"); err == nil {
		t.Error("invalid base58 accepted")
	}
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	data := []byte("rental agreement ABI document")
	cid, err := s.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Get(cid)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("Get: %q %v", back, err)
	}
	// Idempotent add.
	cid2, _ := s.Add(data)
	if cid2 != cid {
		t.Fatal("Add not idempotent")
	}
	// Missing content.
	if _, err := s.Get(ComputeCID([]byte("other"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	// A second blob leaves the first in place.
	if _, err := s.Add([]byte("second blob")); err != nil {
		t.Fatal(err)
	}
	if back, err := s.Get(cid); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("Get after a second Add: %q %v", back, err)
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, fs)
	// Persistence across reopen.
	cid := ComputeCID([]byte("rental agreement ABI document"))
	fs2, _ := NewFileStore(dir)
	if _, err := fs2.Get(cid); err != nil {
		t.Fatalf("content lost across reopen: %v", err)
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	fs, _ := NewFileStore(dir)
	cid, _ := fs.Add([]byte("important ABI"))
	// Corrupt the file on disk.
	p := filepath.Join(dir, string(cid))
	if err := os.WriteFile(p, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get(cid); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

// TestFileStoreLeftoverTmp: a crash between the write and the rename
// leaves <cid>.tmp behind. Get does not serve it, Add over it stores the
// blob, and no temporary file is left afterwards. The fsyncs themselves
// are not checked: that needs a filesystem that drops unsynced writes.
func TestFileStoreLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	data := []byte("registry-named ABI")
	cid := ComputeCID(data)
	if err := os.WriteFile(filepath.Join(dir, string(cid)+".tmp"), data[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get(cid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get with only a leftover .tmp: %v, want ErrNotFound", err)
	}
	if got, err := fs.Add(data); err != nil || got != cid {
		t.Fatalf("Add over a leftover .tmp: %s, %v", got, err)
	}
	if back, err := fs.Get(cid); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("Get after Add: %q, %v", back, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	for _, s := range []CID{"", "notacid", "Qm///", CID(base58Encode([]byte{0x12, 0x19, 1, 2}))} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%q) accepted", s)
		}
	}
}

func BenchmarkAdd1KiB(b *testing.B) {
	s := NewMemStore()
	data := bytes.Repeat([]byte("a"), 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		if _, err := s.Add(data); err != nil {
			b.Fatal(err)
		}
	}
}
