package blockdb

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// makeRecords builds n+1 hash-linked records (genesis plus n blocks),
// each carrying one dummy transaction and receipt so the codec paths
// are exercised.
func makeRecords(n int) []*Record {
	recs := make([]*Record, 0, n+1)
	genesis := &Record{Header: &ethtypes.Header{Number: 0, Time: 1000, GasLimit: 8_000_000}}
	recs = append(recs, genesis)
	for i := 1; i <= n; i++ {
		to := ethtypes.HexToAddress("0x00000000000000000000000000000000000000aa")
		tx := &ethtypes.Transaction{
			Nonce:    uint64(i - 1),
			GasPrice: uint256.NewUint64(1_000_000_000),
			Gas:      21000,
			To:       &to,
			Value:    uint256.NewUint64(uint64(i)),
			Data:     []byte{byte(i)},
			V:        big.NewInt(37),
			R:        big.NewInt(int64(i) + 1),
			S:        big.NewInt(int64(i) + 2),
		}
		h := &ethtypes.Header{
			ParentHash: recs[i-1].Header.Hash(),
			Number:     uint64(i),
			Time:       1000 + uint64(i),
			GasLimit:   8_000_000,
			GasUsed:    21000,
		}
		rcpt := &ethtypes.Receipt{
			TxHash:            tx.Hash(),
			BlockNumber:       uint64(i),
			From:              ethtypes.HexToAddress("0x00000000000000000000000000000000000000bb"),
			To:                &to,
			GasUsed:           21000,
			CumulativeGasUsed: 21000,
			Status:            ethtypes.ReceiptStatusSuccessful,
			Logs: []*ethtypes.Log{{
				Address:     to,
				Topics:      []ethtypes.Hash{ethtypes.Keccak256([]byte("topic"))},
				Data:        []byte{1, 2, 3},
				BlockNumber: uint64(i),
				TxHash:      tx.Hash(),
			}},
		}
		recs = append(recs, &Record{Header: h, Txs: []*ethtypes.Transaction{tx}, Receipts: []*ethtypes.Receipt{rcpt}})
	}
	return recs
}

func openFilled(t *testing.T, dir string, n int, opts Options) []*Record {
	t.Helper()
	l, got, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log has %d records", len(got))
	}
	recs := makeRecords(n)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// segments returns the log's segment files in name (= first record)
// order.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return names
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := openFilled(t, dir, 10, Options{})
	_, got, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped() {
		t.Fatalf("clean log reported drops: %+v", rep)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Header.Hash() != want[i].Header.Hash() {
			t.Fatalf("record %d header hash mismatch", i)
		}
		if len(got[i].Txs) != len(want[i].Txs) {
			t.Fatalf("record %d tx count", i)
		}
		for j := range want[i].Txs {
			if got[i].Txs[j].Hash() != want[i].Txs[j].Hash() {
				t.Fatalf("record %d tx %d hash", i, j)
			}
		}
		for j := range want[i].Receipts {
			w, g := want[i].Receipts[j], got[i].Receipts[j]
			if g.TxHash != w.TxHash || g.GasUsed != w.GasUsed || g.Status != w.Status {
				t.Fatalf("record %d receipt %d mismatch", i, j)
			}
			if len(g.Logs) != len(w.Logs) || g.Logs[0].Topics[0] != w.Logs[0].Topics[0] {
				t.Fatalf("record %d receipt %d logs mismatch", i, j)
			}
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	openFilled(t, dir, 50, Options{SegmentSize: 2048})
	if segs := segments(t, dir); len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	_, got, rep, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped() || len(got) != 51 {
		t.Fatalf("rotated log recovery: %d records, report %+v", len(got), rep)
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	segs := segments(t, dir)
	return segs[len(segs)-1]
}

func TestTortureTornTail(t *testing.T) {
	dir := t.TempDir()
	openFilled(t, dir, 8, Options{})
	// Chop bytes off the tail, mid-frame.
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	l, got, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 { // genesis + 7 full blocks survive
		t.Fatalf("recovered %d records, want 8", len(got))
	}
	if !rep.Dropped() || rep.DroppedBytes == 0 {
		t.Fatalf("report misses the drop: %+v", rep)
	}
	// The log must accept appends that continue the recovered prefix.
	recs := makeRecords(8)
	fresh := &Record{Header: &ethtypes.Header{ParentHash: recs[7].Header.Hash(), Number: 8, Time: 2000, GasLimit: 8_000_000}}
	if err := l.Append(fresh); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got2, rep2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 9 || rep2.Dropped() {
		t.Fatalf("after repair+append: %d records, report %+v", len(got2), rep2)
	}
}

func TestTortureFlippedByte(t *testing.T) {
	dir := t.TempDir()
	openFilled(t, dir, 20, Options{SegmentSize: 2048})
	segs := segments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	var second int
	if _, err := fmt.Sscanf(filepath.Base(segs[1]), segPrefix+"%010d.seg", &second); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the second segment: its prefix stays,
	// everything after — including later segments — is dropped.
	path := segs[1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, rep, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 21 || len(got) < second {
		t.Fatalf("recovered %d records", len(got))
	}
	if !rep.Dropped() {
		t.Fatalf("report misses the drop: %+v", rep)
	}
	// Recovered prefix must still be hash-linked.
	for i := 1; i < len(got); i++ {
		if got[i].Header.ParentHash != got[i-1].Header.Hash() {
			t.Fatalf("recovered prefix broken at %d", i)
		}
	}
	// And a second open of the repaired log is clean.
	_, got2, rep2, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(got) || rep2.Dropped() {
		t.Fatalf("repair not sticky: %d vs %d, %+v", len(got2), len(got), rep2)
	}
}

func TestTortureGarbageHeader(t *testing.T) {
	dir := t.TempDir()
	openFilled(t, dir, 4, Options{})
	// Declare an absurd frame length in a fresh tail frame.
	path := lastSegment(t, dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Close()
	_, got, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !rep.Dropped() {
		t.Fatalf("recovered %d records, report %+v", len(got), rep)
	}
}

func TestRewind(t *testing.T) {
	dir := t.TempDir()
	openFilled(t, dir, 30, Options{SegmentSize: 2048})
	l, got, _, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rewind(12); err != nil {
		t.Fatal(err)
	}
	// Appending record 12 continues the prefix.
	next := &Record{Header: &ethtypes.Header{ParentHash: got[11].Header.Hash(), Number: 12, Time: 5000, GasLimit: 8_000_000}}
	if err := l.Append(next); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got2, rep, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 13 || rep.Dropped() {
		t.Fatalf("after rewind+append: %d records, %+v", len(got2), rep)
	}
	if got2[12].Header.Hash() != next.Header.Hash() {
		t.Fatal("appended record lost")
	}
}

func TestAppendOutOfOrderRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(&Record{Header: &ethtypes.Header{Number: 5}}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	for i := uint64(1); i <= 4; i++ {
		s := &Snapshot{Number: i * 10, BlockHash: ethtypes.Keccak256([]byte{byte(i)}), State: []byte{byte(i), 0xee}}
		if err := WriteSnapshot(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	nums := SnapshotNumbers(dir)
	if len(nums) != snapshotsKept {
		t.Fatalf("pruning kept %d snapshots, want %d", len(nums), snapshotsKept)
	}
	if nums[0] != 40 || nums[1] != 30 {
		t.Fatalf("wrong generations kept: %d, %d", nums[0], nums[1])
	}
	newest, err := LoadSnapshot(dir, nums[0])
	if err != nil {
		t.Fatal(err)
	}
	if newest.Number != 40 || newest.State[0] != 4 || newest.BlockHash != ethtypes.Keccak256([]byte{4}) {
		t.Fatal("snapshot payload mismatch")
	}
}

func TestSnapshotCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	for i := uint64(1); i <= 2; i++ {
		s := &Snapshot{Number: i * 10, BlockHash: ethtypes.Keccak256([]byte{byte(i)}), State: []byte{byte(i)}}
		if err := WriteSnapshot(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest snapshot.
	path := filepath.Join(dir, "state-0000000020.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir, 20); err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
	if s, err := LoadSnapshot(dir, 10); err != nil || s.Number != 10 {
		t.Fatalf("intact snapshot: %+v, %v", s, err)
	}
}

// TestSegmentBytesPinned pins the on-disk block log: the segment names
// and bytes of makeRecords(50) at a 2 KiB segment size hash to the value
// logs written before the log moved onto seglog hash to, so every
// existing chain directory still opens.
func TestSegmentBytesPinned(t *testing.T) {
	dir := t.TempDir()
	openFilled(t, dir, 50, Options{SegmentSize: 2048, NoSync: true})
	h := sha256.New()
	for _, path := range segments(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(path)))
		h.Write(data)
	}
	const want = "9cbf309fb816bb543cebbc25bde70d693e9813d6a327302328545259dbc0ab5f"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("block-log bytes changed: sha256 %s, want %s", got, want)
	}
}

// FuzzBlockHash decodes a journaled record into its block and reads
// Block.Hash, which is memoised on the block, against the un-memoised
// Header.Hash: first as decoded (twice, the second answer from the
// memo), then with one header field changed in place (the memo must
// follow the header, not return the remembered hash), then with the
// field restored (the original hash again).
func FuzzBlockHash(f *testing.F) {
	for i, rec := range makeRecords(3) {
		f.Add(rec.Encode(), byte(i), byte(i+1), byte(0x80))
	}
	f.Fuzz(func(t *testing.T, raw []byte, field, pos, flip byte) {
		rec, err := DecodeRecord(raw)
		if err != nil {
			return
		}
		b := rec.Block()
		check := func(stage string) {
			t.Helper()
			want := b.Header.Hash()
			for call := 1; call <= 2; call++ {
				if got := b.Hash(); got != want {
					t.Fatalf("%s, call %d: Hash = %s, Header.Hash = %s", stage, call, got, want)
				}
			}
		}
		check("decoded")
		if flip == 0 {
			return
		}
		h := b.Header
		orig := *h
		switch field % 10 {
		case 0:
			h.ParentHash[pos%32] ^= flip
		case 1:
			h.Number ^= uint64(flip) << (pos % 64)
		case 2:
			h.Time ^= uint64(flip) << (pos % 64)
		case 3:
			h.GasLimit ^= uint64(flip) << (pos % 64)
		case 4:
			h.GasUsed ^= uint64(flip) << (pos % 64)
		case 5:
			h.Coinbase[pos%20] ^= flip
		case 6:
			h.StateRoot[pos%32] ^= flip
		case 7:
			h.TxRoot[pos%32] ^= flip
		case 8:
			h.ReceiptRoot[pos%32] ^= flip
		case 9:
			// A new header, not an edit of the old one.
			cp := orig
			cp.Number ^= uint64(flip)
			b.Header = &cp
		}
		check("mutated")
		*h = orig
		b.Header = h
		check("restored")
	})
}
