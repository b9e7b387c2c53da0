package statestore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/seglog"
	"legalchain/internal/trie"
)

// FuzzDecodeRecord feeds hostile bytes to the two decoders that read the
// log: decodeRecord (replay) and DecodeAccountRecord (reads and the
// compaction mark). Neither panics, and an account encoding that decodes
// has a balance that fits a uint256 and encodes back to the same bytes.
// The same bytes then fill one record of every kind the store writes,
// encoded as Commit and Compact encode it, and each decodes to the
// fields it was written with.
func FuzzDecodeRecord(f *testing.F) {
	// A list where the balance belongs: once a panic in DecodeAccountRecord.
	f.Add([]byte("\xe80\xc00\xa4" + strings.Repeat("0", 36)))
	// A 33-byte balance.
	f.Add((&AccountRecord{Nonce: 1, Balance: bytes.Repeat([]byte{0xff}, 33), StorageRoot: trie.EmptyRoot}).Encode())
	f.Add((&AccountRecord{Nonce: 7, Balance: []byte{1, 2}, StorageRoot: trie.EmptyRoot, CodeHash: h32(9)}).Encode())
	a1, s2 := addr(1), h32(2)
	f.Add(record(kindSlot, rlp.Bytes(a1[:]), rlp.Bytes(s2[:]), rlp.Bytes([]byte{0xaa})))
	f.Add(record(kindClear, rlp.List()))
	f.Add(anchorRecord(testAnchor(3)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		pos := seglog.Pos{Index: 1, Off: 8, Len: uint32(len(data))}
		decodeRecord(pos, data)
		if rec, err := DecodeAccountRecord(data); err == nil {
			if len(rec.Balance) > 32 {
				t.Fatalf("account %x decodes with a %d-byte balance", data, len(rec.Balance))
			}
			if got := rec.Encode(); !bytes.Equal(got, data) {
				t.Fatalf("account %x decodes to %+v, which encodes to %x", data, rec, got)
			}
		}

		// Fields taken from the input.
		var a ethtypes.Address
		var h, h2 ethtypes.Hash
		copy(a[:], data)
		copy(h[:], data[min(len(data), 3):])
		copy(h2[:], data[min(len(data), 5):])
		var word [8]byte
		copy(word[:], data)
		n := binary.BigEndian.Uint64(word[:])
		val := data[min(len(data), 7):]

		balance := bytes.TrimLeft(data[:min(len(data), 32)], "\x00")
		acct := &AccountRecord{Nonce: n, Balance: balance, StorageRoot: h, CodeHash: h2}
		got, err := DecodeAccountRecord(acct.Encode())
		if err != nil || got.Nonce != acct.Nonce || !bytes.Equal(got.Balance, acct.Balance) ||
			got.StorageRoot != acct.StorageRoot || got.CodeHash != acct.CodeHash {
			t.Fatalf("account %+v reads back as %+v, %v", acct, got, err)
		}

		anchor := Anchor{Gen: n, Number: n >> 3, BlockHash: h, Root: h2}
		for _, c := range []struct {
			payload []byte
			op      indexOp
		}{
			{record(kindAccount, rlp.Bytes(a[:]), rlp.Bytes(val)), indexOp{kind: kindAccount, addr: a, del: len(val) == 0}},
			{record(kindSlot, rlp.Bytes(a[:]), rlp.Bytes(h[:]), rlp.Bytes(val)), indexOp{kind: kindSlot, addr: a, key: h, del: len(val) == 0}},
			{record(kindCode, rlp.Bytes(h[:]), rlp.Bytes(val)), indexOp{kind: kindCode, key: h}},
			{record(kindNode, rlp.Bytes(h2[:]), rlp.Bytes(val)), indexOp{kind: kindNode, key: h2}},
			{record(kindClear, rlp.Bytes(a[:])), indexOp{kind: kindClear, addr: a}},
			{anchorRecord(anchor), indexOp{kind: kindAnchor}},
		} {
			c.op.pos = pos
			op, got, err := decodeRecord(pos, c.payload)
			if err != nil || !reflect.DeepEqual(op, c.op) {
				t.Fatalf("record %x decodes to %+v, %v; want %+v", c.payload, op, err, c.op)
			}
			if (got != nil) != (c.op.kind == kindAnchor) || got != nil && *got != anchor {
				t.Fatalf("record %x decodes to anchor %+v, want %+v", c.payload, got, anchor)
			}
		}
	})
}
