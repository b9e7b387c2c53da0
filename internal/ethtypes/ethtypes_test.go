package ethtypes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"legalchain/internal/rlp"
	"legalchain/internal/secp256k1"
	"legalchain/internal/uint256"
)

func TestAddressHexRoundTrip(t *testing.T) {
	a := HexToAddress("0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed")
	if a.Hex() != "0x5aaeb6053f3e94c9b9a09f33669435e7ef1beaed" {
		t.Fatalf("Hex() = %s", a.Hex())
	}
	raw, _ := json.Marshal(a)
	var back Address
	if err := json.Unmarshal(raw, &back); err != nil || back != a {
		t.Fatal("JSON round trip failed")
	}
	if err := json.Unmarshal([]byte(`"0x1234"`), &back); err == nil {
		t.Fatal("short address accepted")
	}
}

// TestParseAddressAndHash: the parsers of outside input take 0x-prefixed
// hex of exactly 20 or 32 bytes and answer an error, never a panic or a
// padded value, for anything else; UnmarshalJSON applies the same rule.
func TestParseAddressAndHash(t *testing.T) {
	addr := "0x5aaeb6053f3e94c9b9a09f33669435e7ef1beaed"
	hash := "0x" + strings.Repeat("ab", 32)
	if a, err := ParseAddress(addr); err != nil || a != HexToAddress(addr) {
		t.Fatalf("ParseAddress(%s) = %s, %v", addr, a, err)
	}
	if h, err := ParseHash(hash); err != nil || h != HexToHash(hash) {
		t.Fatalf("ParseHash(%s) = %s, %v", hash, h, err)
	}
	for _, s := range []string{"", "0x", "nothex", addr[2:], addr[:41], addr + "00", "0x" + strings.Repeat("z", 40), hash} {
		if a, err := ParseAddress(s); err == nil || !a.IsZero() {
			t.Errorf("ParseAddress(%q) = %s, %v", s, a, err)
		}
		var a Address
		if err := json.Unmarshal([]byte(`"`+s+`"`), &a); err == nil {
			t.Errorf("Address.UnmarshalJSON(%q) accepted", s)
		}
	}
	for _, s := range []string{"", "0x", "0x12", hash[:65], hash + "00", "0x" + strings.Repeat("z", 64), addr} {
		if h, err := ParseHash(s); err == nil || !h.IsZero() {
			t.Errorf("ParseHash(%q) = %s, %v", s, h, err)
		}
		var h Hash
		if err := json.Unmarshal([]byte(`"`+s+`"`), &h); err == nil {
			t.Errorf("Hash.UnmarshalJSON(%q) accepted", s)
		}
	}
}

func TestHashJSON(t *testing.T) {
	h := Keccak256([]byte("x"))
	raw, _ := json.Marshal(h)
	var back Hash
	if err := json.Unmarshal(raw, &back); err != nil || back != h {
		t.Fatal("hash JSON round trip failed")
	}
}

// The canonical address of private key 1 is a published constant; this
// pins PubkeyToAddress end to end (curve + keccak + truncation).
func TestPubkeyToAddressKnown(t *testing.T) {
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(1))
	addr := PubkeyToAddress(key.Public)
	want := "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
	if addr.Hex() != want {
		t.Fatalf("address of key 1 = %s, want %s", addr.Hex(), want)
	}
	// Key 2 as a second pin.
	key2 := secp256k1.PrivateKeyFromScalar(big.NewInt(2))
	want2 := "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf"
	if got := PubkeyToAddress(key2.Public).Hex(); got != want2 {
		t.Fatalf("address of key 2 = %s, want %s", got, want2)
	}
}

// CreateAddress pins against the published example: sender 0x00..00 with
// nonce 0 and a couple of locally-derived consistency checks.
func TestCreateAddressDeterministic(t *testing.T) {
	a := HexToAddress("0x970e8128ab834e8eac17ab8e3812f010678cf791")
	c0 := CreateAddress(a, 0)
	c1 := CreateAddress(a, 1)
	if c0 == c1 {
		t.Fatal("different nonces must give different contract addresses")
	}
	if CreateAddress(a, 0) != c0 {
		t.Fatal("CreateAddress must be deterministic")
	}
}

func TestTransactionSignSenderRoundTrip(t *testing.T) {
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(0xbeef))
	from := PubkeyToAddress(key.Public)
	to := HexToAddress("0x00000000000000000000000000000000000000aa")
	tx := &Transaction{
		Nonce:    3,
		GasPrice: Gwei(1),
		Gas:      21000,
		To:       &to,
		Value:    Ether(2),
		Data:     []byte{0xca, 0xfe},
	}
	const chainID = 1337
	if err := tx.Sign(key, chainID); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Sender(chainID)
	if err != nil {
		t.Fatal(err)
	}
	if got != from {
		t.Fatalf("sender = %s, want %s", got, from)
	}
	// Wrong chain id must be rejected (replay protection).
	if _, err := tx.Sender(1); err == nil {
		t.Fatal("cross-chain replay accepted")
	}
}

func TestTransactionEncodeDecode(t *testing.T) {
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(77))
	to := HexToAddress("0x1111111111111111111111111111111111111111")
	tx := &Transaction{Nonce: 9, GasPrice: Gwei(2), Gas: 100000, To: &to, Value: uint256.NewUint64(5), Data: []byte("hello")}
	if err := tx.Sign(key, 1337); err != nil {
		t.Fatal(err)
	}
	enc := tx.Encode()
	back, err := DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != tx.Hash() {
		t.Fatal("hash changed across encode/decode")
	}
	if back.Nonce != 9 || *back.To != to || string(back.Data) != "hello" {
		t.Fatal("fields corrupted")
	}
	s1, _ := tx.Sender(1337)
	s2, err := back.Sender(1337)
	if err != nil || s1 != s2 {
		t.Fatal("sender not preserved")
	}
}

// TestDecodeRefusesListForBytes puts an empty list where 'to' or data
// belongs: decoding refuses it instead of panicking in rlp's Str.
func TestDecodeRefusesListForBytes(t *testing.T) {
	for _, slot := range []int{3, 5} {
		fields := []*rlp.Item{rlp.Uint(0), rlp.Uint(1), rlp.Uint(21000), rlp.Bytes(nil), rlp.Uint(0),
			rlp.Bytes(nil), rlp.Uint(2709), rlp.Uint(1), rlp.Uint(1)}
		fields[slot] = rlp.List()
		if _, err := DecodeTransaction(rlp.Encode(rlp.List(fields...))); err == nil {
			t.Fatalf("a list in slot %d decoded", slot)
		}
	}
}

func TestContractCreationTx(t *testing.T) {
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(55))
	tx := &Transaction{Nonce: 0, GasPrice: Gwei(1), Gas: 1_000_000, To: nil, Data: []byte{0x60, 0x00}}
	if !tx.IsCreate() {
		t.Fatal("nil To must be a creation")
	}
	if err := tx.Sign(key, 1337); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.To != nil {
		t.Fatal("creation lost across round trip")
	}
}

func TestUnsignedSenderFails(t *testing.T) {
	tx := &Transaction{Nonce: 0, Gas: 21000}
	if _, err := tx.Sender(1337); err == nil {
		t.Fatal("unsigned transaction produced a sender")
	}
}

func TestSigHashDependsOnEveryField(t *testing.T) {
	to := HexToAddress("0x2222222222222222222222222222222222222222")
	base := Transaction{Nonce: 1, GasPrice: Gwei(1), Gas: 21000, To: &to, Value: Ether(1), Data: []byte{1}}
	h := base.SigHash(1337)
	mutations := []func(*Transaction){
		func(tx *Transaction) { tx.Nonce++ },
		func(tx *Transaction) { tx.GasPrice = Gwei(3) },
		func(tx *Transaction) { tx.Gas++ },
		func(tx *Transaction) { tx.To = nil },
		func(tx *Transaction) { tx.Value = Ether(2) },
		func(tx *Transaction) { tx.Data = []byte{2} },
	}
	for i, mut := range mutations {
		cp := base
		mut(&cp)
		if cp.SigHash(1337) == h {
			t.Errorf("mutation %d did not change sig hash", i)
		}
	}
	if base.SigHash(1) == h {
		t.Error("chain id not part of sig hash")
	}
}

func TestHeaderHashStable(t *testing.T) {
	h := &Header{Number: 5, Time: 100, GasLimit: 8_000_000, GasUsed: 21000}
	h1 := h.Hash()
	h.GasUsed = 21001
	if h.Hash() == h1 {
		t.Fatal("header hash ignores GasUsed")
	}
}

func TestTxRootOrderSensitive(t *testing.T) {
	k := secp256k1.PrivateKeyFromScalar(big.NewInt(5))
	t1 := &Transaction{Nonce: 0, Gas: 21000}
	t2 := &Transaction{Nonce: 1, Gas: 21000}
	t1.Sign(k, 1)
	t2.Sign(k, 1)
	if TxRootOf([]Hash{t1.Hash(), t2.Hash()}) == TxRootOf([]Hash{t2.Hash(), t1.Hash()}) {
		t.Fatal("tx root is order-insensitive")
	}
}

func TestEtherFormatting(t *testing.T) {
	if FormatEther(Ether(5)) != "5" {
		t.Fatalf("FormatEther(5 eth) = %s", FormatEther(Ether(5)))
	}
	half := uint256.FromBig(new(big.Int).Div(Ether(1).ToBig(), big.NewInt(2)))
	if FormatEther(half) != "0.5" {
		t.Fatalf("FormatEther(0.5 eth) = %s", FormatEther(half))
	}
	if FormatEther(uint256.Zero) != "0" {
		t.Fatal("FormatEther(0)")
	}
	if Gwei(1).ToBig().Cmp(big.NewInt(1_000_000_000)) != 0 {
		t.Fatal("Gwei")
	}
}

// bare returns a transaction holding tx's public fields and no sender
// memo: what Sender answers for it is what an un-memoised recovery
// answers.
func bare(tx *Transaction) *Transaction {
	copyInt := func(x *big.Int) *big.Int {
		if x == nil {
			return nil
		}
		return new(big.Int).Set(x)
	}
	out := &Transaction{
		Nonce: tx.Nonce, GasPrice: tx.GasPrice, Gas: tx.Gas, Value: tx.Value,
		Data: append([]byte(nil), tx.Data...),
		V:    copyInt(tx.V), R: copyInt(tx.R), S: copyInt(tx.S),
	}
	if tx.To != nil {
		to := *tx.To
		out.To = &to
	}
	return out
}

const memoChainID = 1337

// memoTx returns a signed transaction whose sender is already memoised.
func memoTx(t testing.TB) (*Transaction, Address) {
	t.Helper()
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(0xfeed))
	to := HexToAddress("0x3333333333333333333333333333333333333333")
	tx := &Transaction{Nonce: 4, GasPrice: Gwei(1), Gas: 50_000, To: &to, Value: Ether(1), Data: []byte{1, 2, 3}}
	if err := tx.Sign(key, memoChainID); err != nil {
		t.Fatal(err)
	}
	from, err := tx.Sender(memoChainID)
	if err != nil || from != PubkeyToAddress(key.Public) {
		t.Fatalf("sender = %s, %v", from, err)
	}
	return tx, from
}

// TestSenderRefusesHighSTwin turns a signed transaction into its
// malleable twin (s' = N − s, other recovery id). The curve recovers the
// same key from it — which is what the ecrecover precompile must report —
// but a transaction carrying it is refused (EIP-2), with or without a
// memo from the original in place.
func TestSenderRefusesHighSTwin(t *testing.T) {
	tx, from := memoTx(t)
	base := uint64(35 + 2*memoChainID)
	tx.S = new(big.Int).Sub(secp256k1.N, tx.S)
	tx.V = new(big.Int).SetUint64(2*base + 1 - tx.V.Uint64())

	digest := tx.SigHash(memoChainID)
	pub, err := secp256k1.Recover(digest[:], &secp256k1.Signature{R: tx.R, S: tx.S, V: byte(tx.V.Uint64() - base)})
	if err != nil || PubkeyToAddress(pub) != from {
		t.Fatalf("curve recovery of the twin = %v, %v; want the signer", pub, err)
	}
	const want = "secp256k1: signature s not normalized (malleable)"
	for _, tw := range []*Transaction{tx, bare(tx)} {
		if got, err := tw.Sender(memoChainID); err == nil || err.Error() != want {
			t.Fatalf("Sender of the high-S twin = %s, %v; want %q", got, err, want)
		}
	}
}

// twoTo64 added to a signed transaction's V keeps V's low 64 bits and
// the signing digest, and changes the encoding and the hash.
var twoTo64 = new(big.Int).Lsh(big.NewInt(1), 64)

// TestSenderRefusesWideV: a V that only matches the chain id once
// truncated to 64 bits is refused — with the original's memo in place,
// without one, and off the wire — so a signature has one encoding.
func TestSenderRefusesWideV(t *testing.T) {
	tx, _ := memoTx(t)
	orig := tx.Hash()
	tx.V.Add(tx.V, twoTo64) // in place, under the memo
	back, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() == orig {
		t.Fatal("set-up: the wide-V twin hashes like the original")
	}
	want := fmt.Sprintf("ethtypes: wrong chain id in v=%s (want chain %d)", tx.V, memoChainID)
	for _, tw := range []*Transaction{tx, bare(tx), back} {
		if got, err := tw.Sender(memoChainID); err == nil || err.Error() != want {
			t.Fatalf("Sender of the wide-V twin = %s, %v; want %q", got, err, want)
		}
	}
}

func TestSenderMemoCountsOneRecovery(t *testing.T) {
	key := secp256k1.PrivateKeyFromScalar(big.NewInt(0xfeed))
	tx := &Transaction{Nonce: 1, GasPrice: Gwei(1), Gas: 21000}
	if err := tx.Sign(key, memoChainID); err != nil {
		t.Fatal(err)
	}
	// Sign does not seed the memo: the first Sender goes to the curve.
	r0, h0 := SenderStats()
	first, err := tx.Sender(memoChainID)
	if err != nil {
		t.Fatal(err)
	}
	if r, h := SenderStats(); r != r0+1 || h != h0 {
		t.Fatalf("first Sender: %d recoveries, %d hits", r-r0, h-h0)
	}
	for i := 0; i < 3; i++ {
		if again, err := tx.Sender(memoChainID); err != nil || again != first {
			t.Fatalf("memo hit returned %s, %v", again, err)
		}
	}
	if r, h := SenderStats(); r != r0+1 || h != h0+3 {
		t.Fatalf("after three more calls: %d recoveries, %d hits", r-r0, h-h0)
	}
	// A decoded copy is a new transaction: no memo travels through the
	// wire encoding.
	back, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := back.Sender(memoChainID); err != nil || got != first {
		t.Fatalf("decoded sender = %s, %v", got, err)
	}
	if r, _ := SenderStats(); r != r0+2 {
		t.Fatalf("decoded transaction recovered %d times, want 1", r-r0-1)
	}
}

// TestSenderMemoTamperTable mutates every public field after the memo
// is in place. Whatever Sender then returns must be what a recovery
// from scratch returns, never the remembered address.
func TestSenderMemoTamperTable(t *testing.T) {
	other := HexToAddress("0x4444444444444444444444444444444444444444")
	one := big.NewInt(1)
	// v and its other recovery id sum to 2·(35 + 2·chainID) + 1.
	bothVs := big.NewInt(2*(35+2*memoChainID) + 1)
	mutations := []struct {
		name string
		mut  func(*Transaction)
	}{
		{"Nonce", func(tx *Transaction) { tx.Nonce++ }},
		{"GasPrice", func(tx *Transaction) { tx.GasPrice = Gwei(3) }},
		{"Gas", func(tx *Transaction) { tx.Gas++ }},
		{"To", func(tx *Transaction) { tx.To = &other }},
		{"To in place", func(tx *Transaction) { tx.To[0] ^= 0xff }},
		{"To nil", func(tx *Transaction) { tx.To = nil }},
		{"Value", func(tx *Transaction) { tx.Value = Ether(2) }},
		{"Data", func(tx *Transaction) { tx.Data = []byte{9} }},
		{"Data in place", func(tx *Transaction) { tx.Data[0] ^= 0xff }},
		{"R", func(tx *Transaction) { tx.R = new(big.Int).Add(tx.R, one) }},
		{"R in place", func(tx *Transaction) { tx.R.Add(tx.R, one) }},
		{"S", func(tx *Transaction) { tx.S = new(big.Int).Sub(tx.S, one) }},
		{"S in place", func(tx *Transaction) { tx.S.Sub(tx.S, one) }},
		{"V recovery id", func(tx *Transaction) { tx.V = new(big.Int).Sub(bothVs, tx.V) }},
		{"V in place", func(tx *Transaction) { tx.V.Sub(bothVs, tx.V) }},
		{"V other chain", func(tx *Transaction) { tx.V = new(big.Int).Add(tx.V, big.NewInt(2)) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			tx, from := memoTx(t)
			m.mut(tx)
			got, gotErr := tx.Sender(memoChainID)
			want, wantErr := bare(tx).Sender(memoChainID)
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("after the mutation Sender = %s, %v; from scratch %s, %v", got, gotErr, want, wantErr)
			}
			if gotErr == nil && got == from {
				t.Fatal("mutated transaction still recovers the original signer")
			}
		})
	}

	t.Run("by-value copy", func(t *testing.T) {
		tx, from := memoTx(t)
		cp := *tx // shares the memo; must not trust it once it diverges
		cp.Nonce++
		got, gotErr := cp.Sender(memoChainID)
		want, wantErr := bare(&cp).Sender(memoChainID)
		if (gotErr == nil) != (wantErr == nil) || got != want || got == from {
			t.Fatalf("copy: Sender = %s, %v; from scratch %s, %v", got, gotErr, want, wantErr)
		}
		if again, err := tx.Sender(memoChainID); err != nil || again != from {
			t.Fatalf("original after the copy diverged: %s, %v", again, err)
		}
	})

	t.Run("wrong chain id after a hit", func(t *testing.T) {
		tx, _ := memoTx(t)
		if _, err := tx.Sender(1); err == nil {
			t.Fatal("cross-chain replay accepted from the memo")
		}
	})

	t.Run("re-sign", func(t *testing.T) {
		tx, from := memoTx(t)
		key2 := secp256k1.PrivateKeyFromScalar(big.NewInt(0xbeef))
		if err := tx.Sign(key2, memoChainID); err != nil {
			t.Fatal(err)
		}
		got, err := tx.Sender(memoChainID)
		if err != nil || got != PubkeyToAddress(key2.Public) || got == from {
			t.Fatalf("sender after re-signing = %s, %v", got, err)
		}
	})
}

// TestSenderConcurrent races eight goroutines on one memo-less
// transaction; make check runs it under the race detector.
func TestSenderConcurrent(t *testing.T) {
	signed, from := memoTx(t)
	tx, err := DecodeTransaction(signed.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got, err := tx.Sender(memoChainID); err != nil || got != from {
					t.Errorf("concurrent Sender = %s, %v", got, err)
				}
			}
		}()
	}
	wg.Wait()
}

// senderFromScratch is what Sender must answer for tx, worked out with
// neither the memo nor Sender's own checks: V compared as an integer of
// any width with the two EIP-155 values, s with N/2, then the curve.
func senderFromScratch(tx *Transaction, chainID uint64) (Address, bool) {
	recid := new(big.Int).Sub(tx.V, new(big.Int).SetUint64(35+2*chainID))
	if recid.Sign() < 0 || recid.Cmp(big.NewInt(1)) > 0 {
		return Address{}, false
	}
	if tx.S.Cmp(new(big.Int).Rsh(secp256k1.N, 1)) > 0 {
		return Address{}, false
	}
	digest := tx.SigHash(chainID)
	pub, err := secp256k1.Recover(digest[:], &secp256k1.Signature{R: tx.R, S: tx.S, V: byte(recid.Uint64())})
	if err != nil {
		return Address{}, false
	}
	return PubkeyToAddress(pub), true
}

// flipByte xors one byte of x's big-endian magnitude in place; a zero x
// counts as a single zero byte.
func flipByte(x *big.Int, pos, flip byte) {
	b := x.Bytes()
	if len(b) == 0 {
		b = []byte{0}
	}
	b[int(pos)%len(b)] ^= flip
	x.SetBytes(b)
}

// TestDecodeTransactionRefusesWideIntegers: a gas price or value of
// 2²⁵⁶ plus the signed one would decode, reduced mod 2²⁵⁶, to the signed
// transaction under a hash that is not the keccak of the bytes sent.
func TestDecodeTransactionRefusesWideIntegers(t *testing.T) {
	tx, _ := memoTx(t)
	twoTo256 := new(big.Int).Lsh(big.NewInt(1), 256)
	for field, name := range map[int]string{1: "gasPrice", 4: "value"} {
		items := []*rlp.Item{rlp.Uint(tx.Nonce), rlp.BigInt(tx.GasPrice.ToBig()), rlp.Uint(tx.Gas), toItem(tx.To),
			rlp.BigInt(tx.Value.ToBig()), rlp.Bytes(tx.Data), rlp.BigInt(tx.V), rlp.BigInt(tx.R), rlp.BigInt(tx.S)}
		wide, _ := items[field].AsBigInt()
		items[field] = rlp.BigInt(wide.Add(wide, twoTo256))
		if got, err := DecodeTransaction(rlp.Encode(rlp.List(items...))); err == nil {
			t.Errorf("%s + 2²⁵⁶ decoded as %+v", name, got)
		}
	}
}

// FuzzDecodeTransaction feeds DecodeTransaction arbitrary bytes. Decoding
// must not panic, and a decoded transaction must re-encode to exactly
// its input: one transaction, one encoding, one hash. On a decoded
// transaction Sender, asked twice (the
// second answer from the memo), must agree with senderFromScratch; then,
// with one byte of V, R, S or Data flipped in place, it must follow the
// mutation rather than return the remembered sender. The chain id is the
// one V names, so a well-formed input reaches the curve.
func FuzzDecodeTransaction(f *testing.F) {
	valid, _ := memoTx(f)
	highS := bare(valid)
	highS.S.Sub(secp256k1.N, highS.S)
	highS.V.Sub(big.NewInt(2*(35+2*memoChainID)+1), highS.V)
	wideV := bare(valid)
	wideV.V.Add(wideV.V, twoTo64)
	for field, seed := range []*Transaction{valid, highS, wideV} {
		f.Add(seed.Encode(), byte(field), byte(0), byte(1)) // flip in V, R, S
	}
	f.Add(valid.Encode(), byte(3), byte(1), byte(0x80)) // flip in Data

	f.Fuzz(func(t *testing.T, raw []byte, field, pos, flip byte) {
		tx, err := DecodeTransaction(raw)
		if err != nil {
			return
		}
		if enc := tx.Encode(); !bytes.Equal(enc, raw) {
			t.Fatalf("decoded %x, which re-encodes to %x", raw, enc)
		}
		chainID := uint64(memoChainID)
		if v := tx.V.Uint64(); tx.V.IsUint64() && v >= 35 {
			chainID = (v - 35) / 2
		}
		check := func(stage string) {
			t.Helper()
			want, ok := senderFromScratch(tx, chainID)
			for call := 1; call <= 2; call++ {
				if got, err := tx.Sender(chainID); (err == nil) != ok || got != want {
					t.Fatalf("%s, call %d: Sender = %s, %v; from scratch %s (ok %v)", stage, call, got, err, want, ok)
				}
			}
		}
		check("decoded")
		if flip == 0 {
			return
		}
		switch field % 4 {
		case 0:
			flipByte(tx.V, pos, flip)
		case 1:
			flipByte(tx.R, pos, flip)
		case 2:
			flipByte(tx.S, pos, flip)
		case 3:
			if len(tx.Data) == 0 {
				return
			}
			tx.Data[int(pos)%len(tx.Data)] ^= flip
		}
		check("mutated")
	})
}

func memoBlock() *Block {
	return &Block{Header: &Header{
		ParentHash: Keccak256([]byte("parent")), Number: 7, Time: 1_700_000_007,
		GasLimit: 12_000_000, GasUsed: 21_000, Coinbase: Address{0xc0},
		StateRoot: Keccak256([]byte("state")), TxRoot: Keccak256([]byte("txs")),
		ReceiptRoot: Keccak256([]byte("receipts")),
	}}
}

// TestBlockHashMemoHashesOnce: the first Hash computes, every later one
// is answered from the memo with the same value.
func TestBlockHashMemoHashesOnce(t *testing.T) {
	b := memoBlock()
	want := b.Header.Hash()
	before := HeaderHashes()
	for i := 0; i < 5; i++ {
		if got := b.Hash(); got != want {
			t.Fatalf("call %d: Hash = %s, want %s", i, got, want)
		}
	}
	if n := HeaderHashes() - before; n != 1 {
		t.Fatalf("5 Hash calls computed %d header hashes, want 1", n)
	}
}

// TestBlockHashMemoTamperTable mutates each header field after the memo
// is set: Hash must follow the header, never return the stale value, and
// return to the original value when the field is restored.
func TestBlockHashMemoTamperTable(t *testing.T) {
	mutations := map[string]func(h *Header){
		"ParentHash":  func(h *Header) { h.ParentHash[31] ^= 1 },
		"Number":      func(h *Header) { h.Number++ },
		"Time":        func(h *Header) { h.Time++ },
		"GasLimit":    func(h *Header) { h.GasLimit++ },
		"GasUsed":     func(h *Header) { h.GasUsed++ },
		"Coinbase":    func(h *Header) { h.Coinbase[0] ^= 1 },
		"StateRoot":   func(h *Header) { h.StateRoot[0] ^= 1 },
		"TxRoot":      func(h *Header) { h.TxRoot[0] ^= 1 },
		"ReceiptRoot": func(h *Header) { h.ReceiptRoot[0] ^= 1 },
	}
	for field, mutate := range mutations {
		b := memoBlock()
		sealed := b.Hash()
		orig := *b.Header
		mutate(b.Header)
		if got := b.Hash(); got == sealed || got != b.Header.Hash() {
			t.Errorf("%s mutated: Hash = %s (sealed %s, fresh %s)", field, got, sealed, b.Header.Hash())
		}
		*b.Header = orig
		if got := b.Hash(); got != sealed {
			t.Errorf("%s restored: Hash = %s, want %s", field, got, sealed)
		}
	}
	// Swapping the header pointer is a mutation like any other.
	b := memoBlock()
	sealed := b.Hash()
	b.Header = &Header{Number: 8}
	if got := b.Hash(); got == sealed || got != b.Header.Hash() {
		t.Errorf("header replaced: Hash = %s, want %s", got, b.Header.Hash())
	}
}

// TestBlockCopyByValue: a by-value copy is vet-legal, starts with the
// original's memo and re-validates it against its own header.
func TestBlockCopyByValue(t *testing.T) {
	b := memoBlock()
	sealed := b.Hash()
	cp := *b
	before := HeaderHashes()
	if got := cp.Hash(); got != sealed {
		t.Fatalf("copy Hash = %s, want %s", got, sealed)
	}
	if n := HeaderHashes() - before; n != 0 {
		t.Fatalf("copy of a hashed block computed %d header hashes, want 0", n)
	}
	h := *b.Header
	h.Number++
	cp.Header = &h
	if got := cp.Hash(); got != h.Hash() {
		t.Fatalf("diverged copy Hash = %s, want %s", got, h.Hash())
	}
	if got := b.Hash(); got != sealed {
		t.Fatalf("original Hash = %s after copy diverged, want %s", got, sealed)
	}
}

// TestBlockHashConcurrent races eight goroutines on one memo-less block;
// make check runs it under the race detector.
func TestBlockHashConcurrent(t *testing.T) {
	b := memoBlock()
	want := b.Header.Hash()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := b.Hash(); got != want {
					t.Errorf("concurrent Hash = %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
