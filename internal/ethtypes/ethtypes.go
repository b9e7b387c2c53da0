// Package ethtypes defines the fundamental Ethereum data types shared by
// every layer of the stack: addresses, hashes, transactions, receipts,
// logs and blocks, together with their canonical RLP encodings and
// signing rules (EIP-155 replay protection).
package ethtypes

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"sync"
	"sync/atomic"
	"unsafe"

	"legalchain/internal/hexutil"
	"legalchain/internal/keccak"
	"legalchain/internal/metrics"
	"legalchain/internal/rlp"
	"legalchain/internal/secp256k1"
	"legalchain/internal/uint256"
)

// HashLength and AddressLength are the byte sizes of the core identifiers.
const (
	HashLength    = 32
	AddressLength = 20
)

// Hash is a 32-byte Keccak-256 digest.
type Hash [HashLength]byte

// BytesToHash left-pads b into a Hash.
func BytesToHash(b []byte) Hash {
	var h Hash
	copy(h[:], hexutil.LeftPad(b, HashLength))
	return h
}

// HexToHash parses a 0x-prefixed hash, left-padding short input. It
// panics on malformed input: it is for literals and for rows the node
// wrote itself. Outside input goes through ParseHash.
func HexToHash(s string) Hash { return BytesToHash(hexutil.MustDecode(s)) }

// ParseHash decodes a hash from outside input: 0x-prefixed hex of
// exactly HashLength bytes, or an error.
func ParseHash(s string) (Hash, error) {
	var h Hash
	err := decodeExact(h[:], s, "hash")
	return h, err
}

// decodeExact decodes 0x-prefixed hex of exactly len(dst) bytes into
// dst, leaving dst untouched on error.
func decodeExact(dst []byte, s, what string) error {
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != len(dst) {
		return fmt.Errorf("ethtypes: bad %s %q", what, s)
	}
	copy(dst, raw)
	return nil
}

// Hex returns the 0x-prefixed hex form.
func (h Hash) Hex() string { return hexutil.Encode(h[:]) }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// MarshalJSON/UnmarshalJSON use the 0x-hex form.
func (h Hash) MarshalJSON() ([]byte, error) { return json.Marshal(h.Hex()) }

func (h *Hash) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	return decodeExact(h[:], s, "hash")
}

// Address is a 20-byte account identifier.
type Address [AddressLength]byte

// BytesToAddress left-pads b into an Address.
func BytesToAddress(b []byte) Address {
	var a Address
	copy(a[:], hexutil.LeftPad(b, AddressLength))
	return a
}

// HexToAddress parses a 0x-prefixed address. Like HexToHash it panics
// on malformed input; outside input goes through ParseAddress.
func HexToAddress(s string) Address { return BytesToAddress(hexutil.MustDecode(s)) }

// ParseAddress decodes an address from outside input: 0x-prefixed hex
// of exactly AddressLength bytes, or an error.
func ParseAddress(s string) (Address, error) {
	var a Address
	err := decodeExact(a[:], s, "address")
	return a, err
}

// Hex returns the 0x-prefixed lowercase hex form.
func (a Address) Hex() string { return hexutil.Encode(a[:]) }

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == Address{} }

// MarshalJSON/UnmarshalJSON use the 0x-hex form.
func (a Address) MarshalJSON() ([]byte, error) { return json.Marshal(a.Hex()) }

func (a *Address) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	return decodeExact(a[:], s, "address")
}

// keccakPool recycles Keccak-256 sponge states: hashing dominates the
// trie/state commit pipeline, and a fresh sponge per call costs an
// allocation plus buffer growth on every node hashed.
var keccakPool = sync.Pool{New: func() any { return keccak.New256() }}

// Keccak256 hashes data with Keccak-256.
func Keccak256(data ...[]byte) Hash {
	if len(data) == 1 {
		// One-shot fast path: absorbs straight from the input, no
		// sponge buffering at all.
		return Hash(keccak.Sum256(data[0]))
	}
	h := keccakPool.Get().(hash.Hash)
	h.Reset()
	for _, d := range data {
		h.Write(d)
	}
	var out Hash
	h.Sum(out[:0])
	keccakPool.Put(h)
	return out
}

// PubkeyToAddress derives the Ethereum address of an secp256k1 public
// key: the low 20 bytes of keccak256(X||Y).
func PubkeyToAddress(p secp256k1.Point) Address {
	raw := secp256k1.SerializePublic(p)
	h := Keccak256(raw[1:]) // drop the 0x04 prefix
	return BytesToAddress(h[12:])
}

// CreateAddress computes the address of a contract deployed by sender
// with the given account nonce: keccak256(rlp([sender, nonce]))[12:].
func CreateAddress(sender Address, nonce uint64) Address {
	enc := rlp.Encode(rlp.List(rlp.Bytes(sender[:]), rlp.Uint(nonce)))
	h := Keccak256(enc)
	return BytesToAddress(h[12:])
}

// Transaction is a legacy (type-0) Ethereum transaction with EIP-155
// replay protection.
type Transaction struct {
	Nonce    uint64
	GasPrice uint256.Int
	Gas      uint64
	To       *Address // nil means contract creation
	Value    uint256.Int
	Data     []byte

	// Signature values. V encodes the recovery id and chain id
	// (v = recid + 35 + 2*chainID).
	V, R, S *big.Int

	// sender is the *senderMemo published by the last successful
	// recovery in Sender, nil until then; read and written only through
	// sync/atomic. It is a bare pointer rather than an atomic.Pointer so
	// that copying a Transaction by value stays legal (go vet copylocks):
	// a copy starts with the original's memo, which Sender re-validates
	// against the copy's own fields before trusting it.
	sender unsafe.Pointer
}

// senderMemo is one remembered sender recovery: the address together
// with everything it was recovered from. Immutable once published.
type senderMemo struct {
	chainID uint64
	digest  Hash
	v, r, s big.Int // copies: the caller may mutate tx.V/R/S in place
	addr    Address
}

// Sender-recovery instruments. They count here, where the recovery
// happens, under the chain tier's name: every caller — pool admission,
// mining, replay, tracing, RPC read-back — goes through Sender.
var (
	mSenderRecoveries = metrics.Default.Counter("legalchain_chain_sender_recoveries_total",
		"Transaction.Sender calls that went to the curve (secp256k1.Recover), successful or not.")
	mSenderMemoHits = metrics.Default.Counter("legalchain_chain_sender_memo_hits_total",
		"Transaction.Sender calls answered from the digest-checked memo on the transaction.")
)

// SenderStats returns how many Sender calls paid a curve recovery and
// how many were answered from the memo since process start.
func SenderStats() (recoveries, memoHits uint64) {
	return mSenderRecoveries.Value(), mSenderMemoHits.Value()
}

// SigHash returns the EIP-155 signing digest for the given chain id.
func (tx *Transaction) SigHash(chainID uint64) Hash {
	return Keccak256(rlp.Encode(rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.BigInt(tx.GasPrice.ToBig()),
		rlp.Uint(tx.Gas),
		toItem(tx.To),
		rlp.BigInt(tx.Value.ToBig()),
		rlp.Bytes(tx.Data),
		rlp.Uint(chainID),
		rlp.Uint(0),
		rlp.Uint(0),
	)))
}

// txHashes counts Transaction.Hash calls, each an RLP encoding plus a
// Keccak-256.
var txHashes atomic.Uint64

// TxHashes returns how many transaction hashes have been computed since
// process start.
func TxHashes() uint64 { return txHashes.Load() }

// Hash returns the transaction hash (over the signed encoding). It is
// computed afresh on every call; the chain computes it once at
// admission and passes it on.
func (tx *Transaction) Hash() Hash {
	txHashes.Add(1)
	return Keccak256(tx.Encode())
}

// Encode returns the canonical RLP encoding of the signed transaction.
func (tx *Transaction) Encode() []byte {
	return rlp.Encode(rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.BigInt(tx.GasPrice.ToBig()),
		rlp.Uint(tx.Gas),
		toItem(tx.To),
		rlp.BigInt(tx.Value.ToBig()),
		rlp.Bytes(tx.Data),
		rlp.BigInt(tx.V),
		rlp.BigInt(tx.R),
		rlp.BigInt(tx.S),
	))
}

func toItem(to *Address) *rlp.Item {
	if to == nil {
		return rlp.Bytes(nil)
	}
	return rlp.Bytes(to[:])
}

// DecodeTransaction parses a signed RLP transaction.
func DecodeTransaction(data []byte) (*Transaction, error) {
	it, err := rlp.Decode(data)
	if err != nil {
		return nil, err
	}
	if it.Kind() != rlp.KindList || it.Len() != 9 {
		return nil, errors.New("ethtypes: transaction must be a 9-item list")
	}
	tx := &Transaction{}
	if tx.Nonce, err = it.At(0).AsUint64(); err != nil {
		return nil, fmt.Errorf("nonce: %w", err)
	}
	if tx.GasPrice, err = asUint256(it.At(1)); err != nil {
		return nil, fmt.Errorf("gasPrice: %w", err)
	}
	if tx.Gas, err = it.At(2).AsUint64(); err != nil {
		return nil, fmt.Errorf("gas: %w", err)
	}
	// Str panics on a list item; nonce, gas and the big integers refuse
	// one through their As* decoders, 'to' and data here.
	if it.At(3).Kind() != rlp.KindString || it.At(5).Kind() != rlp.KindString {
		return nil, errors.New("ethtypes: 'to' and data must be byte strings")
	}
	toRaw := it.At(3).Str()
	switch len(toRaw) {
	case 0:
	case AddressLength:
		a := BytesToAddress(toRaw)
		tx.To = &a
	default:
		return nil, errors.New("ethtypes: bad 'to' length")
	}
	if tx.Value, err = asUint256(it.At(4)); err != nil {
		return nil, fmt.Errorf("value: %w", err)
	}
	tx.Data = append([]byte(nil), it.At(5).Str()...)
	if tx.V, err = it.At(6).AsBigInt(); err != nil {
		return nil, fmt.Errorf("v: %w", err)
	}
	if tx.R, err = it.At(7).AsBigInt(); err != nil {
		return nil, fmt.Errorf("r: %w", err)
	}
	if tx.S, err = it.At(8).AsBigInt(); err != nil {
		return nil, fmt.Errorf("s: %w", err)
	}
	return tx, nil
}

// asUint256 decodes an RLP integer of at most 256 bits. A wider one is
// refused, not reduced mod 2²⁵⁶: the reduced transaction would re-encode
// to other bytes, so its hash would not be the keccak of the bytes sent.
func asUint256(it *rlp.Item) (uint256.Int, error) {
	b, err := it.AsBigInt()
	if err != nil {
		return uint256.Zero, err
	}
	if b.BitLen() > 256 {
		return uint256.Zero, errors.New("ethtypes: integer wider than 256 bits")
	}
	return uint256.FromBig(b), nil
}

// Sign attaches an EIP-155 signature from key to the transaction.
func (tx *Transaction) Sign(key *secp256k1.PrivateKey, chainID uint64) error {
	digest := tx.SigHash(chainID)
	sig, err := key.Sign(digest[:])
	if err != nil {
		return err
	}
	tx.R = sig.R
	tx.S = sig.S
	tx.V = new(big.Int).SetUint64(uint64(sig.V) + 35 + 2*chainID)
	return nil
}

// Sender recovers the transaction's sender address, verifying the
// EIP-155 chain id in the process.
//
// A successful recovery is remembered on the transaction, tagged with
// the chain id, the signing digest and the (V, R, S) it was recovered
// from. A later call recomputes the digest (microseconds) and returns
// the remembered address only if every tag still matches, so mutating
// any field after the fact costs a fresh recovery instead of returning
// a stale sender. Only this function writes the memo — Sign does not
// seed it, so an address is remembered only once the curve has vouched
// for it. Safe for concurrent use on one transaction.
func (tx *Transaction) Sender(chainID uint64) (Address, error) {
	if tx.V == nil || tx.R == nil || tx.S == nil {
		return Address{}, errors.New("ethtypes: transaction is unsigned")
	}
	// A V wider than 64 bits is refused, not truncated: V + 2⁶⁴ would
	// otherwise pass as V, a second encoding (and hash) of one signature.
	v := tx.V.Uint64()
	base := 35 + 2*chainID
	if !tx.V.IsUint64() || (v != base && v != base+1) {
		return Address{}, fmt.Errorf("ethtypes: wrong chain id in v=%d (want chain %d)", tx.V, chainID)
	}
	digest := tx.SigHash(chainID)
	if m := (*senderMemo)(atomic.LoadPointer(&tx.sender)); m != nil &&
		m.chainID == chainID && m.digest == digest &&
		tx.V.Cmp(&m.v) == 0 && tx.R.Cmp(&m.r) == 0 && tx.S.Cmp(&m.s) == 0 {
		mSenderMemoHits.Inc()
		return m.addr, nil
	}
	mSenderRecoveries.Inc()
	sig := &secp256k1.Signature{R: tx.R, S: tx.S, V: byte(v - base)}
	// EIP-2: a transaction's s is in the low half (Recover takes either).
	if err := sig.CheckLowS(); err != nil {
		return Address{}, err
	}
	pub, err := secp256k1.Recover(digest[:], sig)
	if err != nil {
		return Address{}, err
	}
	m := &senderMemo{chainID: chainID, digest: digest, addr: PubkeyToAddress(pub)}
	m.v.Set(tx.V)
	m.r.Set(tx.R)
	m.s.Set(tx.S)
	atomic.StorePointer(&tx.sender, unsafe.Pointer(m))
	return m.addr, nil
}

// IsCreate reports whether the transaction deploys a contract.
func (tx *Transaction) IsCreate() bool { return tx.To == nil }

// Log is an EVM event record.
type Log struct {
	Address Address `json:"address"`
	Topics  []Hash  `json:"topics"`
	Data    []byte  `json:"data"`

	// Execution context, filled by the chain when the log is mined.
	BlockNumber uint64 `json:"blockNumber"`
	BlockHash   Hash   `json:"blockHash"`
	TxHash      Hash   `json:"transactionHash"`
	TxIndex     uint   `json:"transactionIndex"`
	Index       uint   `json:"logIndex"`
}

// Receipt status codes.
const (
	ReceiptStatusFailed     = uint64(0)
	ReceiptStatusSuccessful = uint64(1)
)

// Receipt records the outcome of a mined transaction.
type Receipt struct {
	TxHash            Hash
	TxIndex           uint
	BlockNumber       uint64
	BlockHash         Hash
	From              Address
	To                *Address
	ContractAddress   *Address // set for creations
	GasUsed           uint64
	CumulativeGasUsed uint64
	Status            uint64
	Logs              []*Log
	RevertReason      string // devnet nicety: decoded Error(string), if any
}

// Succeeded reports whether the transaction executed without reverting.
func (r *Receipt) Succeeded() bool { return r.Status == ReceiptStatusSuccessful }

// EncodeRLP returns the consensus encoding of the receipt:
// [status, cumulativeGasUsed, [[address, [topics...], data]...]].
// (No bloom filter: the chain answers a log query that names addresses
// from its log index, and scans the blocks for one that names none.)
func (r *Receipt) EncodeRLP() []byte {
	logItems := make([]*rlp.Item, len(r.Logs))
	for i, l := range r.Logs {
		topics := make([]*rlp.Item, len(l.Topics))
		for j := range l.Topics {
			topics[j] = rlp.Bytes(l.Topics[j][:])
		}
		logItems[i] = rlp.List(
			rlp.Bytes(l.Address[:]),
			rlp.List(topics...),
			rlp.Bytes(l.Data),
		)
	}
	return rlp.Encode(rlp.List(
		rlp.Uint(r.Status),
		rlp.Uint(r.CumulativeGasUsed),
		rlp.List(logItems...),
	))
}

// Header is a block header. Consensus fields not needed by an
// instant-seal devnet (difficulty, mixhash, nonce) are omitted.
type Header struct {
	ParentHash  Hash
	Number      uint64
	Time        uint64
	GasLimit    uint64
	GasUsed     uint64
	Coinbase    Address
	StateRoot   Hash
	TxRoot      Hash
	ReceiptRoot Hash
}

// mHeaderHashes counts the header hashes actually computed (RLP encoding
// plus Keccak-256); Block.Hash hits served from the memo do not count.
var mHeaderHashes = metrics.Default.Counter("legalchain_chain_header_hashes_total",
	"Block header hashes computed (RLP + Keccak-256); Block.Hash calls answered from the block's memo are not counted.")

// HeaderHashes returns how many header hashes have been computed since
// process start.
func HeaderHashes() uint64 { return mHeaderHashes.Value() }

// Hash returns the keccak of the RLP-encoded header.
func (h *Header) Hash() Hash {
	mHeaderHashes.Inc()
	return Keccak256(rlp.Encode(rlp.List(
		rlp.Bytes(h.ParentHash[:]),
		rlp.Uint(h.Number),
		rlp.Uint(h.Time),
		rlp.Uint(h.GasLimit),
		rlp.Uint(h.GasUsed),
		rlp.Bytes(h.Coinbase[:]),
		rlp.Bytes(h.StateRoot[:]),
		rlp.Bytes(h.TxRoot[:]),
		rlp.Bytes(h.ReceiptRoot[:]),
	)))
}

// Block is a sealed block with its transactions.
type Block struct {
	Header       *Header
	Transactions []*Transaction

	// hash is the *blockHashMemo published by the first Hash call, nil
	// until then; read and written only through sync/atomic. A bare
	// pointer for the same reason as Transaction.sender: a by-value copy
	// stays legal and starts with the original's memo, which Hash
	// re-validates against the copy's own header.
	hash unsafe.Pointer
}

// blockHashMemo is one remembered header hash together with the header
// it was computed from. Immutable once published.
type blockHashMemo struct {
	header Header
	hash   Hash
}

// Hash returns the block hash (the header hash).
//
// The hash is computed once — for a sealed block by the seal path, for a
// replayed or decoded block by whoever installs or first reads it — and
// remembered on the block beside a copy of the header it was computed
// from. Every later call compares the block's current header with that
// copy (nine comparable fields) and returns the remembered hash only if
// they are equal, so mutating a header field after the fact costs a
// fresh hash instead of returning a stale one. Safe for concurrent use
// on one block.
func (b *Block) Hash() Hash {
	if m := (*blockHashMemo)(atomic.LoadPointer(&b.hash)); m != nil && m.header == *b.Header {
		return m.hash
	}
	m := &blockHashMemo{header: *b.Header}
	m.hash = m.header.Hash()
	atomic.StorePointer(&b.hash, unsafe.Pointer(m))
	return m.hash
}

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// TxRootOf computes the transaction root from the block's transaction
// hashes, in order, as the keccak over their concatenation. (A devnet
// does not need the full derivation through a trie; the commitment is
// still order-sensitive and collision-resistant.)
func TxRootOf(hashes []Hash) Hash {
	buf := make([]byte, 0, len(hashes)*HashLength)
	for _, h := range hashes {
		buf = append(buf, h[:]...)
	}
	return Keccak256(buf)
}

// Wei conversion helpers. One ether is 10^18 wei.
var (
	weiPerEther = new(big.Int).Exp(big.NewInt(10), big.NewInt(18), nil)
	weiPerGwei  = big.NewInt(1_000_000_000)
)

// Ether returns n ether in wei.
func Ether(n int64) uint256.Int {
	return uint256.FromBig(new(big.Int).Mul(big.NewInt(n), weiPerEther))
}

// Gwei returns n gwei in wei.
func Gwei(n int64) uint256.Int {
	return uint256.FromBig(new(big.Int).Mul(big.NewInt(n), weiPerGwei))
}

// FormatEther renders a wei amount as a decimal ether string with up to
// 6 fractional digits, for dashboards and logs.
func FormatEther(wei uint256.Int) string {
	b := wei.ToBig()
	whole := new(big.Int).Div(b, weiPerEther)
	rem := new(big.Int).Mod(b, weiPerEther)
	// Keep six decimals.
	micro := new(big.Int).Div(rem, big.NewInt(1_000_000_000_000))
	if micro.Sign() == 0 {
		return whole.String()
	}
	s := fmt.Sprintf("%s.%06d", whole, micro)
	// Trim trailing zeros.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}
