package chain

import (
	"context"
	"slices"
	"sync"
	"time"

	"legalchain/internal/abi"
	"legalchain/internal/blockdb"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
	"legalchain/internal/xtrace"
)

// Lock-free read path. On every seal (and on recovery and time
// adjustment) the writer publishes an immutable HeadView through an
// atomic pointer: the sealed head block, a frozen copy-on-write state
// snapshot, the sealed blocks with their receipts, and persistent
// (structurally shared) hash indexes over block numbers and transaction
// positions. Readers load the pointer once and resolve entirely against
// the view — no mutex, no map shared with the writer — so a landlord
// deploying a contract (SendTransaction holds bc.mu across EVM
// execution, state-root hashing and fsync) never stalls a tenant's
// dashboard query.
//
// Safety rests on three invariants:
//
//  1. Everything reachable from a view is immutable once published.
//     The state snapshot is Freeze()-d (mutators panic), blocks,
//     receipts and logs are never touched after their seal, and the
//     index generations are never mutated after linking.
//  2. The blocks, rcpts and logs slices are shared with the writer,
//     which only ever appends. A view captures the slice value
//     (pointer, length); appends either write past every published
//     length or reallocate, and cold-data eviction reallocates the
//     suffix it keeps, so no published element is ever overwritten.
//  3. bc.view.Store has release semantics and View()'s Load acquire
//     semantics, ordering the seal's writes before any reader's reads.

// pindexMaxDepth bounds the generation chain of a persistent index.
// Lookups walk at most this many small maps; when a new generation
// would exceed it, the chain is flattened into one map (amortised
// O(size/depth) per seal).
const pindexMaxDepth = 32

// pindex is a persistent hash index: an immutable generation chain
// where each seal adds one small generation on top of the previous
// ones. Readers walk newest-to-oldest; the writer replaces its tip
// pointer with a child generation, never mutating published ones.
type pindex[V any] struct {
	parent *pindex[V]
	m      map[ethtypes.Hash]V
	depth  int
	size   int
}

// get returns the newest value for k.
func (p *pindex[V]) get(k ethtypes.Hash) (V, bool) {
	for n := p; n != nil; n = n.parent {
		if v, ok := n.m[k]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// count returns the number of entries: exact while every key is set
// once (transaction and block hashes), an upper bound for the log
// index, whose keys recur; it only sizes a flattened map.
func (p *pindex[V]) count() int {
	if p == nil {
		return 0
	}
	return p.size
}

// with returns a new generation holding p's entries plus m. m must not
// be mutated afterwards — it becomes part of the immutable chain.
func (p *pindex[V]) with(m map[ethtypes.Hash]V) *pindex[V] {
	if len(m) == 0 {
		return p
	}
	if p != nil && p.depth+1 < pindexMaxDepth {
		return &pindex[V]{parent: p, m: m, depth: p.depth + 1, size: p.size + len(m)}
	}
	// Flatten: copy oldest-first so newer generations win.
	var gens []*pindex[V]
	for n := p; n != nil; n = n.parent {
		gens = append(gens, n)
	}
	flat := make(map[ethtypes.Hash]V, p.count()+len(m))
	for i := len(gens) - 1; i >= 0; i-- {
		for k, v := range gens[i].m {
			flat[k] = v
		}
	}
	for k, v := range m {
		flat[k] = v
	}
	return &pindex[V]{m: flat, size: len(flat)}
}

// with1 is with for a single entry.
func (p *pindex[V]) with1(k ethtypes.Hash, v V) *pindex[V] {
	return p.with(map[ethtypes.Hash]V{k: v})
}

// sealedChain is the sealed chain as one value: the resident blocks
// with their receipts and the indexes over every sealed block. The
// writer owns one (Blockchain embeds it) and each published HeadView
// embeds a copy, sharing its slices under invariant 2. The indexes map
// to block numbers and positions, not bodies, so evicted blocks don't
// stay pinned.
type sealedChain struct {
	blocks []*ethtypes.Block     // blocks[i] is block blocksBase+i
	rcpts  [][]*ethtypes.Receipt // rcpts[i] are blocks[i]'s receipts, in order
	byHash *pindex[uint64]       // block hash → number (resident or evicted)
	txPos  *pindex[txPos]        // transaction hash → position (resident or evicted)
	logs   []logPos              // the log index: every sealed log's position, in order
	logTip *pindex[int]          // addrKey(address) → its newest entry in logs

	// Cold-data read-through: blocks (and their receipts) older than
	// blocksBase were evicted from memory and are served from the block
	// log (nil for a memory-only chain). db reads are lock-free
	// (positional pread on sealed segments).
	db         *blockdb.Log
	blocksBase uint64
}

// sealedFrom returns the sealed chain holding only the genesis block.
func sealedFrom(genesis *ethtypes.Block, db *blockdb.Log) sealedChain {
	return sealedChain{
		blocks: []*ethtypes.Block{genesis},
		rcpts:  [][]*ethtypes.Receipt{nil},
		byHash: (*pindex[uint64])(nil).with1(genesis.Hash(), 0),
		db:     db,
	}
}

// HeadView is an immutable, point-in-time view of the chain at a sealed
// head. All methods are lock-free and safe for unlimited concurrency;
// every read within one view observes the same (block, state-root)
// pair. Obtain one from Blockchain.View.
type HeadView struct {
	sealedChain // frozen: the writer appends past its lengths

	chainID  uint64
	gasLimit uint64
	coinbase ethtypes.Address

	head *ethtypes.Block // the last of blocks
	st   *state.StateDB  // frozen (state.Freeze) snapshot at head

	timeOffset uint64 // pending AdjustTime offset for speculative headers
	published  time.Time

	// callCtx is the EVM context of every speculative message on the
	// view (the block after the head, BLOCKHASH bound to the view), built
	// once at publication; runMessage sets only its Origin.
	callCtx evm.Context
}

// Head returns the view's sealed head block.
func (v *HeadView) Head() *ethtypes.Block {
	mViewReads.Inc()
	return v.head
}

// BlockNumber returns the view's height.
func (v *HeadView) BlockNumber() uint64 { return v.head.Number() }

// StateRoot returns the world-state root at the view's head. It always
// equals Head().Header.StateRoot — the view is coherent by construction.
func (v *HeadView) StateRoot() ethtypes.Hash {
	mViewReads.Inc()
	return v.st.Root()
}

// PublishedAt returns when the view was published.
func (v *HeadView) PublishedAt() time.Time { return v.published }

// BlockByNumber returns a block by height. Blocks evicted from memory
// read back through the block log.
func (v *HeadView) BlockByNumber(n uint64) (*ethtypes.Block, bool) {
	mViewReads.Inc()
	b, _, ok := v.blockAt(n)
	return b, ok
}

// blockAt is the one read of a sealed block: block n and its receipts
// in transaction order, from the resident slices, read back through the
// block log once evicted. The slices are c's (or the decoded record's)
// and must not be modified.
func (c *sealedChain) blockAt(n uint64) (*ethtypes.Block, []*ethtypes.Receipt, bool) {
	if n >= c.blocksBase {
		if i := n - c.blocksBase; i < uint64(len(c.blocks)) {
			return c.blocks[i], c.rcpts[i], true
		}
		return nil, nil, false
	}
	if c.db == nil {
		return nil, nil, false
	}
	rec, err := c.db.ReadRecord(n)
	if err != nil {
		return nil, nil, false
	}
	mBlockReadThrough.Inc()
	return rec.Block(), rec.Receipts, true
}

// BlockByHash returns a block by hash.
func (v *HeadView) BlockByHash(h ethtypes.Hash) (*ethtypes.Block, bool) {
	mViewReads.Inc()
	n, ok := v.byHash.get(h)
	if !ok {
		return nil, false
	}
	return v.BlockByNumber(n)
}

// GetBalance returns the balance of addr at the view's head.
func (v *HeadView) GetBalance(addr ethtypes.Address) uint256.Int {
	mViewReads.Inc()
	return v.st.GetBalance(addr)
}

// GetNonce returns the next expected nonce for addr at the view's head.
func (v *HeadView) GetNonce(addr ethtypes.Address) uint64 {
	mViewReads.Inc()
	return v.st.GetNonce(addr)
}

// GetCode returns the contract code at addr.
func (v *HeadView) GetCode(addr ethtypes.Address) []byte {
	mViewReads.Inc()
	return v.st.GetCode(addr)
}

// GetStorageAt reads one storage slot at the view's head.
func (v *HeadView) GetStorageAt(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	mViewReads.Inc()
	return v.st.GetState(addr, slot)
}

// txPos is where a sealed transaction sits: the number of its block and
// its index there, which is also its receipt's index.
type txPos struct {
	block uint64
	index int
}

// GetReceipt returns the receipt of a transaction mined at or before
// the view's head.
func (v *HeadView) GetReceipt(txHash ethtypes.Hash) (*ethtypes.Receipt, bool) {
	mViewReads.Inc()
	p, ok := v.txPos.get(txHash)
	if !ok {
		return nil, false
	}
	_, rcpts, ok := v.blockAt(p.block)
	if !ok {
		return nil, false
	}
	return rcpts[p.index], true
}

// ReceiptsOf returns the receipts of block n in transaction order; the
// slice is the view's and must not be modified. Consumers folding whole
// blocks (the watchtower) use this instead of per-hash GetReceipt
// lookups.
func (v *HeadView) ReceiptsOf(n uint64) []*ethtypes.Receipt {
	mViewReads.Inc()
	_, rcpts, _ := v.blockAt(n)
	return rcpts
}

// GetTransaction returns a mined transaction by hash.
func (v *HeadView) GetTransaction(txHash ethtypes.Hash) (*ethtypes.Transaction, bool) {
	mViewReads.Inc()
	p, ok := v.txPos.get(txHash)
	if !ok {
		return nil, false
	}
	b, _, ok := v.blockAt(p.block)
	if !ok {
		return nil, false
	}
	return b.Transactions[p.index], true
}

// TotalSupply sums all balances at the view's head.
func (v *HeadView) TotalSupply() uint256.Int {
	mViewReads.Inc()
	return v.st.TotalBalance()
}

// logPos is one entry of the log index: where a sealed log sits (its
// block, its receipt's index there, its index in the receipt) and the
// entry of the previous log of the same address, -1 for its first.
type logPos struct {
	block     uint64
	rcpt, log uint32
	prev      int
}

// addrKey is an address as a key of the log index: left-padded, the
// way a topic holds one.
func addrKey(a ethtypes.Address) (k ethtypes.Hash) {
	copy(k[12:], a[:])
	return k
}

// FilterLogs returns the mined logs matching q, in (block, receipt, log)
// order. The result is owned by the view: logs sealed after the view
// was published are never observed, even mid-append. A query that names
// addresses costs its matches, not the chain: it walks each distinct
// address's entries in the log index back from the newest to FromBlock,
// and reads only the blocks that hold them. One that names none walks
// blocks max(from, 1)..min(to, head) — the genesis holds no logs.
func (v *HeadView) FilterLogs(q FilterQuery) []*ethtypes.Log {
	mViewReads.Inc()
	from, to := max(q.FromBlock, 1), v.head.Number()
	if q.ToBlock != nil {
		to = min(to, *q.ToBlock)
	}
	if len(q.Addresses) > 0 {
		return v.indexedLogs(q, from, to)
	}
	var out []*ethtypes.Log
	for n := from; n <= to; n++ {
		_, rcpts, _ := v.blockAt(n)
		for _, rcpt := range rcpts {
			for _, l := range rcpt.Logs {
				if topicsMatch(q.Topics, l.Topics) {
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// indexedLogs is FilterLogs over the log index. Entries are appended in
// (block, receipt, log) order, so sorting the entries of every address
// merges their logs in the order a flat scan finds them.
func (v *HeadView) indexedLogs(q FilterQuery, from, to uint64) []*ethtypes.Log {
	var hits []int
	for i, a := range q.Addresses {
		if slices.Contains(q.Addresses[:i], a) {
			continue
		}
		e, ok := v.logTip.get(addrKey(a))
		for ok && e >= 0 && v.logs[e].block >= from {
			if v.logs[e].block <= to {
				hits = append(hits, e)
			}
			e = v.logs[e].prev
		}
	}
	slices.Sort(hits)
	var (
		out   []*ethtypes.Log
		at    uint64 // the genesis holds no logs: 0 is no block read yet
		rcpts []*ethtypes.Receipt
	)
	for _, e := range hits {
		p := v.logs[e]
		if p.block != at {
			at = p.block
			_, rcpts, _ = v.blockAt(at)
		}
		if int(p.rcpt) >= len(rcpts) {
			continue // an evicted block the block log could not read back
		}
		if l := rcpts[p.rcpt].Logs[p.log]; topicsMatch(q.Topics, l.Topics) {
			out = append(out, l)
		}
	}
	return out
}

// nextHeader prepares the speculative header for a call executed on top
// of the view's head (eth_call block-context semantics).
func (v *HeadView) nextHeader() *ethtypes.Header {
	return &ethtypes.Header{
		ParentHash: v.head.Hash(),
		Number:     v.head.Number() + 1,
		Time:       v.head.Header.Time + 1 + v.timeOffset,
		GasLimit:   v.gasLimit,
		Coinbase:   v.coinbase,
	}
}

// blockHash resolves BLOCKHASH against c's blocks: a view's own, or a
// copy of the writer's (execEnvLocked).
func (c *sealedChain) blockHash(n uint64) ethtypes.Hash {
	if b, _, ok := c.blockAt(n); ok {
		return b.Hash()
	}
	return ethtypes.Hash{}
}

// Call executes a read-only message against a mutable copy of the
// view's frozen state (eth_call semantics). Entirely lock-free.
func (v *HeadView) Call(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	return v.CallCtx(context.Background(), from, to, data, value, gas)
}

// CallCtx is Call with span propagation: when ctx carries a sampled
// trace, the call and its EVM execution show up as child spans.
//
// The call's scratch state is an overlay that materialises only the
// accounts the call touches, with the caller credited callCredit so
// that value-bearing calls don't fail spuriously (ganache behaviour).
// The overlay goes back to its pool once runMessage has returned: the
// result holds nothing of it.
func (v *HeadView) CallCtx(ctx context.Context, from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	ctx, sp := xtrace.Start(ctx, "chain", "call")
	defer sp.End()
	callStart := time.Now()
	defer mCallSeconds.ObserveSince(callStart) // counts the call as a view read too
	st := v.st.CreditedOverlay(from, callCredit)
	_, evmSp := xtrace.Start(ctx, "evm", "call")
	_, res := v.runMessage(st, nil, from, to, data, value, gas)
	st.Release()
	evmSp.SetError(res.Err)
	evmSp.SetAttrUint("gasUsed", res.GasUsed)
	evmSp.End()
	sp.SetError(res.Err)
	return res
}

// callCredit is what an eth_call credits its caller: 10⁹ ether,
// computed once rather than through math/big on every call.
var callCredit = ethtypes.Ether(1_000_000_000)

// machines pools the EVMs of runMessage. A reused EVM keeps each call
// depth's stack array and memory buffer (evm.EVM.Reset).
var machines = sync.Pool{New: func() any { return new(evm.EVM) }}

// runMessage is the one speculative execution: it runs a message on st,
// a mutable overlay of the view's state, in the block that would follow
// the head — a create of data when to is nil, a call otherwise — with
// tracer (possibly nil) attached. A gas of 0, or one above the block gas
// limit, means the block gas limit: no caller-chosen gas lets a loop run
// longer than a block could. It returns the address a create ran at
// (zero for a call) and the result with its step count and revert
// reason.
func (v *HeadView) runMessage(st *state.StateDB, tracer evm.Tracer, from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) (ethtypes.Address, *CallResult) {
	if gas == 0 || gas > v.gasLimit {
		gas = v.gasLimit
	}
	bctx := v.callCtx
	bctx.Origin = from
	machine := machines.Get().(*evm.EVM)
	machine.Reset(bctx, st)
	machine.Tracer = tracer
	var (
		addr ethtypes.Address
		ret  []byte
		left uint64
		err  error
	)
	if to == nil {
		ret, addr, left, err = machine.Create(from, data, gas, value)
	} else {
		ret, left, err = machine.Call(from, *to, data, gas, value)
	}
	res := &CallResult{Return: ret, GasUsed: gas - left, Steps: machine.Steps(), Err: err}
	// Unbind before pooling: an idle EVM must not keep a state or a view
	// alive.
	machine.Reset(evm.Context{}, nil)
	machines.Put(machine)
	if err != nil {
		res.Reason, _ = abi.UnpackRevertReason(ret)
	}
	return addr, res
}

// EstimateGas executes the message against the view and returns the gas
// it consumed plus the intrinsic cost, padded the way development nodes
// do. The estimate and the execution resolve against the same view.
func (v *HeadView) EstimateGas(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int) (uint64, error) {
	res := v.Call(from, to, data, value, v.gasLimit)
	if res.Err != nil {
		if re := res.Revert(); re != nil {
			return 0, re
		}
		return 0, res.Err
	}
	est := evm.IntrinsicGas(data, to == nil) + res.GasUsed
	est += est / 5 // 20% headroom, matching common devnet practice
	if est > v.gasLimit {
		est = v.gasLimit
	}
	return est, nil
}

// TraceCall executes a read-only message with a structured tracer
// attached — the debug_traceCall facility, lock-free.
func (v *HeadView) TraceCall(from ethtypes.Address, to *ethtypes.Address, data []byte, gas uint64) (*CallResult, *evm.StructLogger) {
	mViewReads.Inc()
	tracer := evm.NewStructLogger()
	_, res := v.runMessage(v.st.CreditedOverlay(from, callCredit), tracer, from, to, data, uint256.Zero, gas)
	return res, tracer
}

// View returns the current head view. The returned view is immutable —
// it keeps answering for its head even while later blocks seal — so
// callers needing several reads at one consistent height should load it
// once and reuse it.
func (bc *Blockchain) View() *HeadView {
	return bc.view.Load()
}

// publishHeadLocked freezes the current state and atomically publishes
// a new immutable head view. Called with bc.mu held by every sealing
// path, at construction/recovery, and on time adjustment. Republishing
// the same head (AdjustTime) reuses the previous generation. A new
// generation costs what the blocks since the previous one wrote, not
// the world (state.StateDB.Freeze).
func (bc *Blockchain) publishHeadLocked() {
	head := bc.blocks[len(bc.blocks)-1]
	var frozen *state.StateDB
	if prev := bc.view.Load(); prev != nil && prev.head == head {
		frozen = prev.st
	} else {
		frozen = bc.st.Freeze()
	}
	now := time.Now()
	v := &HeadView{
		sealedChain: bc.sealedChain,
		chainID:     bc.chainID,
		gasLimit:    bc.gasLimit,
		coinbase:    bc.coinbase,
		head:        head,
		st:          frozen,
		timeOffset:  bc.timeOffset,
		published:   now,
	}
	v.callCtx = blockContext(v.chainID, v.nextHeader(), ethtypes.Address{}, uint256.Zero, v.blockHash)
	bc.view.Store(v)
	// Hand the view to the subscription hub, which appends it to every
	// heads subscriber's ring (hub.go).
	bc.hub.enqueue(Event{View: v})
	mViewsPublished.Inc()
	lastViewPublishNanos.Store(now.UnixNano())
}
