// Package chain implements the devnet blockchain: an instant-seal chain
// in the role Ganache plays in the paper's stack (Table I) — a local
// Ethereum node that accepts signed transactions, executes them on the
// EVM, mines a block per transaction, and serves receipts, logs and
// state queries.
package chain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/abi"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/statestore"
	"legalchain/internal/uint256"
	"legalchain/internal/xtrace"
)

// Errors returned by transaction admission and execution.
var (
	ErrNonceTooLow       = errors.New("chain: nonce too low")
	ErrNonceTooHigh      = errors.New("chain: nonce too high")
	ErrInsufficientFunds = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas      = errors.New("chain: intrinsic gas exceeds gas limit")
	ErrGasLimitExceeded  = errors.New("chain: transaction exceeds block gas limit")
	ErrKnownTransaction  = errors.New("chain: already known transaction")
)

// Genesis configures the initial chain state.
type Genesis struct {
	ChainID   uint64
	GasLimit  uint64
	Timestamp uint64
	Coinbase  ethtypes.Address
	// Alloc pre-funds accounts.
	Alloc map[ethtypes.Address]uint256.Int
}

// DefaultGenesis returns a devnet genesis with sensible defaults.
func DefaultGenesis() *Genesis {
	return &Genesis{
		ChainID:   1337,
		GasLimit:  12_000_000,
		Timestamp: 1_700_000_000,
		Coinbase:  ethtypes.HexToAddress("0x0000000000000000000000000000000000c0ffee"),
		Alloc:     map[ethtypes.Address]uint256.Int{},
	}
}

// Blockchain is the devnet chain. All methods are safe for concurrent
// use. Reads resolve lock-free against the published head view (see
// view.go); bc.mu is a writer-only lock serialising the sealing paths
// (SendTransaction, MineBlock), time adjustment and persistence.
type Blockchain struct {
	mu sync.Mutex // writer-only; reads never take it

	chainID  uint64
	gasLimit uint64
	coinbase ethtypes.Address

	// Writer-owned canonical chain and live state; published views
	// share the chain's slices (sealedChain, view.go). Its db is the
	// block log of durable persistence (nil for a memory-only chain;
	// see persist.go).
	sealedChain
	st      *state.StateDB
	pending []txMeta // batch-mining queue (SubmitTransaction)
	// pendingSet mirrors pending's hashes for O(1) duplicate checks.
	pendingSet map[ethtypes.Hash]struct{}

	execWorkers int // sender-recovery pool width (WithExecWorkers)

	timeOffset uint64 // AdjustTime accumulates here

	// view is the immutable read path: republished by every seal,
	// recovery and time adjustment.
	view atomic.Pointer[HeadView]

	// hub is the push tier (hub.go): each published view and admitted
	// transaction is enqueued O(1) and fanned out to subscribers off the
	// seal path.
	hub *hub

	// Durable persistence (zero for a memory-only chain); see
	// persist.go.
	snapInterval uint64
	persistErr   error
	recovery     *RecoveryReport

	// Disk-backed state and cold-data eviction (nil / zero unless
	// PersistConfig.StateStore): every block commits its state batch to
	// stateStore under a monotonic generation, the live state keeps at
	// most maxResident clean account objects between blocks, and block
	// bodies older than retainBlocks evict to the block log (blocksBase
	// is the number of the first resident block).
	stateStore   *statestore.Store
	stateGen     atomic.Uint64
	maxResident  int
	retainBlocks uint64

	// Historical tracing (trace.go): the retained genesis rebuilds
	// pre-block state from scratch, dataDir locates persisted snapshots
	// that bound the replay. Both are immutable after construction.
	genesis *Genesis
	dataDir string
}

// New creates a memory-only chain from the genesis. Use Open with
// WithPersistence for a chain that survives restarts. WithExecWorkers
// applies to both; on a memory-only chain only historical tracing uses
// its pool, since MineBlock reads each sender from admission.
func New(g *Genesis, opts ...Option) *Blockchain {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	return newMemory(g, &cfg)
}

// genesisState builds the pre-funded world state and the genesis block.
func genesisState(g *Genesis) (*state.StateDB, *ethtypes.Block) {
	st := state.New()
	for addr, bal := range g.Alloc {
		st.AddBalance(addr, bal)
	}
	st.Finalise()
	genesisHeader := &ethtypes.Header{
		Number:    0,
		Time:      g.Timestamp,
		GasLimit:  g.GasLimit,
		Coinbase:  g.Coinbase,
		StateRoot: st.Root(),
	}
	return st, &ethtypes.Block{Header: genesisHeader}
}

func newMemory(g *Genesis, cfg *openConfig) *Blockchain {
	st, genesisBlock := genesisState(g)
	bc := &Blockchain{
		sealedChain: sealedFrom(genesisBlock, nil),
		chainID:     g.ChainID,
		gasLimit:    g.GasLimit,
		coinbase:    g.Coinbase,
		st:          st,
		genesis:     copyGenesis(g),
		execWorkers: cfg.execWorkers,
		hub:         newHub(),
	}
	bc.publishHeadLocked()
	return bc
}

// copyGenesis snapshots g so later caller mutations of the Alloc map
// cannot skew historical replays.
func copyGenesis(g *Genesis) *Genesis {
	c := *g
	c.Alloc = make(map[ethtypes.Address]uint256.Int, len(g.Alloc))
	for a, b := range g.Alloc {
		c.Alloc[a] = b
	}
	return &c
}

// ChainID returns the chain identifier used for EIP-155 signing.
func (bc *Blockchain) ChainID() uint64 { return bc.chainID }

// GasLimit returns the block gas limit.
func (bc *Blockchain) GasLimit() uint64 { return bc.gasLimit }

// Head returns the latest sealed block (lock-free, from the head view).
func (bc *Blockchain) Head() *ethtypes.Block { return bc.View().Head() }

// BlockNumber returns the current height.
func (bc *Blockchain) BlockNumber() uint64 { return bc.View().BlockNumber() }

// BlockByNumber returns a block by height.
func (bc *Blockchain) BlockByNumber(n uint64) (*ethtypes.Block, bool) {
	return bc.View().BlockByNumber(n)
}

// BlockByHash returns a block by hash.
func (bc *Blockchain) BlockByHash(h ethtypes.Hash) (*ethtypes.Block, bool) {
	return bc.View().BlockByHash(h)
}

// GetBalance returns the current balance of addr.
func (bc *Blockchain) GetBalance(addr ethtypes.Address) uint256.Int {
	return bc.View().GetBalance(addr)
}

// GetNonce returns the next expected nonce for addr.
func (bc *Blockchain) GetNonce(addr ethtypes.Address) uint64 {
	return bc.View().GetNonce(addr)
}

// GetCode returns the contract code at addr.
func (bc *Blockchain) GetCode(addr ethtypes.Address) []byte {
	return bc.View().GetCode(addr)
}

// GetStorageAt reads one storage slot.
func (bc *Blockchain) GetStorageAt(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	return bc.View().GetStorageAt(addr, slot)
}

// GetReceipt returns the receipt of a mined transaction.
func (bc *Blockchain) GetReceipt(txHash ethtypes.Hash) (*ethtypes.Receipt, bool) {
	return bc.View().GetReceipt(txHash)
}

// GetTransaction returns a mined transaction by hash.
func (bc *Blockchain) GetTransaction(txHash ethtypes.Hash) (*ethtypes.Transaction, bool) {
	return bc.View().GetTransaction(txHash)
}

// StateRoot returns the current world-state root.
func (bc *Blockchain) StateRoot() ethtypes.Hash { return bc.View().StateRoot() }

// AdjustTime shifts the next block's timestamp forward by seconds
// (evm_increaseTime equivalent), letting tests exercise time-dependent
// contract clauses.
func (bc *Blockchain) AdjustTime(seconds uint64) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	bc.timeOffset += seconds
	// Republish so lock-free speculative calls see the shifted clock.
	bc.publishHeadLocked()
}

// nextHeaderLocked prepares the header for the block being mined.
func (bc *Blockchain) nextHeaderLocked() *ethtypes.Header {
	parent := bc.blocks[len(bc.blocks)-1]
	return &ethtypes.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number() + 1,
		Time:       parent.Header.Time + 1 + bc.timeOffset,
		GasLimit:   bc.gasLimit,
		Coinbase:   bc.coinbase,
	}
}

// execEnv is everything execTransaction needs to run one transaction
// besides the transaction: the state it mutates, the chain parameters
// and the BLOCKHASH source. The live sealing paths and recovery build
// one over bc.st under bc.mu; tracing (trace.go) builds one over a
// scratch state rebuilt from a snapshot.
type execEnv struct {
	chainID      uint64
	st           *state.StateDB
	getBlockHash func(uint64) ethtypes.Hash
}

// execEnvLocked builds the live execution environment for the sealing
// paths and recovery. BLOCKHASH resolves through the views' own
// resolver over a copy of the writer-owned chain as it is now (bc.mu is
// held; the published view would serve a stale height during recovery
// replay).
func (bc *Blockchain) execEnvLocked() *execEnv {
	c := bc.sealedChain
	return &execEnv{chainID: bc.chainID, st: bc.st, getBlockHash: c.blockHash}
}

// SendTransaction validates, executes and instantly mines tx into a new
// block, returning its hash. The transaction must be EIP-155 signed for
// this chain.
func (bc *Blockchain) SendTransaction(tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	return bc.SendTransactionCtx(context.Background(), tx)
}

// admitStateless is the part of admission that needs nothing the writer
// owns, so SendTransactionCtx and SubmitTransaction run it before taking
// bc.mu: the transaction hash (the one hash of the transaction, which
// execution, the receipt, the block's transaction root and the position
// index all take from here), the gas-limit check, a known-transaction
// check against the published head view (a replayed hash is refused
// without paying a recovery) and sender recovery — milliseconds of curve
// arithmetic that concurrent clients now spend on their own cores instead
// of queueing for the writer. The block loop takes the hash and the
// sender from here; the sender also stays memoised on tx
// (ethtypes.Transaction.Sender), which tracing and RPC read-back hit.
// On ErrKnownTransaction the hash is returned alongside the error.
func (bc *Blockchain) admitStateless(tx *ethtypes.Transaction) (ethtypes.Hash, ethtypes.Address, error) {
	hash := tx.Hash()
	if tx.Gas > bc.gasLimit {
		return ethtypes.Hash{}, ethtypes.Address{}, ErrGasLimitExceeded
	}
	if _, known := bc.View().txPos.get(hash); known {
		return hash, ethtypes.Address{}, ErrKnownTransaction
	}
	sender, err := tx.Sender(bc.chainID)
	if err != nil {
		return ethtypes.Hash{}, ethtypes.Address{}, fmt.Errorf("chain: invalid signature: %w", err)
	}
	return hash, sender, nil
}

// knownLocked is the duplicate check of the stateful stage: the head
// view admitStateless consulted may be blocks behind by the time bc.mu
// is held, and only the writer sees the pool.
func (bc *Blockchain) knownLocked(hash ethtypes.Hash) bool {
	if _, sealed := bc.txPos.get(hash); sealed {
		return true
	}
	_, queued := bc.pendingSet[hash]
	return queued
}

// SendTransactionCtx is SendTransaction with span propagation: when ctx
// carries a sampled trace, the stateless admission stage (admit), the
// wait for the writer lock (lockWait) and the seal (execute, state
// root, journal append) show up as child spans.
func (bc *Blockchain) SendTransactionCtx(ctx context.Context, tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	ctx, sp := xtrace.Start(ctx, "chain", "sendTransaction")
	defer sp.End()
	sealStart := time.Now()

	_, admitSp := xtrace.Start(ctx, "chain", "admit")
	hash, sender, err := bc.admitStateless(tx)
	admitSp.SetError(err)
	admitSp.End()
	if err != nil {
		return hash, err
	}

	_, waitSp := xtrace.Start(ctx, "chain", "lockWait")
	bc.mu.Lock()
	waitSp.End()

	if bc.knownLocked(hash) {
		bc.mu.Unlock()
		return hash, ErrKnownTransaction
	}

	header := bc.nextHeaderLocked()
	_, receipts, failed, gasUsed := runBlock(ctx, bc.execEnvLocked(), header, []txMeta{{tx: tx, hash: hash, sender: sender}}, func(int, txMeta) evm.Tracer {
		// The nonce rule admitted the transaction: let
		// newPendingTransactions watchers know before it seals (one ring
		// append per watcher, never blocks).
		bc.hub.enqueue(Event{TxHash: hash})
		return nil
	})
	if err := failed[hash]; err != nil {
		sp.SetError(err)
		bc.mu.Unlock()
		return ethtypes.Hash{}, err
	}

	header.GasUsed = gasUsed
	bc.sealLocked(ctx, header, []*ethtypes.Transaction{tx}, receipts, sealStart)
	bc.mu.Unlock()
	sp.SetAttrUint("block", header.Number)
	if sp != nil {
		sp.SetAttr("tx", hash.Hex())
	}
	return hash, nil
}

// runBlock is the one block loop — instant seal, MineBlock, recovery
// and tracing: it runs metas in order as the transactions of the block
// with header h on env.st. A transaction whose nonce is not its
// sender's next is dropped; one that passes goes to before (if non-nil)
// for its tracer, executes, and is dropped if execution refuses it.
// Positions are numbered here and nowhere else: each included receipt's
// TxIndex and CumulativeGasUsed, each log's TxIndex and block-wide
// Index. It returns the included transactions, their receipts, the
// dropped ones' errors by hash (nil when none was) and the gas used.
func runBlock(ctx context.Context, env *execEnv, h *ethtypes.Header, metas []txMeta, before func(int, txMeta) evm.Tracer) (included []*ethtypes.Transaction, receipts []*ethtypes.Receipt, failed map[ethtypes.Hash]error, gasUsed uint64) {
	var logIndex uint
	for i, m := range metas {
		var rcpt *ethtypes.Receipt
		err := nonceRule(env.st.GetNonce(m.sender), m.tx.Nonce)
		if err == nil {
			var tracer evm.Tracer
			if before != nil {
				tracer = before(i, m)
			}
			rcpt, err = execTransaction(ctx, env, h, m, tracer)
		}
		if err != nil {
			if failed == nil {
				failed = map[ethtypes.Hash]error{}
			}
			failed[m.hash] = err
			continue
		}
		rcpt.TxIndex = uint(len(included))
		gasUsed += rcpt.GasUsed
		rcpt.CumulativeGasUsed = gasUsed
		for _, l := range rcpt.Logs {
			l.TxIndex = rcpt.TxIndex
			l.Index = logIndex
			logIndex++
		}
		included = append(included, m.tx)
		receipts = append(receipts, rcpt)
	}
	return included, receipts, failed, gasUsed
}

// nonceRule admits a transaction with nonce have when its sender's next
// nonce is want.
func nonceRule(want, have uint64) error {
	if have == want {
		return nil
	}
	err := ErrNonceTooLow
	if have > want {
		err = ErrNonceTooHigh
	}
	return fmt.Errorf("%w: have %d, want %d", err, have, want)
}

// blockContext is the EVM context of a message from origin executed in
// the block with header h; getBlockHash resolves BLOCKHASH.
func blockContext(chainID uint64, h *ethtypes.Header, origin ethtypes.Address, gasPrice uint256.Int, getBlockHash func(uint64) ethtypes.Hash) evm.Context {
	return evm.Context{
		ChainID:      chainID,
		BlockNumber:  h.Number,
		Time:         h.Time,
		Coinbase:     h.Coinbase,
		GasLimit:     h.GasLimit,
		GasPrice:     gasPrice,
		Origin:       origin,
		GetBlockHash: getBlockHash,
	}
}

// execTransaction executes m.tx against env.st, with tracer (possibly
// nil) attached, following the yellow-paper gas flow (buy gas, execute,
// refund, pay coinbase). runBlock is its one caller, so a replayed
// transaction is byte-identical to its original run. The receipt and
// the logs carry m.hash; runBlock numbers their positions.
func execTransaction(ctx context.Context, env *execEnv, header *ethtypes.Header, m txMeta, tracer evm.Tracer) (*ethtypes.Receipt, error) {
	tx, sender := m.tx, m.sender
	execStart := time.Now()
	defer mExecSeconds.ObserveSince(execStart)
	intrinsic := evm.IntrinsicGas(tx.Data, tx.IsCreate())
	if tx.Gas < intrinsic {
		return nil, fmt.Errorf("%w: need %d, limit %d", ErrIntrinsicGas, intrinsic, tx.Gas)
	}
	gasCost := tx.GasPrice.Mul(uint256.NewUint64(tx.Gas))
	total := gasCost.Add(tx.Value)
	if env.st.GetBalance(sender).Lt(total) {
		return nil, ErrInsufficientFunds
	}
	// Buy gas.
	env.st.SubBalance(sender, gasCost)

	machine := evm.New(blockContext(env.chainID, header, sender, tx.GasPrice, env.getBlockHash), env.st)
	machine.Tracer = tracer
	execGas := tx.Gas - intrinsic

	var (
		ret          []byte
		leftGas      uint64
		vmErr        error
		contractAddr *ethtypes.Address
	)
	kind := "call"
	if tx.IsCreate() {
		kind = "create"
	}
	_, evmSp := xtrace.Start(ctx, "evm", kind)
	if tx.IsCreate() {
		var addr ethtypes.Address
		ret, addr, leftGas, vmErr = machine.Create(sender, tx.Data, execGas, tx.Value)
		if vmErr == nil {
			contractAddr = &addr
		}
	} else {
		env.st.SetNonce(sender, tx.Nonce+1)
		ret, leftGas, vmErr = machine.Call(sender, *tx.To, tx.Data, execGas, tx.Value)
	}
	evmSp.SetError(vmErr)

	gasUsed := tx.Gas - leftGas
	// Refund counter capped at half the gas used.
	refund := env.st.GetRefund()
	if refund > gasUsed/2 {
		refund = gasUsed / 2
	}
	gasUsed -= refund
	evmSp.SetAttrUint("gasUsed", gasUsed)
	evmSp.End()
	// Return unused gas, pay the coinbase.
	env.st.AddBalance(sender, tx.GasPrice.Mul(uint256.NewUint64(tx.Gas-gasUsed)))
	env.st.AddBalance(header.Coinbase, tx.GasPrice.Mul(uint256.NewUint64(gasUsed)))

	status := ethtypes.ReceiptStatusSuccessful
	reason := ""
	if vmErr != nil {
		status = ethtypes.ReceiptStatusFailed
		if r, ok := abi.UnpackRevertReason(ret); ok {
			reason = r
		} else if errors.Is(vmErr, evm.ErrExecutionReverted) && len(ret) == 0 {
			reason = "reverted"
		} else {
			reason = vmErr.Error()
		}
	}
	logs := env.st.TakeLogs()
	if vmErr != nil {
		logs = nil
	}
	for _, l := range logs {
		l.BlockNumber = header.Number
		l.TxHash = m.hash
	}
	env.st.Finalise()

	return &ethtypes.Receipt{
		TxHash:          m.hash,
		BlockNumber:     header.Number,
		From:            sender,
		To:              tx.To,
		ContractAddress: contractAddr,
		GasUsed:         gasUsed,
		Status:          status,
		Logs:            logs,
		RevertReason:    reason,
	}, nil
}

// RevertError is the typed error for a reverted call or gas estimate.
// Ret carries the raw return bytes (the ABI-encoded Error(string)
// payload when a reason was given), which the RPC layer exposes in the
// JSON-RPC error's data field per the geth convention.
type RevertError struct {
	Reason string
	Ret    []byte
}

// Error keeps the canonical "execution reverted[: reason]" shape that
// clients match on.
func (e *RevertError) Error() string {
	if e.Reason == "" {
		return "execution reverted"
	}
	return "execution reverted: " + e.Reason
}

// CallResult is the outcome of a read-only call.
type CallResult struct {
	Return  []byte
	GasUsed uint64
	Steps   uint64 // interpreter steps over every frame (evm.EVM.Steps)
	Err     error
	Reason  string // decoded revert reason, if any
}

// Revert returns a typed *RevertError when the call ended in a REVERT,
// nil for success or any other failure (out of gas, stack error, ...).
func (res *CallResult) Revert() *RevertError {
	if res.Err == nil || !errors.Is(res.Err, evm.ErrExecutionReverted) {
		return nil
	}
	return &RevertError{Reason: res.Reason, Ret: res.Return}
}

// Call executes a read-only message against the published head view
// (eth_call semantics). Lock-free; see HeadView.Call.
func (bc *Blockchain) Call(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	return bc.View().Call(from, to, data, value, gas)
}

// CallCtx is Call with span propagation; see HeadView.CallCtx.
func (bc *Blockchain) CallCtx(ctx context.Context, from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	return bc.View().CallCtx(ctx, from, to, data, value, gas)
}

// EstimateGas executes the message against the published head view and
// returns the gas it consumed plus the intrinsic cost, padded slightly
// the way development nodes do.
func (bc *Blockchain) EstimateGas(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int) (uint64, error) {
	return bc.View().EstimateGas(from, to, data, value)
}

// FilterQuery selects logs (eth_getLogs semantics; nil fields match
// anything).
type FilterQuery struct {
	FromBlock uint64
	ToBlock   *uint64 // nil = latest
	Addresses []ethtypes.Address
	Topics    [][]ethtypes.Hash // position-indexed alternatives
}

// FilterLogs returns all mined logs matching q, in order. The result
// is owned by an immutable head view — a concurrent seal can never be
// observed mid-append.
func (bc *Blockchain) FilterLogs(q FilterQuery) []*ethtypes.Log {
	return bc.View().FilterLogs(q)
}

func topicsMatch(query [][]ethtypes.Hash, topics []ethtypes.Hash) bool {
	for i, alts := range query {
		if len(alts) == 0 {
			continue
		}
		if i >= len(topics) {
			return false
		}
		found := false
		for _, alt := range alts {
			if topics[i] == alt {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TotalSupply sums all balances — the ether-conservation observable used
// by tests (coinbase included).
func (bc *Blockchain) TotalSupply() uint256.Int { return bc.View().TotalSupply() }
