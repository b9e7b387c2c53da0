// Package web3 is the client library the contract manager uses to talk
// to a chain node — the Web3py role in the paper's Table I. A Backend
// abstracts the node (in-process devnet or remote JSON-RPC); Client adds
// signing, nonce management and receipt waiting; BoundContract wraps an
// (address, ABI) pair with typed deploy/transact/call/event helpers —
// exactly the binding object the paper reconstructs from IPFS-stored
// ABIs when walking a version chain.
package web3

import (
	"context"
	"errors"
	"fmt"
	"time"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// Errors surfaced by the client.
var (
	ErrReceiptTimeout = errors.New("web3: timed out waiting for receipt")
	ErrTxFailed       = errors.New("web3: transaction reverted")
)

// CallMsg is a read-only or gas-estimation message.
type CallMsg struct {
	From  ethtypes.Address
	To    *ethtypes.Address
	Data  []byte
	Value uint256.Int
}

// Backend abstracts a chain node.
type Backend interface {
	ChainID() (uint64, error)
	BlockNumber() (uint64, error)
	GetBalance(addr ethtypes.Address) (uint256.Int, error)
	GetNonce(addr ethtypes.Address) (uint64, error)
	GetCode(addr ethtypes.Address) ([]byte, error)
	StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error)
	GasPrice() (uint256.Int, error)
	SendRawTransaction(raw []byte) (ethtypes.Hash, error)
	CallContract(msg CallMsg) ([]byte, error)
	EstimateGas(msg CallMsg) (uint64, error)
	TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error)
	FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error)
}

// HeadViewer is implemented by backends that can pin an immutable head
// view, letting callers make several reads at one consistent chain
// height without any locking. In-process backends (LocalBackend)
// implement it; HTTP backends do not. Without it the upgrade guard
// fails its property checks closed and an audit runs no behaviour
// diffs; app.New refuses a backend that lacks it.
type HeadViewer interface {
	HeadView() *chain.HeadView
}

// HeadSubscriber is implemented by backends that can push head events:
// in-process backends expose the chain's subscription hub directly.
// HTTP backends do not, and nothing polls in their place: app.New,
// whose SSE tier follows the hub, refuses a backend that lacks it.
// Remote consumers subscribe with eth_subscribe over WebSocket.
type HeadSubscriber interface {
	// SubscribeHeads returns a hub subscription delivering one event per
	// sealed head, with a ring of buf events (<= 0 picks the default).
	SubscribeHeads(buf int) *chain.Subscription
}

// RevertError carries a decoded revert reason through the client API.
type RevertError struct {
	Reason string
}

// Error implements error.
func (e *RevertError) Error() string {
	if e.Reason == "" {
		return "execution reverted"
	}
	return "execution reverted: " + e.Reason
}

// LocalBackend serves a Blockchain in the same process.
type LocalBackend struct {
	BC *chain.Blockchain
}

// NewLocalBackend wraps bc.
func NewLocalBackend(bc *chain.Blockchain) *LocalBackend { return &LocalBackend{BC: bc} }

// HeadView implements HeadViewer: it pins the current immutable head
// view for lock-free multi-read consistency.
func (l *LocalBackend) HeadView() *chain.HeadView { return l.BC.View() }

// SubscribeHeads implements HeadSubscriber via the chain's hub.
func (l *LocalBackend) SubscribeHeads(buf int) *chain.Subscription {
	return l.BC.SubscribeHeads(buf)
}

// ChainID implements Backend.
func (l *LocalBackend) ChainID() (uint64, error) { return l.BC.ChainID(), nil }

// BlockNumber implements Backend.
func (l *LocalBackend) BlockNumber() (uint64, error) { return l.BC.BlockNumber(), nil }

// GetBalance implements Backend.
func (l *LocalBackend) GetBalance(addr ethtypes.Address) (uint256.Int, error) {
	return l.BC.GetBalance(addr), nil
}

// GetNonce implements Backend.
func (l *LocalBackend) GetNonce(addr ethtypes.Address) (uint64, error) {
	return l.BC.GetNonce(addr), nil
}

// GetCode implements Backend.
func (l *LocalBackend) GetCode(addr ethtypes.Address) ([]byte, error) {
	return l.BC.GetCode(addr), nil
}

// StorageAt implements Backend: one storage word at the head.
func (l *LocalBackend) StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error) {
	return l.BC.GetStorageAt(addr, slot).Bytes32(), nil
}

// GasPrice implements Backend.
func (l *LocalBackend) GasPrice() (uint256.Int, error) { return ethtypes.Gwei(1), nil }

// SendRawTransaction implements Backend.
func (l *LocalBackend) SendRawTransaction(raw []byte) (ethtypes.Hash, error) {
	tx, err := ethtypes.DecodeTransaction(raw)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	return l.BC.SendTransaction(tx)
}

// CallContract implements Backend.
func (l *LocalBackend) CallContract(msg CallMsg) ([]byte, error) {
	res := l.BC.Call(msg.From, msg.To, msg.Data, msg.Value, 0)
	if res.Err != nil {
		return res.Return, &RevertError{Reason: res.Reason}
	}
	return res.Return, nil
}

// EstimateGas implements Backend. Reverts surface as *RevertError, the
// same shape the HTTP backend produces.
func (l *LocalBackend) EstimateGas(msg CallMsg) (uint64, error) {
	est, err := l.BC.EstimateGas(msg.From, msg.To, msg.Data, msg.Value)
	if err != nil {
		var re *chain.RevertError
		if errors.As(err, &re) {
			return 0, &RevertError{Reason: re.Reason}
		}
		return 0, err
	}
	return est, nil
}

// TransactionReceipt implements Backend.
func (l *LocalBackend) TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error) {
	r, ok := l.BC.GetReceipt(h)
	return r, ok, nil
}

// FilterLogs implements Backend.
func (l *LocalBackend) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	return l.BC.FilterLogs(q), nil
}

// Client couples a backend with a keystore for signing.
type Client struct {
	backend Backend
	ks      *wallet.Keystore
	chainID uint64
}

// NewClient builds a client; the chain id is fetched once.
func NewClient(b Backend, ks *wallet.Keystore) (*Client, error) {
	id, err := b.ChainID()
	if err != nil {
		return nil, fmt.Errorf("web3: cannot fetch chain id: %w", err)
	}
	return &Client{backend: b, ks: ks, chainID: id}, nil
}

// Backend exposes the underlying backend.
func (c *Client) Backend() Backend { return c.backend }

// Keystore exposes the signing keystore.
func (c *Client) Keystore() *wallet.Keystore { return c.ks }

// ChainID returns the cached chain id.
func (c *Client) ChainID() uint64 { return c.chainID }

// TxOpts tune transaction submission. Zero values mean "estimate/default".
type TxOpts struct {
	From     ethtypes.Address
	Value    uint256.Int
	GasLimit uint64
	GasPrice uint256.Int
}

// sendTx builds, signs, submits and waits for a transaction.
func (c *Client) sendTx(opts TxOpts, to *ethtypes.Address, data []byte) (*ethtypes.Receipt, error) {
	return c.sendTxCtx(context.Background(), opts, to, data)
}

// sendTxCtx is sendTx with span propagation into the backend.
func (c *Client) sendTxCtx(ctx context.Context, opts TxOpts, to *ethtypes.Address, data []byte) (*ethtypes.Receipt, error) {
	nonce, err := c.backend.GetNonce(opts.From)
	if err != nil {
		return nil, err
	}
	gasPrice := opts.GasPrice
	if gasPrice.IsZero() {
		if gasPrice, err = c.backend.GasPrice(); err != nil {
			return nil, err
		}
	}
	gas := opts.GasLimit
	if gas == 0 {
		gas, err = c.backend.EstimateGas(CallMsg{From: opts.From, To: to, Data: data, Value: opts.Value})
		if err != nil {
			return nil, err
		}
	}
	tx := &ethtypes.Transaction{
		Nonce: nonce, GasPrice: gasPrice, Gas: gas,
		To: to, Value: opts.Value, Data: data,
	}
	if err := c.ks.SignTx(opts.From, tx, c.chainID); err != nil {
		return nil, err
	}
	hash, err := c.sendRaw(ctx, tx.Encode())
	if err != nil {
		return nil, err
	}
	return c.WaitReceipt(hash)
}

// WaitReceipt polls for the receipt of hash (instant on the devnet).
func (c *Client) WaitReceipt(hash ethtypes.Hash) (*ethtypes.Receipt, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, ok, err := c.backend.TransactionReceipt(hash)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
		if time.Now().After(deadline) {
			return nil, ErrReceiptTimeout
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Transfer sends plain ether.
func (c *Client) Transfer(opts TxOpts, to ethtypes.Address) (*ethtypes.Receipt, error) {
	return c.sendTx(opts, &to, nil)
}

// BoundContract is a deployed contract with its interface.
type BoundContract struct {
	Address ethtypes.Address
	ABI     *abi.ABI
	client  *Client
}

// Deploy submits creation code (bytecode ++ encoded ctor args) and binds
// the resulting contract.
func (c *Client) Deploy(opts TxOpts, contractABI *abi.ABI, bytecode []byte, args ...interface{}) (*BoundContract, *ethtypes.Receipt, error) {
	ctorData, err := contractABI.PackConstructor(args...)
	if err != nil {
		return nil, nil, err
	}
	data := append(append([]byte(nil), bytecode...), ctorData...)
	rcpt, err := c.sendTx(opts, nil, data)
	if err != nil {
		return nil, nil, err
	}
	if !rcpt.Succeeded() {
		return nil, rcpt, fmt.Errorf("%w: %s", ErrTxFailed, rcpt.RevertReason)
	}
	if rcpt.ContractAddress == nil {
		return nil, rcpt, errors.New("web3: creation receipt missing contract address")
	}
	return &BoundContract{Address: *rcpt.ContractAddress, ABI: contractABI, client: c}, rcpt, nil
}

// Bind attaches to an already deployed contract.
func (c *Client) Bind(addr ethtypes.Address, contractABI *abi.ABI) *BoundContract {
	return &BoundContract{Address: addr, ABI: contractABI, client: c}
}

// Transact sends a state-changing method call and waits for the receipt.
// A mined-but-reverted transaction returns the receipt together with
// ErrTxFailed (wrapping the decoded reason).
func (b *BoundContract) Transact(opts TxOpts, method string, args ...interface{}) (*ethtypes.Receipt, error) {
	data, err := b.ABI.Pack(method, args...)
	if err != nil {
		return nil, err
	}
	rcpt, err := b.client.sendTx(opts, &b.Address, data)
	if err != nil {
		return nil, err
	}
	if !rcpt.Succeeded() {
		return rcpt, fmt.Errorf("%w: %s", ErrTxFailed, rcpt.RevertReason)
	}
	return rcpt, nil
}

// Call executes a read-only method and decodes its outputs.
func (b *BoundContract) Call(from ethtypes.Address, method string, args ...interface{}) ([]interface{}, error) {
	data, err := b.ABI.Pack(method, args...)
	if err != nil {
		return nil, err
	}
	ret, err := b.client.backend.CallContract(CallMsg{From: from, To: &b.Address, Data: data})
	if err != nil {
		return nil, err
	}
	return b.ABI.Unpack(method, ret)
}

// CallAddress is Call for single-address-returning methods.
func (b *BoundContract) CallAddress(from ethtypes.Address, method string, args ...interface{}) (ethtypes.Address, error) {
	out, err := b.Call(from, method, args...)
	if err != nil {
		return ethtypes.Address{}, err
	}
	if len(out) != 1 {
		return ethtypes.Address{}, fmt.Errorf("web3: %s returned %d values", method, len(out))
	}
	addr, ok := out[0].(ethtypes.Address)
	if !ok {
		return ethtypes.Address{}, fmt.Errorf("web3: %s returned %T, not address", method, out[0])
	}
	return addr, nil
}

// CallUint is Call for single-uint-returning methods.
func (b *BoundContract) CallUint(from ethtypes.Address, method string, args ...interface{}) (uint256.Int, error) {
	out, err := b.Call(from, method, args...)
	if err != nil {
		return uint256.Zero, err
	}
	if len(out) != 1 {
		return uint256.Zero, fmt.Errorf("web3: %s returned %d values", method, len(out))
	}
	v, ok := out[0].(uint256.Int)
	if !ok {
		return uint256.Zero, fmt.Errorf("web3: %s returned %T, not uint", method, out[0])
	}
	return v, nil
}

// CallString is Call for single-string-returning methods.
func (b *BoundContract) CallString(from ethtypes.Address, method string, args ...interface{}) (string, error) {
	out, err := b.Call(from, method, args...)
	if err != nil {
		return "", err
	}
	if len(out) != 1 {
		return "", fmt.Errorf("web3: %s returned %d values", method, len(out))
	}
	s, ok := out[0].(string)
	if !ok {
		return "", fmt.Errorf("web3: %s returned %T, not string", method, out[0])
	}
	return s, nil
}

// FilterEvents returns the decoded occurrences of one event since
// fromBlock.
func (b *BoundContract) FilterEvents(event string, fromBlock uint64) ([]*abi.DecodedEvent, error) {
	ev, ok := b.ABI.Events[event]
	if !ok {
		return nil, fmt.Errorf("web3: no event %q", event)
	}
	logs, err := b.client.backend.FilterLogs(chain.FilterQuery{
		FromBlock: fromBlock,
		Addresses: []ethtypes.Address{b.Address},
		Topics:    [][]ethtypes.Hash{{ev.Topic()}},
	})
	if err != nil {
		return nil, err
	}
	out := make([]*abi.DecodedEvent, 0, len(logs))
	for _, l := range logs {
		dec, err := b.ABI.DecodeLog(l)
		if err != nil {
			return nil, err
		}
		out = append(out, dec)
	}
	return out, nil
}
