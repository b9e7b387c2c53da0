package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/obs"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// Client is a JSON-RPC client implementing web3.Backend over HTTP, so
// the contract manager can talk to a remote devnet exactly as web3.py
// talks to Ganache in the paper.
type Client struct {
	url  string
	hc   *http.Client
	next uint64
	rid  string
}

// Dial creates a client for a JSON-RPC endpoint URL.
func Dial(url string) *Client {
	return &Client{url: url, hc: &http.Client{Timeout: 30 * time.Second}}
}

// SetRequestID sets the X-Request-Id header sent with every subsequent
// call, so a client-side operation joins the server's request log,
// error envelopes and trace under one ID.
func (c *Client) SetRequestID(id string) { c.rid = id }

// SetHTTPClient replaces the transport. Load generators route calls
// through an in-process handler to simulate more users than the OS
// grants file descriptors; tests inject failing transports.
func (c *Client) SetHTTPClient(hc *http.Client) { c.hc = hc }

// Call performs one raw JSON-RPC invocation — the escape hatch for
// methods outside the web3.Backend surface (debug_traceTransaction and
// friends). Pass a *json.RawMessage as out to keep the result verbatim.
func (c *Client) Call(out interface{}, method string, params ...interface{}) error {
	return c.call(out, method, params...)
}

// call performs one JSON-RPC round trip, decoding the result into out.
func (c *Client) call(out interface{}, method string, params ...interface{}) error {
	id := atomic.AddUint64(&c.next, 1)
	reqBody, err := json.Marshal(map[string]interface{}{
		"jsonrpc": "2.0", "id": id, "method": method, "params": params,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(reqBody))
	if err != nil {
		return fmt.Errorf("rpc: %s: %w", method, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.rid != "" {
		req.Header.Set(obs.RequestIDHeader, c.rid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("rpc: %s: %w", method, err)
	}
	defer resp.Body.Close()
	var wire struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return fmt.Errorf("rpc: %s: bad response: %w", method, err)
	}
	if wire.Error != nil {
		// Surface revert reasons as typed errors.
		if strings.HasPrefix(wire.Error.Message, "execution reverted") {
			reason := strings.TrimPrefix(wire.Error.Message, "execution reverted")
			reason = strings.TrimPrefix(reason, ": ")
			return &web3.RevertError{Reason: reason}
		}
		if wire.Error.RequestID != "" {
			return fmt.Errorf("rpc: %s: %s (code %d, request %s)",
				method, wire.Error.Message, wire.Error.Code, wire.Error.RequestID)
		}
		return fmt.Errorf("rpc: %s: %s (code %d)", method, wire.Error.Message, wire.Error.Code)
	}
	if out == nil || string(wire.Result) == "null" {
		return nil
	}
	return json.Unmarshal(wire.Result, out)
}

func (c *Client) hexUint(method string, params ...interface{}) (uint64, error) {
	var s string
	if err := c.call(&s, method, params...); err != nil {
		return 0, err
	}
	return hexutil.DecodeUint64(s)
}

// ChainID implements web3.Backend.
func (c *Client) ChainID() (uint64, error) { return c.hexUint("eth_chainId") }

// BlockNumber implements web3.Backend.
func (c *Client) BlockNumber() (uint64, error) { return c.hexUint("eth_blockNumber") }

// GetBalance implements web3.Backend.
func (c *Client) GetBalance(addr ethtypes.Address) (uint256.Int, error) {
	var s string
	if err := c.call(&s, "eth_getBalance", addr.Hex(), "latest"); err != nil {
		return uint256.Zero, err
	}
	v, err := hexutil.DecodeBig(s)
	if err != nil {
		return uint256.Zero, err
	}
	return uint256.FromBig(v), nil
}

// GetNonce implements web3.Backend.
func (c *Client) GetNonce(addr ethtypes.Address) (uint64, error) {
	return c.hexUint("eth_getTransactionCount", addr.Hex(), "latest")
}

// GetCode implements web3.Backend.
func (c *Client) GetCode(addr ethtypes.Address) ([]byte, error) {
	var s string
	if err := c.call(&s, "eth_getCode", addr.Hex(), "latest"); err != nil {
		return nil, err
	}
	return hexutil.Decode(s)
}

// StorageAt implements web3.Backend via eth_getStorageAt.
func (c *Client) StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error) {
	var s string
	if err := c.call(&s, "eth_getStorageAt", addr.Hex(), slot.Hex(), "latest"); err != nil {
		return ethtypes.Hash{}, err
	}
	return decodeHash(s)
}

// GasPrice implements web3.Backend.
func (c *Client) GasPrice() (uint256.Int, error) {
	var s string
	if err := c.call(&s, "eth_gasPrice"); err != nil {
		return uint256.Zero, err
	}
	v, err := hexutil.DecodeBig(s)
	if err != nil {
		return uint256.Zero, err
	}
	return uint256.FromBig(v), nil
}

// SendRawTransaction implements web3.Backend.
func (c *Client) SendRawTransaction(raw []byte) (ethtypes.Hash, error) {
	var s string
	if err := c.call(&s, "eth_sendRawTransaction", hexutil.Encode(raw)); err != nil {
		return ethtypes.Hash{}, err
	}
	b, err := hexutil.Decode(s)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	return ethtypes.BytesToHash(b), nil
}

// CallContract implements web3.Backend.
func (c *Client) CallContract(msg web3.CallMsg) ([]byte, error) {
	obj := map[string]interface{}{"from": msg.From.Hex(), "data": hexutil.Encode(msg.Data)}
	if msg.To != nil {
		obj["to"] = msg.To.Hex()
	}
	if !msg.Value.IsZero() {
		obj["value"] = hexutil.EncodeBig(msg.Value.ToBig())
	}
	var s string
	if err := c.call(&s, "eth_call", obj, "latest"); err != nil {
		return nil, err
	}
	return hexutil.Decode(s)
}

// EstimateGas implements web3.Backend.
func (c *Client) EstimateGas(msg web3.CallMsg) (uint64, error) {
	obj := map[string]interface{}{"from": msg.From.Hex(), "data": hexutil.Encode(msg.Data)}
	if msg.To != nil {
		obj["to"] = msg.To.Hex()
	}
	if !msg.Value.IsZero() {
		obj["value"] = hexutil.EncodeBig(msg.Value.ToBig())
	}
	return c.hexUint("eth_estimateGas", obj)
}

// receiptWire mirrors receiptJSON.
type receiptWire struct {
	TransactionHash string    `json:"transactionHash"`
	BlockNumber     string    `json:"blockNumber"`
	BlockHash       string    `json:"blockHash"`
	From            string    `json:"from"`
	To              string    `json:"to"`
	ContractAddress string    `json:"contractAddress"`
	GasUsed         string    `json:"gasUsed"`
	Status          string    `json:"status"`
	RevertReason    string    `json:"revertReason"`
	Logs            []logWire `json:"logs"`
}

type logWire struct {
	Address     string   `json:"address"`
	Topics      []string `json:"topics"`
	Data        string   `json:"data"`
	BlockNumber string   `json:"blockNumber"`
	TxHash      string   `json:"transactionHash"`
	LogIndex    string   `json:"logIndex"`
}

// TransactionReceipt implements web3.Backend.
func (c *Client) TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error) {
	var wire *receiptWire
	if err := c.call(&wire, "eth_getTransactionReceipt", h.Hex()); err != nil {
		return nil, false, err
	}
	if wire == nil {
		return nil, false, nil
	}
	rcpt := &ethtypes.Receipt{RevertReason: wire.RevertReason}
	var err error
	if rcpt.TxHash, err = decodeHash(wire.TransactionHash); err != nil {
		return nil, false, err
	}
	if rcpt.BlockNumber, err = hexutil.DecodeUint64(wire.BlockNumber); err != nil {
		return nil, false, err
	}
	if rcpt.BlockHash, err = decodeHash(wire.BlockHash); err != nil {
		return nil, false, err
	}
	if rcpt.GasUsed, err = hexutil.DecodeUint64(wire.GasUsed); err != nil {
		return nil, false, err
	}
	if rcpt.Status, err = hexutil.DecodeUint64(wire.Status); err != nil {
		return nil, false, err
	}
	if wire.From != "" {
		a, err := parseAddr(wire.From)
		if err != nil {
			return nil, false, err
		}
		rcpt.From = a
	}
	if wire.To != "" {
		a, err := parseAddr(wire.To)
		if err != nil {
			return nil, false, err
		}
		rcpt.To = &a
	}
	if wire.ContractAddress != "" {
		a, err := parseAddr(wire.ContractAddress)
		if err != nil {
			return nil, false, err
		}
		rcpt.ContractAddress = &a
	}
	for _, lw := range wire.Logs {
		l, err := decodeLogWire(lw)
		if err != nil {
			return nil, false, err
		}
		rcpt.Logs = append(rcpt.Logs, l)
	}
	return rcpt, true, nil
}

func decodeLogWire(lw logWire) (*ethtypes.Log, error) {
	l := &ethtypes.Log{}
	a, err := parseAddr(lw.Address)
	if err != nil {
		return nil, err
	}
	l.Address = a
	for _, ts := range lw.Topics {
		h, err := decodeHash(ts)
		if err != nil {
			return nil, err
		}
		l.Topics = append(l.Topics, h)
	}
	if l.Data, err = hexutil.Decode(lw.Data); err != nil {
		return nil, err
	}
	if lw.BlockNumber != "" {
		if l.BlockNumber, err = hexutil.DecodeUint64(lw.BlockNumber); err != nil {
			return nil, err
		}
	}
	if lw.TxHash != "" {
		if l.TxHash, err = decodeHash(lw.TxHash); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// FilterLogs implements web3.Backend.
func (c *Client) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	obj := map[string]interface{}{
		"fromBlock": hexutil.EncodeUint64(q.FromBlock),
	}
	if q.ToBlock != nil {
		obj["toBlock"] = hexutil.EncodeUint64(*q.ToBlock)
	}
	if len(q.Addresses) > 0 {
		addrs := make([]string, len(q.Addresses))
		for i, a := range q.Addresses {
			addrs[i] = a.Hex()
		}
		obj["address"] = addrs
	}
	if len(q.Topics) > 0 {
		topics := make([]interface{}, len(q.Topics))
		for i, alts := range q.Topics {
			if alts == nil {
				topics[i] = nil
				continue
			}
			ss := make([]string, len(alts))
			for j, h := range alts {
				ss[j] = h.Hex()
			}
			topics[i] = ss
		}
		obj["topics"] = topics
	}
	var wires []logWire
	if err := c.call(&wires, "eth_getLogs", obj); err != nil {
		return nil, err
	}
	out := make([]*ethtypes.Log, len(wires))
	for i, lw := range wires {
		l, err := decodeLogWire(lw)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// AdjustTime implements web3.Backend via evm_increaseTime.
func (c *Client) AdjustTime(seconds uint64) error {
	var ignored string
	return c.call(&ignored, "evm_increaseTime", seconds)
}

func decodeHash(s string) (ethtypes.Hash, error) {
	b, err := hexutil.Decode(s)
	if err != nil || len(b) != 32 {
		return ethtypes.Hash{}, fmt.Errorf("rpc: bad hash %q", s)
	}
	return ethtypes.BytesToHash(b), nil
}
