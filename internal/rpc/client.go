package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/jsonwire"
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
// friends). A param is a string, a bool, an int or uint64, nil or a
// map[string]string; out is the caller's own type, decoded with
// encoding/json (pass a *json.RawMessage to keep the result verbatim).
func (c *Client) Call(out interface{}, method string, params ...interface{}) error {
	for _, p := range params {
		switch p.(type) {
		case string, bool, int, uint64, nil, map[string]string:
		default:
			return fmt.Errorf("rpc: %s: parameter of type %T", method, p)
		}
	}
	return c.call(method, func(b []byte) []byte {
		for i, p := range params {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendParam(b, p)
		}
		return b
	}, func(raw []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(raw, out)
	})
}

// appendParam writes one of the param types Call takes.
func appendParam(b []byte, p interface{}) []byte {
	switch p := p.(type) {
	case string:
		return jsonwire.AppendString(b, p)
	case bool:
		return strconv.AppendBool(b, p)
	case int:
		return strconv.AppendInt(b, int64(p), 10)
	case uint64:
		return strconv.AppendUint(b, p, 10)
	case map[string]string:
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwire.AppendString(b, k)
			b = append(b, ':')
			b = jsonwire.AppendString(b, p[k])
		}
		return append(b, '}')
	}
	return append(b, "null"...) // nil
}

// call performs one JSON-RPC round trip. params writes the parameter
// list's members; decode reads the result unless it is missing or null,
// which leaves the caller's value as it is ("not found").
func (c *Client) call(method string, params func([]byte) []byte, decode func(raw []byte) error) error {
	id := atomic.AddUint64(&c.next, 1)
	reqBody := append(make([]byte, 0, 256), `{"id":`...)
	reqBody = strconv.AppendUint(reqBody, id, 10)
	reqBody = append(reqBody, `,"jsonrpc":"2.0","method":`...)
	reqBody = jsonwire.AppendString(reqBody, method)
	reqBody = append(reqBody, `,"params":[`...)
	if params != nil {
		reqBody = params(reqBody)
	}
	reqBody = append(reqBody, "]}"...)
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
	in := jsonwire.GetBuffer()
	body, err := jsonwire.ReadAll((*in)[:0], resp.Body)
	defer jsonwire.PutBuffer(in, body)
	if err != nil {
		return fmt.Errorf("rpc: %s: bad response: %w", method, err)
	}
	result, rerr, err := readReply(body)
	if err != nil {
		return fmt.Errorf("rpc: %s: bad response: %w", method, err)
	}
	if rerr != nil {
		// Surface revert reasons as typed errors.
		if strings.HasPrefix(rerr.Message, "execution reverted") {
			reason := strings.TrimPrefix(rerr.Message, "execution reverted")
			reason = strings.TrimPrefix(reason, ": ")
			return &web3.RevertError{Reason: reason}
		}
		if rerr.RequestID != "" {
			return fmt.Errorf("rpc: %s: %s (code %d, request %s)",
				method, rerr.Message, rerr.Code, rerr.RequestID)
		}
		return fmt.Errorf("rpc: %s: %s (code %d)", method, rerr.Message, rerr.Code)
	}
	if result == nil || string(result) == "null" {
		return nil
	}
	if err := decode(result); err != nil {
		return fmt.Errorf("rpc: %s: bad result: %w", method, err)
	}
	return nil
}

// replyError is a reply's error member as the client reads it; data is
// not read.
type replyError struct {
	Code      int    `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"requestId"`
}

// readReply reads a reply body as json.Unmarshal read it into {result
// json.RawMessage; error *replyError}: keys match under case folding,
// the last of a repeated key wins, a null error is no error, and a
// repeated error object decodes over the first. The result is the raw
// bytes of its value, nil when there is none.
func readReply(body []byte) (result []byte, rerr *replyError, err error) {
	r := jsonwire.NewReader(body)
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "result"):
			result = r.Raw()
		case jsonwire.Is(key, "error"):
			raw := r.Raw()
			switch {
			case raw == nil:
			case string(raw) == "null":
				rerr = nil
			default:
				if rerr == nil {
					rerr = &replyError{}
				}
				if e := readReplyError(raw, rerr); e != nil && err == nil {
					err = e
				}
			}
		default:
			r.Skip()
		}
	})
	if e := r.Finish(); e != nil {
		err = e
	}
	return result, rerr, err
}

func readReplyError(raw []byte, e *replyError) error {
	r := jsonwire.NewReader(raw)
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "code"):
			r.Int(&e.Code)
		case jsonwire.Is(key, "message"):
			r.String(&e.Message)
		case jsonwire.Is(key, "requestId"):
			r.String(&e.RequestID)
		default:
			r.Skip()
		}
	})
	return r.Finish()
}

// readString decodes a string result.
func readString(raw []byte, s *string) error {
	r := jsonwire.NewReader(raw)
	r.String(s)
	return r.Finish()
}

// callString performs a call whose result is a string.
func (c *Client) callString(method string, params func([]byte) []byte) (string, error) {
	var s string
	err := c.call(method, params, func(raw []byte) error { return readString(raw, &s) })
	return s, err
}

// stringParams writes string params.
func stringParams(ss ...string) func([]byte) []byte {
	return func(b []byte) []byte {
		for i, s := range ss {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwire.AppendString(b, s)
		}
		return b
	}
}

func (c *Client) hexUint(method string, params func([]byte) []byte) (uint64, error) {
	s, err := c.callString(method, params)
	if err != nil {
		return 0, err
	}
	return hexutil.DecodeUint64(s)
}

// ChainID implements web3.Backend.
func (c *Client) ChainID() (uint64, error) { return c.hexUint("eth_chainId", nil) }

// BlockNumber implements web3.Backend.
func (c *Client) BlockNumber() (uint64, error) { return c.hexUint("eth_blockNumber", nil) }

// GetBalance implements web3.Backend.
func (c *Client) GetBalance(addr ethtypes.Address) (uint256.Int, error) {
	s, err := c.callString("eth_getBalance", stringParams(addr.Hex(), "latest"))
	if err != nil {
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
	return c.hexUint("eth_getTransactionCount", stringParams(addr.Hex(), "latest"))
}

// GetCode implements web3.Backend.
func (c *Client) GetCode(addr ethtypes.Address) ([]byte, error) {
	s, err := c.callString("eth_getCode", stringParams(addr.Hex(), "latest"))
	if err != nil {
		return nil, err
	}
	return hexutil.Decode(s)
}

// StorageAt implements web3.Backend via eth_getStorageAt.
func (c *Client) StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error) {
	s, err := c.callString("eth_getStorageAt", stringParams(addr.Hex(), slot.Hex(), "latest"))
	if err != nil {
		return ethtypes.Hash{}, err
	}
	return ethtypes.ParseHash(s)
}

// GasPrice implements web3.Backend.
func (c *Client) GasPrice() (uint256.Int, error) {
	s, err := c.callString("eth_gasPrice", nil)
	if err != nil {
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
	s, err := c.callString("eth_sendRawTransaction", func(b []byte) []byte { return jsonwire.AppendHex(b, raw) })
	if err != nil {
		return ethtypes.Hash{}, err
	}
	return ethtypes.ParseHash(s)
}

// appendCallObject writes the eth_call / eth_estimateGas object.
func appendCallObject(b []byte, msg web3.CallMsg) []byte {
	b = hexMember(hexMember(append(b, '{'), "data", msg.Data), "from", msg.From[:])
	if msg.To != nil {
		b = hexMember(b, "to", msg.To[:])
	}
	if !msg.Value.IsZero() {
		b = jsonwire.AppendBigQuantity(jsonwire.AppendKey(b, "value"), msg.Value)
	}
	return append(b, '}')
}

// CallContract implements web3.Backend.
func (c *Client) CallContract(msg web3.CallMsg) ([]byte, error) {
	s, err := c.callString("eth_call", func(b []byte) []byte {
		return append(appendCallObject(b, msg), `,"latest"`...)
	})
	if err != nil {
		return nil, err
	}
	return hexutil.Decode(s)
}

// EstimateGas implements web3.Backend.
func (c *Client) EstimateGas(msg web3.CallMsg) (uint64, error) {
	return c.hexUint("eth_estimateGas", func(b []byte) []byte { return appendCallObject(b, msg) })
}

// receiptWire is the part of a receipt answer the client reads.
type receiptWire struct {
	TransactionHash   string    `json:"transactionHash"`
	TransactionIndex  string    `json:"transactionIndex"`
	BlockNumber       string    `json:"blockNumber"`
	BlockHash         string    `json:"blockHash"`
	From              string    `json:"from"`
	To                string    `json:"to"`
	ContractAddress   string    `json:"contractAddress"`
	GasUsed           string    `json:"gasUsed"`
	CumulativeGasUsed string    `json:"cumulativeGasUsed"`
	Status            string    `json:"status"`
	RevertReason      string    `json:"revertReason"`
	Logs              []logWire `json:"logs"`
}

// logWire is the part of a log answer the client reads.
type logWire struct {
	Address     string   `json:"address"`
	Topics      []string `json:"topics"`
	Data        string   `json:"data"`
	BlockNumber string   `json:"blockNumber"`
	BlockHash   string   `json:"blockHash"`
	TxHash      string   `json:"transactionHash"`
	TxIndex     string   `json:"transactionIndex"`
	LogIndex    string   `json:"logIndex"`
}

// The typed results decode as json.Unmarshal decodes into the wire
// structs (their json tags name the keys for the oracle in
// client_fuzz_test.go): keys match under case folding, unknown keys are
// skipped, null leaves a field as it is.

// readReceipt decodes a receipt result; a non-null object allocates
// *w.
func readReceipt(raw []byte, w **receiptWire) error {
	r := jsonwire.NewReader(raw)
	if raw[0] == '{' && *w == nil {
		*w = &receiptWire{}
	}
	r.Object(func(key []byte) {
		rw := *w
		switch {
		case jsonwire.Is(key, "transactionHash"):
			r.String(&rw.TransactionHash)
		case jsonwire.Is(key, "transactionIndex"):
			r.String(&rw.TransactionIndex)
		case jsonwire.Is(key, "blockNumber"):
			r.String(&rw.BlockNumber)
		case jsonwire.Is(key, "blockHash"):
			r.String(&rw.BlockHash)
		case jsonwire.Is(key, "from"):
			r.String(&rw.From)
		case jsonwire.Is(key, "to"):
			r.String(&rw.To)
		case jsonwire.Is(key, "contractAddress"):
			r.String(&rw.ContractAddress)
		case jsonwire.Is(key, "gasUsed"):
			r.String(&rw.GasUsed)
		case jsonwire.Is(key, "cumulativeGasUsed"):
			r.String(&rw.CumulativeGasUsed)
		case jsonwire.Is(key, "status"):
			r.String(&rw.Status)
		case jsonwire.Is(key, "revertReason"):
			r.String(&rw.RevertReason)
		case jsonwire.Is(key, "logs"):
			rw.Logs = jsonwire.Slice(r, rw.Logs, func(l *logWire) { readLog(r, l) })
		default:
			r.Skip()
		}
	})
	return r.Finish()
}

// readLogs decodes a list of logs.
func readLogs(raw []byte, logs *[]logWire) error {
	r := jsonwire.NewReader(raw)
	*logs = jsonwire.Slice(r, *logs, func(l *logWire) { readLog(r, l) })
	return r.Finish()
}

func readLog(r *jsonwire.Reader, l *logWire) {
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "address"):
			r.String(&l.Address)
		case jsonwire.Is(key, "topics"):
			l.Topics = jsonwire.Slice(r, l.Topics, r.String)
		case jsonwire.Is(key, "data"):
			r.String(&l.Data)
		case jsonwire.Is(key, "blockNumber"):
			r.String(&l.BlockNumber)
		case jsonwire.Is(key, "blockHash"):
			r.String(&l.BlockHash)
		case jsonwire.Is(key, "transactionHash"):
			r.String(&l.TxHash)
		case jsonwire.Is(key, "transactionIndex"):
			r.String(&l.TxIndex)
		case jsonwire.Is(key, "logIndex"):
			r.String(&l.LogIndex)
		default:
			r.Skip()
		}
	})
}

// TransactionReceipt implements web3.Backend.
func (c *Client) TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error) {
	var wire *receiptWire
	if err := c.call("eth_getTransactionReceipt", stringParams(h.Hex()), func(raw []byte) error {
		return readReceipt(raw, &wire)
	}); err != nil {
		return nil, false, err
	}
	if wire == nil {
		return nil, false, nil
	}
	var d wireDecoder
	rcpt := &ethtypes.Receipt{
		TxHash:            d.hash(wire.TransactionHash, false),
		TxIndex:           uint(d.quantity(wire.TransactionIndex, true)),
		BlockNumber:       d.quantity(wire.BlockNumber, false),
		BlockHash:         d.hash(wire.BlockHash, false),
		GasUsed:           d.quantity(wire.GasUsed, false),
		CumulativeGasUsed: d.quantity(wire.CumulativeGasUsed, false),
		Status:            d.quantity(wire.Status, false),
		To:                d.addr(wire.To),
		ContractAddress:   d.addr(wire.ContractAddress),
		RevertReason:      wire.RevertReason,
	}
	if from := d.addr(wire.From); from != nil {
		rcpt.From = *from
	}
	for _, lw := range wire.Logs {
		rcpt.Logs = append(rcpt.Logs, d.log(lw))
	}
	if d.err != nil {
		return nil, false, d.err
	}
	return rcpt, true, nil
}

// wireDecoder converts the strings of a receipt or log answer, keeping
// the first error. An optional member reads "" (absent) as zero.
type wireDecoder struct{ err error }

func (d *wireDecoder) keep(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *wireDecoder) quantity(s string, optional bool) uint64 {
	if optional && s == "" {
		return 0
	}
	n, err := hexutil.DecodeUint64(s)
	d.keep(err)
	return n
}

func (d *wireDecoder) hash(s string, optional bool) ethtypes.Hash {
	if optional && s == "" {
		return ethtypes.Hash{}
	}
	h, err := ethtypes.ParseHash(s)
	d.keep(err)
	return h
}

// addr decodes an optional address: nil when absent.
func (d *wireDecoder) addr(s string) *ethtypes.Address {
	if s == "" {
		return nil
	}
	a, err := ethtypes.ParseAddress(s)
	d.keep(err)
	return &a
}

// log decodes a log; its address and data are required, its position
// optional.
func (d *wireDecoder) log(lw logWire) *ethtypes.Log {
	a, err := ethtypes.ParseAddress(lw.Address)
	d.keep(err)
	l := &ethtypes.Log{Address: a}
	for _, ts := range lw.Topics {
		l.Topics = append(l.Topics, d.hash(ts, false))
	}
	l.Data, err = hexutil.Decode(lw.Data)
	d.keep(err)
	l.BlockNumber = d.quantity(lw.BlockNumber, true)
	l.BlockHash = d.hash(lw.BlockHash, true)
	l.TxHash = d.hash(lw.TxHash, true)
	l.TxIndex = uint(d.quantity(lw.TxIndex, true))
	l.Index = uint(d.quantity(lw.LogIndex, true))
	return l
}

// appendFilter writes the eth_getLogs filter object.
func appendFilter(b []byte, q chain.FilterQuery) []byte {
	b = append(b, '{')
	if len(q.Addresses) > 0 {
		b = jsonwire.AppendList(jsonwire.AppendKey(b, "address"), q.Addresses, func(b []byte, a ethtypes.Address) []byte {
			return jsonwire.AppendHex(b, a[:])
		})
	}
	b = quantityMember(b, "fromBlock", q.FromBlock)
	if q.ToBlock != nil {
		b = quantityMember(b, "toBlock", *q.ToBlock)
	}
	if len(q.Topics) > 0 {
		b = jsonwire.AppendList(jsonwire.AppendKey(b, "topics"), q.Topics, func(b []byte, alts []ethtypes.Hash) []byte {
			if alts == nil {
				return append(b, "null"...)
			}
			return jsonwire.AppendList(b, alts, appendHash)
		})
	}
	return append(b, '}')
}

// FilterLogs implements web3.Backend.
func (c *Client) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	var wires []logWire
	if err := c.call("eth_getLogs", func(b []byte) []byte { return appendFilter(b, q) }, func(raw []byte) error {
		return readLogs(raw, &wires)
	}); err != nil {
		return nil, err
	}
	var d wireDecoder
	out := make([]*ethtypes.Log, len(wires))
	for i, lw := range wires {
		out[i] = d.log(lw)
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}
