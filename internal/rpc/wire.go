package rpc

import (
	"encoding/json"
	"fmt"
	"strconv"

	"legalchain/internal/ethtypes"
	"legalchain/internal/jsonwire"
)

// The JSON-RPC wire codec. Messages are read through internal/jsonwire's
// Reader (server.go's readRequest, params.go's helpers, client.go's
// readReply) and written by the shape writers below, on jsonwire's
// appender: every answer the server sends, over HTTP and WS alike, every
// notification, and every request the client sends. They write the bytes
// encoding/json wrote for the maps and structs they replaced: object keys
// in sorted order, strings as jsonwire.AppendString writes them, and a
// request's raw id compacted the way a json.RawMessage is. Those map
// builders are their oracle, in wire_oracle_test.go. Only the cold shapes
// stay encoding/json: the debug_trace* and legal_watchStatus answers
// (marshalCold, server.go), error data of a type decided outside this
// package (appendErrorData), and the caller's own type in Client.Call.

// A response is one answer: result on success, err on failure.
type response struct {
	id     []byte // the request's id as it stood in the message; nil is null
	result any    // one of the types appendResult writes
	err    *rpcError
}

// The answer shapes beyond strings, bools, string lists, logs and
// receipts.
type (
	// blockAnswer is a block as eth_getBlockBy* answers it: transaction
	// hashes, or the transactions themselves when full is set.
	blockAnswer struct {
		b       *ethtypes.Block
		full    bool
		chainID uint64
	}
	// headAnswer is a block's header: the newHeads payload.
	headAnswer struct{ b *ethtypes.Block }
	// txAnswer is a sealed transaction at its position.
	txAnswer struct {
		tx          *ethtypes.Transaction
		chainID     uint64
		blockHash   ethtypes.Hash
		blockNumber uint64
		index       uint
	}
	// gapNotice is delivered in place of events a subscriber was too
	// slow to receive and the view could no longer replay: missed events
	// were dropped, and delivery resumes at block resume. Both are hex
	// quantities; resume is empty for pending transactions.
	gapNotice struct{ missed, resume string }
	// rawJSON is an answer encoding/json already wrote: a cold shape.
	rawJSON []byte
)

// appendResponse writes one answer as the JSON-RPC 2.0 envelope.
func appendResponse(b []byte, r response) []byte {
	b = jsonwire.AppendRaw(append(b, `{"jsonrpc":"2.0","id":`...), r.id)
	if r.err != nil {
		return append(appendError(append(b, `,"error":`...), r.err), '}')
	}
	return append(appendResult(append(b, `,"result":`...), r.result), '}')
}

// appendNotification writes one subscription event. Its members keep
// the order of the structs it was written from, not sorted order.
func appendNotification(b []byte, sub string, result any) []byte {
	b = append(b, `{"jsonrpc":"2.0","method":"eth_subscription","params":{"subscription":`...)
	b = jsonwire.AppendString(b, sub)
	return append(appendResult(append(b, `,"result":`...), result), "}}"...)
}

func appendError(b []byte, e *rpcError) []byte {
	b = strconv.AppendInt(jsonwire.AppendKey(append(b, '{'), "code"), int64(e.Code), 10)
	b = jsonwire.AppendString(jsonwire.AppendKey(b, "message"), e.Message)
	if e.Data != nil {
		b = appendErrorData(jsonwire.AppendKey(b, "data"), e.Data)
	}
	if e.RequestID != "" {
		b = jsonwire.AppendString(jsonwire.AppendKey(b, "requestId"), e.RequestID)
	}
	return append(b, '}')
}

// appendErrorData writes error.data. Revert bytes are a hex string; any
// other payload has a type decided outside this package (DataError, the
// upgrade guard's report) and is written by encoding/json.
func appendErrorData(b []byte, data any) []byte {
	if s, ok := data.(string); ok {
		return jsonwire.AppendString(b, s)
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return append(b, "null"...)
	}
	return append(b, raw...)
}

// appendResult writes a dispatch result.
func appendResult(b []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...)
	case string:
		return jsonwire.AppendString(b, v)
	case bool:
		return strconv.AppendBool(b, v)
	case []string:
		if v == nil {
			return append(b, "null"...)
		}
		return jsonwire.AppendList(b, v, jsonwire.AppendString)
	case []*ethtypes.Log:
		return jsonwire.AppendList(b, v, appendLog)
	case *ethtypes.Log:
		return appendLog(b, v)
	case *ethtypes.Receipt:
		return appendReceipt(b, v)
	case txAnswer:
		return appendTx(b, v)
	case blockAnswer:
		return appendBlock(b, v)
	case headAnswer:
		return append(appendHeader(b, v.b), '}')
	case gapNotice:
		b = jsonwire.AppendString(append(b, `{"gap":{"missed":`...), v.missed)
		return append(jsonwire.AppendString(append(b, `,"resume":`...), v.resume), "}}"...)
	case rawJSON:
		return append(b, v...)
	}
	panic(fmt.Sprintf("rpc: no wire form for %T", v))
}

// The member writers write a key and its value, after a comma unless
// the member opens its object.
func hexMember(b []byte, key string, data []byte) []byte {
	return jsonwire.AppendHex(jsonwire.AppendKey(b, key), data)
}

func quantityMember(b []byte, key string, n uint64) []byte {
	return jsonwire.AppendQuantity(jsonwire.AppendKey(b, key), n)
}

func appendHash(b []byte, h ethtypes.Hash) []byte { return jsonwire.AppendHex(b, h[:]) }

func appendLog(b []byte, l *ethtypes.Log) []byte {
	b = hexMember(append(b, '{'), "address", l.Address[:])
	b = hexMember(b, "blockHash", l.BlockHash[:])
	b = quantityMember(b, "blockNumber", l.BlockNumber)
	b = hexMember(b, "data", l.Data)
	b = quantityMember(b, "logIndex", uint64(l.Index))
	b = jsonwire.AppendList(append(b, `,"removed":false,"topics":`...), l.Topics, appendHash)
	b = hexMember(b, "transactionHash", l.TxHash[:])
	b = quantityMember(b, "transactionIndex", uint64(l.TxIndex))
	return append(b, '}')
}

func appendReceipt(b []byte, r *ethtypes.Receipt) []byte {
	b = hexMember(append(b, '{'), "blockHash", r.BlockHash[:])
	b = quantityMember(b, "blockNumber", r.BlockNumber)
	if r.ContractAddress != nil {
		b = hexMember(b, "contractAddress", r.ContractAddress[:])
	}
	b = quantityMember(b, "cumulativeGasUsed", r.CumulativeGasUsed)
	b = hexMember(b, "from", r.From[:])
	b = quantityMember(b, "gasUsed", r.GasUsed)
	b = jsonwire.AppendList(jsonwire.AppendKey(b, "logs"), r.Logs, appendLog)
	if r.RevertReason != "" {
		b = jsonwire.AppendString(jsonwire.AppendKey(b, "revertReason"), r.RevertReason)
	}
	b = quantityMember(b, "status", r.Status)
	if r.To != nil {
		b = hexMember(b, "to", r.To[:])
	}
	b = hexMember(b, "transactionHash", r.TxHash[:])
	b = quantityMember(b, "transactionIndex", uint64(r.TxIndex))
	return append(b, '}')
}

func appendTx(b []byte, t txAnswer) []byte {
	tx := t.tx
	b = hexMember(append(b, '{'), "blockHash", t.blockHash[:])
	b = quantityMember(b, "blockNumber", t.blockNumber)
	if from, err := tx.Sender(t.chainID); err == nil {
		b = hexMember(b, "from", from[:])
	}
	b = quantityMember(b, "gas", tx.Gas)
	b = jsonwire.AppendBigQuantity(jsonwire.AppendKey(b, "gasPrice"), tx.GasPrice)
	h := tx.Hash()
	b = hexMember(b, "hash", h[:])
	b = hexMember(b, "input", tx.Data)
	b = quantityMember(b, "nonce", tx.Nonce)
	if tx.To != nil {
		b = hexMember(b, "to", tx.To[:])
	}
	b = quantityMember(b, "transactionIndex", uint64(t.index))
	b = jsonwire.AppendBigQuantity(jsonwire.AppendKey(b, "value"), tx.Value)
	return append(b, '}')
}

// appendHeader writes a block's header fields, leaving the object open
// for appendBlock's transaction list.
func appendHeader(b []byte, blk *ethtypes.Block) []byte {
	h, hash := blk.Header, blk.Hash()
	b = quantityMember(append(b, '{'), "gasLimit", h.GasLimit)
	b = quantityMember(b, "gasUsed", h.GasUsed)
	b = hexMember(b, "hash", hash[:])
	b = hexMember(b, "miner", h.Coinbase[:])
	b = quantityMember(b, "number", blk.Number())
	b = hexMember(b, "parentHash", h.ParentHash[:])
	b = hexMember(b, "stateRoot", h.StateRoot[:])
	return quantityMember(b, "timestamp", h.Time)
}

func appendBlock(b []byte, a blockAnswer) []byte {
	b = append(appendHeader(b, a.b), `,"transactions":[`...)
	for i, tx := range a.b.Transactions {
		if i > 0 {
			b = append(b, ',')
		}
		if a.full {
			b = appendTx(b, txAnswer{tx, a.chainID, a.b.Hash(), a.b.Number(), uint(i)})
		} else {
			b = appendHash(b, tx.Hash())
		}
	}
	return append(b, "]}"...)
}
