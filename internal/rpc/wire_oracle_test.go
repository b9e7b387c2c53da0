package rpc

import (
	"bytes"
	"encoding/json"

	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
)

// The encoding/json pipeline the wire codec replaced, the oracle of
// wire.go and of serveMessage: requests decoded by encoding/json,
// answers built as maps by the builders below and written by a
// json.Encoder. Only the null result differs from the pipeline these
// were taken from, which dropped the result member of a successful null
// answer.

func receiptJSON(r *ethtypes.Receipt) map[string]interface{} {
	out := map[string]interface{}{
		"transactionHash":   r.TxHash.Hex(),
		"transactionIndex":  hexutil.EncodeUint64(uint64(r.TxIndex)),
		"blockNumber":       hexutil.EncodeUint64(r.BlockNumber),
		"blockHash":         r.BlockHash.Hex(),
		"from":              r.From.Hex(),
		"gasUsed":           hexutil.EncodeUint64(r.GasUsed),
		"cumulativeGasUsed": hexutil.EncodeUint64(r.CumulativeGasUsed),
		"status":            hexutil.EncodeUint64(r.Status),
		"logs":              []interface{}{},
	}
	if r.To != nil {
		out["to"] = r.To.Hex()
	}
	if r.ContractAddress != nil {
		out["contractAddress"] = r.ContractAddress.Hex()
	}
	if r.RevertReason != "" {
		out["revertReason"] = r.RevertReason
	}
	logs := make([]interface{}, len(r.Logs))
	for i, l := range r.Logs {
		logs[i] = logJSON(l)
	}
	out["logs"] = logs
	return out
}

func logJSON(l *ethtypes.Log) map[string]interface{} {
	topics := make([]string, len(l.Topics))
	for i, t := range l.Topics {
		topics[i] = t.Hex()
	}
	return map[string]interface{}{
		"address":          l.Address.Hex(),
		"topics":           topics,
		"data":             hexutil.Encode(l.Data),
		"blockNumber":      hexutil.EncodeUint64(l.BlockNumber),
		"blockHash":        l.BlockHash.Hex(),
		"transactionHash":  l.TxHash.Hex(),
		"transactionIndex": hexutil.EncodeUint64(uint64(l.TxIndex)),
		"logIndex":         hexutil.EncodeUint64(uint64(l.Index)),
		"removed":          false,
	}
}

func txJSON(tx *ethtypes.Transaction, chainID uint64, blockHash ethtypes.Hash, blockNumber uint64, index uint) map[string]interface{} {
	out := map[string]interface{}{
		"hash":             tx.Hash().Hex(),
		"nonce":            hexutil.EncodeUint64(tx.Nonce),
		"gas":              hexutil.EncodeUint64(tx.Gas),
		"gasPrice":         hexutil.EncodeBig(tx.GasPrice.ToBig()),
		"value":            hexutil.EncodeBig(tx.Value.ToBig()),
		"input":            hexutil.Encode(tx.Data),
		"blockHash":        blockHash.Hex(),
		"blockNumber":      hexutil.EncodeUint64(blockNumber),
		"transactionIndex": hexutil.EncodeUint64(uint64(index)),
	}
	if tx.To != nil {
		out["to"] = tx.To.Hex()
	}
	if from, err := tx.Sender(chainID); err == nil {
		out["from"] = from.Hex()
	}
	return out
}

func blockJSON(b *ethtypes.Block, fullTx bool, chainID uint64) map[string]interface{} {
	var txs interface{}
	if fullTx {
		objs := make([]interface{}, len(b.Transactions))
		for i, tx := range b.Transactions {
			objs[i] = txJSON(tx, chainID, b.Hash(), b.Number(), uint(i))
		}
		txs = objs
	} else {
		hashes := make([]string, len(b.Transactions))
		for i, tx := range b.Transactions {
			hashes[i] = tx.Hash().Hex()
		}
		txs = hashes
	}
	return map[string]interface{}{
		"number":       hexutil.EncodeUint64(b.Number()),
		"hash":         b.Hash().Hex(),
		"parentHash":   b.Header.ParentHash.Hex(),
		"timestamp":    hexutil.EncodeUint64(b.Header.Time),
		"gasLimit":     hexutil.EncodeUint64(b.Header.GasLimit),
		"gasUsed":      hexutil.EncodeUint64(b.Header.GasUsed),
		"miner":        b.Header.Coinbase.Hex(),
		"stateRoot":    b.Header.StateRoot.Hex(),
		"transactions": txs,
	}
}

func headerJSON(b *ethtypes.Block) map[string]interface{} {
	return map[string]interface{}{
		"number":     hexutil.EncodeUint64(b.Number()),
		"hash":       b.Hash().Hex(),
		"parentHash": b.Header.ParentHash.Hex(),
		"timestamp":  hexutil.EncodeUint64(b.Header.Time),
		"gasLimit":   hexutil.EncodeUint64(b.Header.GasLimit),
		"gasUsed":    hexutil.EncodeUint64(b.Header.GasUsed),
		"miner":      b.Header.Coinbase.Hex(),
		"stateRoot":  b.Header.StateRoot.Hex(),
	}
}

// gapNoticeReference is the gap notice struct of the encoding/json
// pipeline.
type gapNoticeReference struct {
	Missed string `json:"missed"`
	Resume string `json:"resume"`
}

// referenceValue is a dispatch result as the encoding/json pipeline
// built it.
func referenceValue(v interface{}) interface{} {
	switch v := v.(type) {
	case *ethtypes.Receipt:
		return receiptJSON(v)
	case []*ethtypes.Log:
		out := make([]interface{}, len(v))
		for i, l := range v {
			out[i] = logJSON(l)
		}
		return out
	case *ethtypes.Log:
		return logJSON(v)
	case txAnswer:
		return txJSON(v.tx, v.chainID, v.blockHash, v.blockNumber, v.index)
	case blockAnswer:
		return blockJSON(v.b, v.full, v.chainID)
	case headAnswer:
		return headerJSON(v.b)
	case gapNotice:
		return map[string]interface{}{"gap": gapNoticeReference{Missed: v.missed, Resume: v.resume}}
	case rawJSON:
		return json.RawMessage(v)
	}
	return v
}

type requestReference struct {
	JSONRPC string            `json:"jsonrpc"`
	ID      json.RawMessage   `json:"id"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params"`
}

func (r *requestReference) request() *request {
	req := &request{id: r.ID, method: r.Method}
	if r.Params != nil {
		req.params = make([][]byte, len(r.Params))
		for i, p := range r.Params {
			req.params[i] = p
		}
	}
	return req
}

type responseReference struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  interface{}     `json:"result"`
}

type errorResponseReference struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Error   *rpcError       `json:"error"`
}

func referenceAnswer(resp response) interface{} {
	if resp.err != nil {
		return errorResponseReference{"2.0", resp.id, resp.err}
	}
	return responseReference{"2.0", resp.id, referenceValue(resp.result)}
}

func referenceError(code int, msg string) interface{} {
	return errorResponseReference{JSONRPC: "2.0", Error: &rpcError{Code: code, Message: msg}}
}

// referenceServe answers msg as serveMessage and ServeHTTP did over
// encoding/json, trailing newline included; requests gives each request
// it decoded, in order, and handle answers it.
func referenceServe(msg []byte, handle func(*request) response) (answer []byte, requests []requestReference) {
	var v interface{}
	if trimmed := bytes.TrimSpace(msg); len(trimmed) > 0 && trimmed[0] == '[' {
		var raws []json.RawMessage
		switch err := json.Unmarshal(msg, &raws); {
		case err != nil:
			v = referenceError(codeParse, "parse error")
		case len(raws) == 0:
			v = referenceError(codeInvalidRequest, "empty batch")
		default:
			out := make([]interface{}, len(raws))
			for i, raw := range raws {
				var req requestReference
				if err := json.Unmarshal(raw, &req); err != nil {
					out[i] = referenceError(codeInvalidRequest, "invalid request")
					continue
				}
				requests = append(requests, req)
				out[i] = referenceAnswer(handle(req.request()))
			}
			v = out
		}
	} else {
		var req requestReference
		if err := json.Unmarshal(msg, &req); err != nil {
			if json.Valid(msg) {
				v = referenceError(codeInvalidRequest, "invalid request")
			} else {
				v = referenceError(codeParse, "parse error")
			}
		} else {
			requests = append(requests, req)
			v = referenceAnswer(handle(req.request()))
		}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), requests
}

// referenceNotification is a subscription event as the encoding/json
// pipeline wrote it.
func referenceNotification(sub string, result interface{}) []byte {
	type subParams struct {
		Subscription string      `json:"subscription"`
		Result       interface{} `json:"result"`
	}
	raw, _ := json.Marshal(struct {
		JSONRPC string    `json:"jsonrpc"`
		Method  string    `json:"method"`
		Params  subParams `json:"params"`
	}{"2.0", "eth_subscription", subParams{sub, referenceValue(result)}})
	return raw
}
