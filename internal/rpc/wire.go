package rpc

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// The JSON-RPC wire codec. Messages are read through internal/jsonread
// (server.go's readRequest, params.go's helpers, client.go's readReply)
// and written by the appender below: every answer the server sends, over
// HTTP and WS alike, every notification, and every request the client
// sends. The appender writes the bytes encoding/json wrote for the maps
// and structs it replaced: object keys in sorted order, strings
// HTML-safe with U+2028/U+2029 escaped and each byte of invalid UTF-8
// written as \ufffd, and a request's raw id compacted the way a
// json.RawMessage is. Those map builders are its oracle, in
// wire_oracle_test.go. Only the cold shapes stay encoding/json: the
// debug_trace* and legal_watchStatus answers (marshalCold, server.go),
// error data of a type decided outside this package (appendErrorData),
// and the caller's own type in Client.Call.

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
	b = append(b, `{"jsonrpc":"2.0","id":`...)
	b = appendID(b, r.id)
	if r.err != nil {
		b = append(b, `,"error":`...)
		b = appendError(b, r.err)
	} else {
		b = append(b, `,"result":`...)
		b = appendResult(b, r.result)
	}
	return append(b, '}')
}

// appendNotification writes one subscription event. Its members keep
// the order of the structs it was written from, not sorted order.
func appendNotification(b []byte, sub string, result any) []byte {
	b = append(b, `{"jsonrpc":"2.0","method":"eth_subscription","params":{"subscription":`...)
	b = appendString(b, sub)
	b = append(b, `,"result":`...)
	b = appendResult(b, result)
	return append(b, "}}"...)
}

func appendError(b []byte, e *rpcError) []byte {
	b = append(b, `{"code":`...)
	b = strconv.AppendInt(b, int64(e.Code), 10)
	b = append(b, `,"message":`...)
	b = appendString(b, e.Message)
	if e.Data != nil {
		b = append(b, `,"data":`...)
		b = appendErrorData(b, e.Data)
	}
	if e.RequestID != "" {
		b = append(b, `,"requestId":`...)
		b = appendString(b, e.RequestID)
	}
	return append(b, '}')
}

// appendErrorData writes error.data. Revert bytes are a hex string; any
// other payload has a type decided outside this package (DataError, the
// upgrade guard's report) and is written by encoding/json.
func appendErrorData(b []byte, data any) []byte {
	if s, ok := data.(string); ok {
		return appendString(b, s)
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
		return appendString(b, v)
	case bool:
		return strconv.AppendBool(b, v)
	case []string:
		if v == nil {
			return append(b, "null"...)
		}
		b = append(b, '[')
		for i, s := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		return append(b, ']')
	case []*ethtypes.Log:
		b = append(b, '[')
		for i, l := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendLog(b, l)
		}
		return append(b, ']')
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
		b = append(b, `{"gap":{"missed":`...)
		b = appendString(b, v.missed)
		b = append(b, `,"resume":`...)
		b = appendString(b, v.resume)
		return append(b, "}}"...)
	case rawJSON:
		return append(b, v...)
	}
	panic(fmt.Sprintf("rpc: no wire form for %T", v))
}

func appendLog(b []byte, l *ethtypes.Log) []byte {
	b = append(b, `{"address":`...)
	b = appendHex(b, l.Address[:])
	b = append(b, `,"blockHash":`...)
	b = appendHex(b, l.BlockHash[:])
	b = append(b, `,"blockNumber":`...)
	b = appendQuantity(b, l.BlockNumber)
	b = append(b, `,"data":`...)
	b = appendHex(b, l.Data)
	b = append(b, `,"logIndex":`...)
	b = appendQuantity(b, uint64(l.Index))
	b = append(b, `,"removed":false,"topics":[`...)
	for i := range l.Topics {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendHex(b, l.Topics[i][:])
	}
	b = append(b, `],"transactionHash":`...)
	b = appendHex(b, l.TxHash[:])
	b = append(b, `,"transactionIndex":`...)
	b = appendQuantity(b, uint64(l.TxIndex))
	return append(b, '}')
}

func appendReceipt(b []byte, r *ethtypes.Receipt) []byte {
	b = append(b, `{"blockHash":`...)
	b = appendHex(b, r.BlockHash[:])
	b = append(b, `,"blockNumber":`...)
	b = appendQuantity(b, r.BlockNumber)
	if r.ContractAddress != nil {
		b = append(b, `,"contractAddress":`...)
		b = appendHex(b, r.ContractAddress[:])
	}
	b = append(b, `,"cumulativeGasUsed":`...)
	b = appendQuantity(b, r.CumulativeGasUsed)
	b = append(b, `,"from":`...)
	b = appendHex(b, r.From[:])
	b = append(b, `,"gasUsed":`...)
	b = appendQuantity(b, r.GasUsed)
	b = append(b, `,"logs":`...)
	b = appendResult(b, r.Logs)
	if r.RevertReason != "" {
		b = append(b, `,"revertReason":`...)
		b = appendString(b, r.RevertReason)
	}
	b = append(b, `,"status":`...)
	b = appendQuantity(b, r.Status)
	if r.To != nil {
		b = append(b, `,"to":`...)
		b = appendHex(b, r.To[:])
	}
	b = append(b, `,"transactionHash":`...)
	b = appendHex(b, r.TxHash[:])
	b = append(b, `,"transactionIndex":`...)
	b = appendQuantity(b, uint64(r.TxIndex))
	return append(b, '}')
}

func appendTx(b []byte, t txAnswer) []byte {
	tx := t.tx
	b = append(b, `{"blockHash":`...)
	b = appendHex(b, t.blockHash[:])
	b = append(b, `,"blockNumber":`...)
	b = appendQuantity(b, t.blockNumber)
	if from, err := tx.Sender(t.chainID); err == nil {
		b = append(b, `,"from":`...)
		b = appendHex(b, from[:])
	}
	b = append(b, `,"gas":`...)
	b = appendQuantity(b, tx.Gas)
	b = append(b, `,"gasPrice":`...)
	b = appendBigQuantity(b, tx.GasPrice)
	b = append(b, `,"hash":`...)
	h := tx.Hash()
	b = appendHex(b, h[:])
	b = append(b, `,"input":`...)
	b = appendHex(b, tx.Data)
	b = append(b, `,"nonce":`...)
	b = appendQuantity(b, tx.Nonce)
	if tx.To != nil {
		b = append(b, `,"to":`...)
		b = appendHex(b, tx.To[:])
	}
	b = append(b, `,"transactionIndex":`...)
	b = appendQuantity(b, uint64(t.index))
	b = append(b, `,"value":`...)
	b = appendBigQuantity(b, tx.Value)
	return append(b, '}')
}

// appendHeader writes a block's header fields, leaving the object open
// for appendBlock's transaction list.
func appendHeader(b []byte, blk *ethtypes.Block) []byte {
	h := blk.Header
	b = append(b, `{"gasLimit":`...)
	b = appendQuantity(b, h.GasLimit)
	b = append(b, `,"gasUsed":`...)
	b = appendQuantity(b, h.GasUsed)
	b = append(b, `,"hash":`...)
	hash := blk.Hash()
	b = appendHex(b, hash[:])
	b = append(b, `,"miner":`...)
	b = appendHex(b, h.Coinbase[:])
	b = append(b, `,"number":`...)
	b = appendQuantity(b, blk.Number())
	b = append(b, `,"parentHash":`...)
	b = appendHex(b, h.ParentHash[:])
	b = append(b, `,"stateRoot":`...)
	b = appendHex(b, h.StateRoot[:])
	b = append(b, `,"timestamp":`...)
	return appendQuantity(b, h.Time)
}

func appendBlock(b []byte, a blockAnswer) []byte {
	b = appendHeader(b, a.b)
	b = append(b, `,"transactions":[`...)
	for i, tx := range a.b.Transactions {
		if i > 0 {
			b = append(b, ',')
		}
		if a.full {
			b = appendTx(b, txAnswer{tx, a.chainID, a.b.Hash(), a.b.Number(), uint(i)})
		} else {
			h := tx.Hash()
			b = appendHex(b, h[:])
		}
	}
	return append(b, "]}"...)
}

// appendHex writes data as a 0x-prefixed hex string (hexutil.Encode).
func appendHex(b, data []byte) []byte {
	b = append(b, `"0x`...)
	b = hex.AppendEncode(b, data)
	return append(b, '"')
}

// appendQuantity writes n as a hex quantity (hexutil.EncodeUint64).
func appendQuantity(b []byte, n uint64) []byte {
	b = append(b, `"0x`...)
	b = strconv.AppendUint(b, n, 16)
	return append(b, '"')
}

// appendBigQuantity writes x as a hex quantity (hexutil.EncodeBig).
func appendBigQuantity(b []byte, x uint256.Int) []byte {
	if x.IsUint64() {
		return appendQuantity(b, x.Uint64())
	}
	b = append(b, `"0x`...)
	b = x.ToBig().Append(b, 16)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string holds as they are: printable,
// and not '"', '\\', '<', '>' or '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s as encoding/json writes a string: control
// characters, '"' and '\\' escaped, '<', '>' and '&' escaped as \u00XX,
// U+2028 and U+2029 escaped, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendID writes a request's raw id as encoding/json writes a
// json.RawMessage: whitespace outside strings dropped, '<', '>', '&',
// U+2028 and U+2029 escaped, every other byte as it stands. A missing id
// is null. The id was read by jsonread.Reader.Raw, so it is valid JSON.
func appendID(b, id []byte) []byte {
	if id == nil {
		return append(b, "null"...)
	}
	inString, escaped := false, false
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(id) && id[i+1] == 0x80 && id[i+2]&^1 == 0xA8:
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[id[i+2]&0xF])
			i += 2
			continue
		case escaped:
			escaped = false
		case inString && c == '\\':
			escaped = true
		case c == '"':
			inString = !inString
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			continue
		}
		b = append(b, c)
	}
	return b
}

// wireBuffers holds the byte slices messages are read into and answered
// from, so a request costs no buffer growth once the pool is warm.
var wireBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer bounds what goes back to the pool: one large batch
// must not pin its buffer for the life of the process.
const maxPooledBuffer = 64 << 10

func getBuffer() *[]byte { return wireBuffers.Get().(*[]byte) }

func putBuffer(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBuffer {
		*p = b[:0]
		wireBuffers.Put(p)
	}
}

// readAll appends everything rd holds to b.
func readAll(b []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
