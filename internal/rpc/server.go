// Package rpc exposes the devnet over JSON-RPC 2.0 — the endpoint role
// Ganache plays in the paper's stack. The eth_* subset implemented is
// the one web3 clients need for the legal-contract flows: transaction
// submission, calls, receipts, logs, balances and code, plus the
// development extension evm_increaseTime.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/jsonwire"
	"legalchain/internal/obs"
	"legalchain/internal/wallet"
	"legalchain/internal/watch"
	"legalchain/internal/xtrace"
)

// Server handles JSON-RPC requests for one Blockchain.
type Server struct {
	bc      *chain.Blockchain
	ks      *wallet.Keystore // for eth_accounts; may be nil
	log     *slog.Logger
	watch   *watch.Tower // for legal_watchStatus; may be nil
	filters filterRegistry
	subSeq  atomic.Uint64 // eth_subscribe ID allocator (ws.go)
}

// NewServer builds a server. ks may be nil.
func NewServer(bc *chain.Blockchain, ks *wallet.Keystore) *Server {
	return &Server{bc: bc, ks: ks}
}

// SetLogger attaches a structured logger; every dispatched method is
// then logged with its latency, outcome and the request ID obs
// middleware put on the context.
func (s *Server) SetLogger(l *slog.Logger) { s.log = l }

// SetWatch attaches the node's watchtower, enabling legal_watchStatus.
func (s *Server) SetWatch(t *watch.Tower) { s.watch = t }

// A request is one decoded JSON-RPC call.
type request struct {
	id     []byte // as it stood in the message; nil when absent
	method string
	params [][]byte // each positional parameter's raw JSON
}

// rpcError is a response's error member. appendError writes it; the
// json tags name its members for the tests that read answers back.
type rpcError struct {
	Code    int         `json:"code"`
	Message string      `json:"message"`
	Data    interface{} `json:"data,omitempty"`
	// RequestID echoes the X-Request-Id of the HTTP request that carried
	// this call, so a failing JSON-RPC response can be joined with the
	// server's request log and its trace without headers.
	RequestID string `json:"requestId,omitempty"`
}

// Standard JSON-RPC error codes, plus geth's convention of code 3 for
// reverted execution (revert return bytes ride in error.data).
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	codeServerError    = -32000
	codeRevert         = 3
)

// Error is a JSON-RPC error carrying an explicit spec code and optional
// data payload. Handlers return it (directly or wrapped) when a failure
// should not collapse into the generic -32000 server error.
type Error struct {
	Code    int
	Message string
	Data    interface{}
}

// Error implements error.
func (e *Error) Error() string { return e.Message }

// invalidParams builds a -32602 error.
func invalidParams(format string, args ...interface{}) error {
	return &Error{Code: codeInvalidParams, Message: fmt.Sprintf(format, args...)}
}

// ServeHTTP implements http.Handler (POST with a single request or a
// batch array).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// A standalone JSON-RPC listener (devnet) has no obs middleware in
	// front of it: adopt the caller's X-Request-Id here so error
	// envelopes, logs and traces still join under one ID.
	if obs.RequestIDFrom(r.Context()) == "" {
		if rid := r.Header.Get(obs.RequestIDHeader); rid != "" {
			r = r.WithContext(obs.WithRequestID(r.Context(), rid))
		}
	}
	in := jsonwire.GetBuffer()
	body, err := jsonwire.ReadAll((*in)[:0], io.LimitReader(r.Body, 8<<20))
	defer jsonwire.PutBuffer(in, body)
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	out := jsonwire.GetBuffer()
	answer := append(serveMessage((*out)[:0], body, func(req *request) response {
		return s.handle(r.Context(), req)
	}), '\n')
	w.Write(answer)
	jsonwire.PutBuffer(out, answer)
}

// serveMessage answers one JSON-RPC message — a single request or a
// batch — appending the answer to out; handle answers each request.
// HTTP bodies and WS frames both come through here. A batch envelope is
// read first, so one malformed entry gets its own invalid-request
// response instead of failing the whole array.
func serveMessage(out, msg []byte, handle func(*request) response) []byte {
	if trimmed := bytes.TrimLeft(msg, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		r := jsonwire.NewReader(msg)
		raws := jsonwire.Slice(r, nil, func(raw *[]byte) { *raw = r.Raw() })
		if r.Finish() != nil {
			return appendResponse(out, errorResponse(nil, codeParse, "parse error"))
		}
		if len(raws) == 0 {
			return appendResponse(out, errorResponse(nil, codeInvalidRequest, "empty batch"))
		}
		rpcBatchSize.Observe(float64(len(raws)))
		out = append(out, '[')
		for i, raw := range raws {
			if i > 0 {
				out = append(out, ',')
			}
			if req, ok := readRequest(raw); ok {
				out = appendResponse(out, handle(&req))
			} else {
				out = appendResponse(out, errorResponse(nil, codeInvalidRequest, "invalid request"))
			}
		}
		return append(out, ']')
	}
	req, ok := readRequest(msg)
	if !ok {
		if v := jsonwire.NewReader(msg); v.Raw() != nil && v.Finish() == nil {
			return appendResponse(out, errorResponse(nil, codeInvalidRequest, "invalid request"))
		}
		return appendResponse(out, errorResponse(nil, codeParse, "parse error"))
	}
	return appendResponse(out, handle(&req))
}

// readRequest decodes one request as json.Unmarshal decoded it into
// {jsonrpc string; id json.RawMessage; method string; params
// []json.RawMessage}: keys match under case folding, the last of a
// repeated key wins, null leaves a string as it is and makes params nil,
// and a top-level null is a request without members. It reports false
// for a message that is not such a request, or not JSON at all.
func readRequest(msg []byte) (request, bool) {
	var req request
	r := jsonwire.NewReader(msg)
	ok := true
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "jsonrpc"):
			// Read for its type only: the version is not checked.
			if v := r.Raw(); v != nil && v[0] != '"' && v[0] != 'n' {
				ok = false
			}
		case jsonwire.Is(key, "id"):
			req.id = r.Raw()
		case jsonwire.Is(key, "method"):
			r.String(&req.method)
		case jsonwire.Is(key, "params"):
			req.params = jsonwire.Slice(r, req.params, func(p *[]byte) { *p = r.Raw() })
		default:
			r.Skip()
		}
	})
	return req, r.Finish() == nil && ok
}

func errorResponse(id []byte, code int, msg string) response {
	return response{id: id, err: &rpcError{Code: code, Message: msg}}
}

// handle dispatches one request, recording per-method metrics, a span
// (each batch element gets its own child of the HTTP root span) and an
// optional structured log line.
func (s *Server) handle(ctx context.Context, req *request) response {
	if req.method == "" {
		return errorResponse(req.id, codeInvalidRequest, "invalid request: missing method")
	}
	label := methodLabel(req.method)
	t0 := time.Now()
	rpcInFlight.Inc()
	// Child of the HTTP root span when one exists (rentald's in-process
	// path); otherwise this method span is itself the trace root, keyed
	// by the request ID when the caller sent one.
	var span *xtrace.Span
	if xtrace.FromContext(ctx) != nil {
		ctx, span = xtrace.Start(ctx, "rpc", req.method)
	} else {
		ctx, span = xtrace.StartRoot(ctx, "rpc", req.method, obs.RequestIDFrom(ctx))
	}
	result, err := s.dispatch(ctx, req.method, req.params)
	span.SetError(err)
	span.End()
	rpcInFlight.Dec()
	rpcSeconds.With(label).ObserveSince(t0)
	rpcRequests.With(label).Inc()

	resp := response{id: req.id, result: result}
	if err != nil {
		e := toRPCError(err)
		e.RequestID = obs.RequestIDFrom(ctx)
		rpcErrors.With(label, strconv.Itoa(e.Code)).Inc()
		resp = response{id: req.id, err: e}
	}
	if s.log != nil {
		attrs := []slog.Attr{
			slog.String("method", req.method),
			slog.Duration("duration", time.Since(t0)),
		}
		if id := obs.RequestIDFrom(ctx); id != "" {
			attrs = append(attrs, slog.String("id", id))
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		s.log.LogAttrs(ctx, slog.LevelDebug, "rpc_request", attrs...)
	}
	return resp
}

// toRPCError maps a dispatch error onto the wire shape: typed *Error
// values keep their code and data, reverts become geth's code 3 with
// the raw return bytes in data, unknown methods -32601, and only the
// remainder falls back to the generic -32000 server error.
func toRPCError(err error) *rpcError {
	var re *chain.RevertError
	if errors.As(err, &re) {
		return &rpcError{Code: codeRevert, Message: re.Error(), Data: hexutil.Encode(re.Ret)}
	}
	var te *Error
	if errors.As(err, &te) {
		return &rpcError{Code: te.Code, Message: te.Message, Data: te.Data}
	}
	if de, ok := asDataError(err); ok {
		return &rpcError{Code: de.RPCCode(), Message: de.Error(), Data: de.ErrorData()}
	}
	if errors.Is(err, errMethodNotFound) {
		return &rpcError{Code: codeMethodNotFound, Message: err.Error()}
	}
	return &rpcError{Code: codeServerError, Message: err.Error()}
}

var errMethodNotFound = fmt.Errorf("method not found")

// marshalCold encodes the cold answers, debug_trace* and
// legal_watchStatus, with encoding/json: they are rare, and their shapes
// belong to the evm tracers and the watchtower.
func marshalCold(v interface{}) (interface{}, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return rawJSON(raw), nil
}

// dispatch answers one call with a value appendResult writes.
func (s *Server) dispatch(ctx context.Context, method string, params [][]byte) (interface{}, error) {
	switch method {
	case "web3_clientVersion":
		return "legalchain/devnet/v1.0.0", nil
	case "net_version":
		return fmt.Sprintf("%d", s.bc.ChainID()), nil
	case "eth_chainId":
		return hexutil.EncodeUint64(s.bc.ChainID()), nil
	case "eth_blockNumber":
		return hexutil.EncodeUint64(s.bc.BlockNumber()), nil
	case "eth_gasPrice":
		return "0x3b9aca00", nil // 1 gwei
	case "eth_accounts":
		var out []string
		if s.ks != nil {
			for _, a := range s.ks.Accounts() {
				out = append(out, a.Hex())
			}
		}
		return out, nil

	case "eth_getBalance":
		addr, err := addrParam(params, 0)
		if err != nil {
			return nil, err
		}
		return hexutil.EncodeBig(s.bc.GetBalance(addr).ToBig()), nil

	case "eth_getTransactionCount":
		addr, err := addrParam(params, 0)
		if err != nil {
			return nil, err
		}
		return hexutil.EncodeUint64(s.bc.GetNonce(addr)), nil

	case "eth_getCode":
		addr, err := addrParam(params, 0)
		if err != nil {
			return nil, err
		}
		return hexutil.Encode(s.bc.GetCode(addr)), nil

	case "eth_getStorageAt":
		addr, err := addrParam(params, 0)
		if err != nil {
			return nil, err
		}
		slotHex, err := strParam(params, 1)
		if err != nil {
			return nil, err
		}
		// A slot comes as a 32-byte word or as a quantity of at most
		// 256 bits.
		slot, err := ethtypes.ParseHash(slotHex)
		if err != nil {
			n, err := hexutil.DecodeBig(slotHex)
			if err != nil || n.BitLen() > 256 {
				return nil, invalidParams("parameter 1: bad storage slot")
			}
			n.FillBytes(slot[:])
		}
		v := s.bc.GetStorageAt(addr, slot).Bytes32()
		return hexutil.Encode(v[:]), nil

	case "eth_sendRawTransaction":
		rawHex, err := strParam(params, 0)
		if err != nil {
			return nil, err
		}
		raw, err := hexutil.Decode(rawHex)
		if err != nil {
			return nil, invalidParams("parameter 0: bad hex")
		}
		tx, err := ethtypes.DecodeTransaction(raw)
		if err != nil {
			return nil, invalidParams("bad transaction: %v", err)
		}
		hash, err := s.bc.SendTransactionCtx(ctx, tx)
		if err != nil {
			return nil, err
		}
		return hash.Hex(), nil

	case "eth_call":
		msg, err := callParam(params, 0)
		if err != nil {
			return nil, err
		}
		res := s.bc.CallCtx(ctx, msg.from, msg.to, msg.data, msg.value, msg.gas)
		if res.Err != nil {
			if re := res.Revert(); re != nil {
				return nil, re
			}
			return nil, res.Err
		}
		return hexutil.Encode(res.Return), nil

	case "eth_estimateGas":
		msg, err := callParam(params, 0)
		if err != nil {
			return nil, err
		}
		est, err := s.bc.EstimateGas(msg.from, msg.to, msg.data, msg.value)
		if err != nil {
			return nil, err
		}
		return hexutil.EncodeUint64(est), nil

	case "eth_getTransactionReceipt":
		h, err := hashParam(params, 0)
		if err != nil {
			return nil, err
		}
		rcpt, ok := s.bc.GetReceipt(h)
		if !ok {
			return nil, nil // null result per spec
		}
		return rcpt, nil

	case "eth_getTransactionByHash":
		h, err := hashParam(params, 0)
		if err != nil {
			return nil, err
		}
		// One view, so the transaction and its receipt's position come
		// from the same chain.
		v := s.bc.View()
		tx, ok := v.GetTransaction(h)
		rcpt, found := v.GetReceipt(h)
		if !ok || !found {
			return nil, nil
		}
		return txAnswer{tx, s.bc.ChainID(), rcpt.BlockHash, rcpt.BlockNumber, rcpt.TxIndex}, nil

	case "eth_getBlockByNumber":
		tag, err := strParam(params, 0)
		if err != nil {
			return nil, err
		}
		// Pin one view so tag resolution ("latest" → height) and the
		// lookup can't straddle a concurrent seal.
		v := s.bc.View()
		n, err := parseBlockTag(tag, v.BlockNumber())
		if err != nil {
			return nil, err
		}
		b, ok := v.BlockByNumber(n)
		if !ok {
			return nil, nil
		}
		return blockAnswer{b, boolParam(params, 1), s.bc.ChainID()}, nil

	case "eth_getBlockByHash":
		h, err := hashParam(params, 0)
		if err != nil {
			return nil, err
		}
		b, ok := s.bc.BlockByHash(h)
		if !ok {
			return nil, nil
		}
		return blockAnswer{b, boolParam(params, 1), s.bc.ChainID()}, nil

	case "eth_getLogs":
		// One view for both the default-block resolution and the scan.
		v := s.bc.View()
		q, err := filterParam(params, 0, v.BlockNumber())
		if err != nil {
			return nil, err
		}
		return v.FilterLogs(q), nil

	case "debug_traceCall":
		msg, err := callParam(params, 0)
		if err != nil {
			return nil, err
		}
		res, trace := s.bc.TraceCall(msg.from, msg.to, msg.data, msg.gas)
		out := map[string]interface{}{
			"gas":        hexutil.EncodeUint64(res.GasUsed),
			"failed":     res.Err != nil,
			"steps":      len(trace.Logs),
			"opCounts":   trace.OpCount,
			"structLogs": structLogsJSON(trace),
		}
		if trace.Truncated() {
			out["truncated"] = true
		}
		if trace.Fault != nil {
			out["fault"] = trace.Fault.Error()
		}
		if res.Err != nil {
			out["error"] = res.Err.Error()
		}
		if res.Reason != "" {
			out["revertReason"] = res.Reason
		}
		if len(res.Return) > 0 {
			out["returnValue"] = hexutil.Encode(res.Return)
		}
		return marshalCold(out)

	case "legal_watchStatus":
		// The node's watchtower view: per-contract lifecycle states,
		// outstanding obligations, and alert-rule status. Folds to the
		// current head first, so the answer is read-your-writes.
		if s.watch == nil {
			return nil, fmt.Errorf("watchtower not enabled on this node")
		}
		s.watch.Sync()
		return marshalCold(s.watch.Status())

	case "debug_traceTransaction":
		h, err := hashParam(params, 0)
		if err != nil {
			return nil, err
		}
		cfg, err := traceConfigParam(params, 1)
		if err != nil {
			return nil, err
		}
		tr, err := s.bc.TraceTransaction(ctx, h, cfg.factory)
		if err != nil {
			return nil, mapTraceErr(err)
		}
		return marshalCold(traceResultJSON(tr))

	case "debug_traceBlockByNumber":
		tag, err := strParam(params, 0)
		if err != nil {
			return nil, err
		}
		cfg, err := traceConfigParam(params, 1)
		if err != nil {
			return nil, err
		}
		v := s.bc.View()
		n, err := parseBlockTag(tag, v.BlockNumber())
		if err != nil {
			return nil, err
		}
		traces, err := s.bc.TraceBlockByNumber(ctx, n, cfg.factory)
		if err != nil {
			return nil, mapTraceErr(err)
		}
		out := make([]interface{}, len(traces))
		for i, tr := range traces {
			out[i] = map[string]interface{}{
				"txHash": tr.TxHash.Hex(),
				"result": traceResultJSON(tr),
			}
		}
		return marshalCold(out)

	case "eth_newFilter":
		q, explicitFrom, err := newFilterParam(params, 0, s.bc.BlockNumber())
		if err != nil {
			return nil, err
		}
		return s.newLogFilter(q, explicitFrom), nil

	case "eth_newBlockFilter":
		return s.newBlockFilter(), nil

	case "eth_getFilterChanges":
		id, err := strParam(params, 0)
		if err != nil {
			return nil, err
		}
		return s.filterChanges(id)

	case "eth_getFilterLogs":
		id, err := strParam(params, 0)
		if err != nil {
			return nil, err
		}
		return s.filterLogs(id)

	case "eth_uninstallFilter":
		id, err := strParam(params, 0)
		if err != nil {
			return nil, err
		}
		return s.filters.uninstall(id), nil

	case "evm_increaseTime":
		secs, err := uintParam(params, 0)
		if err != nil {
			return nil, err
		}
		s.bc.AdjustTime(secs)
		return hexutil.EncodeUint64(secs), nil

	default:
		return nil, errMethodNotFound
	}
}
