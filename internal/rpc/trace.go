package rpc

import (
	"errors"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/hexutil"
	"legalchain/internal/jsonwire"
)

// traceConfig is the optional second parameter of debug_traceTransaction
// and debug_traceBlockByNumber, following geth's convention: omitted or
// empty selects the step-by-step structLog output; {"tracer":
// "callTracer"} selects the call-frame tree.
type traceConfig struct {
	tracer string
}

// factory builds a fresh tracer per replayed transaction.
func (c traceConfig) factory() evm.Tracer {
	if c.tracer == "callTracer" {
		return evm.NewCallTracer()
	}
	return evm.NewStructLogger()
}

// traceConfigParam reads the optional tracer-config parameter.
func traceConfigParam(params [][]byte, i int) (traceConfig, error) {
	var cfg traceConfig
	if i >= len(params) || string(params[i]) == "null" {
		return cfg, nil
	}
	err := decodeObject(params[i], "traceConfig", func(r *jsonwire.Reader, key []byte) error {
		if jsonwire.Is(key, "tracer") {
			return stringMember(r, "traceConfig", "tracer", &cfg.tracer)
		}
		r.Skip()
		return nil
	})
	if err != nil {
		return cfg, invalidParams("parameter %d: bad tracer config: %v", i, err)
	}
	switch cfg.tracer {
	case "", "structLog", "callTracer":
		return cfg, nil
	default:
		return cfg, invalidParams("parameter %d: unknown tracer %q", i, cfg.tracer)
	}
}

// mapTraceErr turns the chain's sentinel errors into typed JSON-RPC
// errors so clients can distinguish "no such tx" from a server fault.
func mapTraceErr(err error) error {
	if errors.Is(err, chain.ErrTraceNotFound) {
		return &Error{Code: codeInvalidParams, Message: err.Error()}
	}
	return err
}

// traceResultJSON renders one replayed transaction in the output shape
// its tracer implies: the geth-style frame tree for the callTracer, or
// the {gas, failed, structLogs} object for the StructLogger.
func traceResultJSON(tr *chain.TxTrace) interface{} {
	switch t := tr.Tracer.(type) {
	case *evm.CallTracer:
		return t.Result()
	case *evm.StructLogger:
		out := map[string]interface{}{
			"gas":        hexutil.EncodeUint64(tr.Receipt.GasUsed),
			"failed":     tr.Receipt.Status != ethtypes.ReceiptStatusSuccessful,
			"structLogs": structLogsJSON(t),
		}
		if tr.Receipt.RevertReason != "" {
			out["revertReason"] = tr.Receipt.RevertReason
		}
		if t.Truncated() {
			out["truncated"] = true
		}
		return out
	default:
		return nil
	}
}

// structLogsJSON renders recorded steps with geth's structLogs field
// names (pc, op, gas, depth) plus the stack size the logger keeps.
func structLogsJSON(sl *evm.StructLogger) []interface{} {
	out := make([]interface{}, len(sl.Logs))
	for i, l := range sl.Logs {
		out[i] = map[string]interface{}{
			"pc":        l.PC,
			"op":        l.Op.String(),
			"gas":       l.Gas,
			"depth":     l.Depth,
			"stackSize": l.StackSize,
		}
	}
	return out
}
