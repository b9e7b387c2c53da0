package rpc

import (
	"legalchain/internal/metrics"
)

// Per-method JSON-RPC metrics. The method label is restricted to the
// dispatch table's known names so a client probing random method
// strings cannot inflate /metrics cardinality.
var (
	rpcInFlight = metrics.Default.Gauge("legalchain_rpc_in_flight",
		"JSON-RPC requests currently executing (batch entries counted individually).")
	rpcRequests = metrics.Default.CounterVec("legalchain_rpc_requests_total",
		"JSON-RPC requests handled, by method.", "method")
	rpcErrors = metrics.Default.CounterVec("legalchain_rpc_errors_total",
		"JSON-RPC error responses, by method and error code.", "method", "code")
	rpcSeconds = metrics.Default.HistogramVec("legalchain_rpc_request_seconds",
		"JSON-RPC request latency, by method.", nil, "method")
	rpcBatchSize = metrics.Default.Histogram("legalchain_rpc_batch_size",
		"Number of entries per JSON-RPC batch request (HTTP body or WS frame).",
		[]float64{1, 2, 5, 10, 20, 50, 100})
	rpcWsSessions = metrics.Default.Gauge("legalchain_rpc_ws_sessions",
		"Open WebSocket JSON-RPC sessions.")
	rpcSubscriptions = metrics.Default.GaugeVec("legalchain_rpc_subscriptions",
		"Live eth_subscribe registrations, by channel kind.", "kind")
	rpcFiltersLive = metrics.Default.Gauge("legalchain_rpc_filters_live",
		"Installed polling filters (eth_newFilter / eth_newBlockFilter).")
)

// knownMethods mirrors the dispatch switch in server.go.
var knownMethods = map[string]bool{
	"web3_clientVersion":        true,
	"net_version":               true,
	"eth_chainId":               true,
	"eth_blockNumber":           true,
	"eth_gasPrice":              true,
	"eth_accounts":              true,
	"eth_getBalance":            true,
	"eth_getTransactionCount":   true,
	"eth_getCode":               true,
	"eth_getStorageAt":          true,
	"eth_sendRawTransaction":    true,
	"eth_call":                  true,
	"eth_estimateGas":           true,
	"eth_getTransactionReceipt": true,
	"eth_getTransactionByHash":  true,
	"eth_getBlockByNumber":      true,
	"eth_getBlockByHash":        true,
	"eth_getLogs":               true,
	"debug_traceCall":           true,
	"eth_newFilter":             true,
	"eth_newBlockFilter":        true,
	"eth_getFilterChanges":      true,
	"eth_getFilterLogs":         true,
	"eth_uninstallFilter":       true,
	"eth_subscribe":             true,
	"eth_unsubscribe":           true,
	"debug_traceTransaction":    true,
	"debug_traceBlockByNumber":  true,
	"evm_increaseTime":          true,
	"legal_watchStatus":         true,
}

// methodLabel maps an arbitrary client-supplied method name to a
// bounded label value.
func methodLabel(method string) string {
	if knownMethods[method] {
		return method
	}
	return "unknown"
}
