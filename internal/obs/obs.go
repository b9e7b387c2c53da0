// Package obs is the request-observability layer shared by every HTTP
// surface of the system (JSON-RPC endpoint, web application, REST API):
// structured request logging via log/slog, per-request IDs propagated
// through context.Context and the X-Request-Id header, and per-route
// HTTP metrics recorded into internal/metrics.
//
// The intended stack, outermost first:
//
//	obs.LogRequests(logger, ...)   // one JSON line per request, assigns the ID
//	obs.InstrumentHandler(route, ...) // per-route latency/error metrics
//	<application handler>
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"legalchain/internal/metrics"
	"legalchain/internal/xtrace"
)

// ctxKey carries the request ID through a context.
type ctxKey struct{}

var reqSeq atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request ID. Randomness
// failures fall back to a process-local sequence — IDs must never be
// the reason a request fails.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "seq-" + strconv.FormatUint(reqSeq.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID returns ctx annotated with the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestIDFrom extracts the request ID from ctx ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// RequestIDHeader is the header the middleware reads and writes.
const RequestIDHeader = "X-Request-Id"

// NewLogger builds a JSON slog logger at the given level.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLevel maps a -log-level flag value to a slog.Level (info when
// unrecognised).
func ParseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// --- HTTP metrics ----------------------------------------------------------

var (
	httpInFlight = metrics.Default.Gauge("legalchain_http_in_flight",
		"HTTP requests currently being served across all instrumented routes.")
	httpRequests = metrics.Default.CounterVec("legalchain_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	httpSeconds = metrics.Default.HistogramVec("legalchain_http_request_seconds",
		"HTTP request latency by route pattern.", nil, "route")
)

// StatusWriter wraps a ResponseWriter to capture the status code and
// body size for logging and metrics.
type StatusWriter struct {
	http.ResponseWriter
	Status int
	Bytes  int64
}

// WrapWriter returns w as a *StatusWriter (idempotent).
func WrapWriter(w http.ResponseWriter) *StatusWriter {
	if sw, ok := w.(*StatusWriter); ok {
		return sw
	}
	return &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
}

// WriteHeader records the status code.
func (sw *StatusWriter) WriteHeader(code int) {
	sw.Status = code
	sw.ResponseWriter.WriteHeader(code)
}

// Write counts body bytes.
func (sw *StatusWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.Bytes += int64(n)
	return n, err
}

// Unwrap exposes the wrapped writer so http.ResponseController can
// reach Flush/Hijack through the instrumentation (SSE, WebSocket).
func (sw *StatusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// InstrumentHandler records in-flight, latency and status-code metrics
// for one route pattern. Use the mux pattern, never the raw request
// path, to keep label cardinality bounded.
func InstrumentHandler(route string, next http.Handler) http.Handler {
	hist := httpSeconds.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		httpInFlight.Inc()
		defer httpInFlight.Dec()
		sw := WrapWriter(w)
		next.ServeHTTP(sw, r)
		hist.ObserveSince(t0)
		httpRequests.With(route, strconv.Itoa(sw.Status)).Inc()
	})
}

// LogRequests assigns each request an ID (reusing an inbound
// X-Request-Id when present), reflects it in the response headers and
// context, opens the root span of the request's trace (the trace ID is
// the request ID, so logs, error envelopes and traces join on one key),
// and emits one structured log line per request. A nil logger still
// propagates IDs and spans but logs nothing.
func LogRequests(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		ctx, span := xtrace.StartRoot(WithRequestID(r.Context(), rid), "http", r.Method+" "+r.URL.Path, rid)
		r = r.WithContext(ctx)
		t0 := time.Now()
		sw := WrapWriter(w)
		next.ServeHTTP(sw, r)
		span.SetAttrUint("status", uint64(sw.Status))
		span.End()
		if l == nil {
			return
		}
		l.LogAttrs(r.Context(), slog.LevelInfo, "http_request",
			slog.String("id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.Status),
			slog.Int64("bytes", sw.Bytes),
			slog.Duration("duration", time.Since(t0)),
			slog.String("remote", r.RemoteAddr),
		)
	})
}
