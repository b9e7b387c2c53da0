// Package xtrace is a stdlib-only span-tracing subsystem. Spans are
// carried through the process via context.Context and form one trace
// per root (an HTTP request, a legalctl invocation, ...).
// Completed traces land in a bounded in-memory ring buffer exported on
// the ops sidecar as /debug/traces (JSON) and /debug/traces/chrome
// (Chrome trace_event format, loadable in about:tracing / Perfetto).
//
// Design constraints, in order:
//
//  1. An untraced hot path must pay (nearly) nothing. Start returns a
//     nil *Span when the context carries no trace, and every Span
//     method is nil-safe, so instrumented code never branches:
//
//     ctx, sp := xtrace.Start(ctx, "chain", "call")
//     defer sp.End()
//
//     costs one context value lookup when tracing is off.
//
//  2. Whether to trace is decided once, at the root: while the
//     subsystem is on, StartRoot traces every root, and descendants
//     inherit the decision for free through the context.
//
//  3. Collection is lock-cheap: per-span appends take the owning
//     trace's mutex (only ever contended by that request's own
//     goroutines), and the global ring lock is taken once per
//     completed trace, not per span.
package xtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/metrics"
)

type ctxKey struct{}

// maxSpansPerTrace bounds the memory one runaway trace can hold. Spans
// started past the cap are counted in TraceData.Dropped but not stored.
const maxSpansPerTrace = 4096

var (
	enabled   atomic.Bool
	slowNanos atomic.Int64

	loggerMu sync.Mutex
	logger   *slog.Logger
)

// SetEnabled turns the whole subsystem on or off. When off, StartRoot
// opens no trace and instrumented paths see only nil spans.
func SetEnabled(on bool) { enabled.Store(on) }

// SetSlowThreshold sets the duration above which a completed trace is
// logged as a slow-trace exemplar. Zero disables the exemplar log.
func SetSlowThreshold(d time.Duration) { slowNanos.Store(int64(d)) }

// SetLogger sets the slog logger used for slow-trace exemplars.
func SetLogger(l *slog.Logger) {
	loggerMu.Lock()
	logger = l
	loggerMu.Unlock()
}

func slowLogger() *slog.Logger {
	loggerMu.Lock()
	defer loggerMu.Unlock()
	return logger
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. The zero value of *Span
// (nil) is a valid no-op span: all methods are nil-safe.
type Span struct {
	tr      *trace
	id      uint64
	parent  uint64
	tier    string
	name    string
	start   time.Time
	endTime time.Time // guarded by tr.mu, like attrs and errMsg
	attrs   []Attr
	errMsg  string
	ended   atomic.Bool
}

// trace accumulates the spans of one root until the root ends.
type trace struct {
	id      string
	start   time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []*Span
	dropped int
}

func (t *trace) newSpan(parent uint64, tier, name string) *Span {
	sp := &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		tier:   tier,
		name:   name,
		start:  time.Now(),
	}
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
		sp = nil // over the cap: hand back a no-op span
	}
	t.mu.Unlock()
	return sp
}

// StartRoot opens a new trace if the subsystem is enabled. traceID
// names the trace (reuse the request ID so logs, error envelopes and
// traces join); when empty a random ID is generated. Returns (ctx, nil)
// when tracing is off.
func StartRoot(ctx context.Context, tier, name, traceID string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	if traceID == "" {
		traceID = randomID()
	}
	t := &trace{id: traceID, start: time.Now()}
	sp := t.newSpan(0, tier, name)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Start opens a child span of the span carried by ctx. When ctx holds
// no span (tracing off, or no root) it returns (ctx, nil) and
// the caller's deferred End is a no-op.
func Start(ctx context.Context, tier, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(parent.id, tier, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// TraceIDFrom returns the trace ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	if sp := FromContext(ctx); sp != nil {
		return sp.tr.id
	}
	return ""
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetAttrUint is SetAttr for a number. It formats only when the span is
// live, so a hot path can attach a counter without paying a format and
// an allocation per call while tracing is off.
func (s *Span) SetAttrUint(key string, value uint64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatUint(value, 10))
}

// SetError records err on the span (no-op for nil err). Nil-safe.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.errMsg = err.Error()
	s.tr.mu.Unlock()
}

// End finishes the span. Ending the root span finalizes the trace:
// it is snapshotted into the collector ring and, when slower than the
// configured threshold, logged as a slow-trace exemplar. Nil-safe and
// idempotent.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	end := time.Now()
	s.tr.mu.Lock()
	s.endTime = end
	s.tr.mu.Unlock()
	if s.parent == 0 {
		s.tr.finish(end)
	}
}

// SpanData is the immutable snapshot of one completed (or still-open,
// for spans orphaned by an early root End) span.
type SpanData struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Tier     string        `json:"tier"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Err      string        `json:"error,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// TraceData is the immutable snapshot of one completed trace.
type TraceData struct {
	ID       string        `json:"id"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Spans    []SpanData    `json:"spans"`
	Dropped  int           `json:"droppedSpans,omitempty"`
}

// Root returns the root span's tier/name label, or "".
func (td *TraceData) Root() string {
	for _, sp := range td.Spans {
		if sp.Parent == 0 {
			return sp.Tier + ":" + sp.Name
		}
	}
	return ""
}

func (t *trace) finish(end time.Time) {
	t.mu.Lock()
	td := &TraceData{
		ID:       t.id,
		Start:    t.start,
		Duration: end.Sub(t.start),
		Spans:    make([]SpanData, 0, len(t.spans)),
		Dropped:  t.dropped,
	}
	for _, sp := range t.spans {
		d := sp.endTime
		if d.IsZero() {
			d = end // span never ended before the root: clamp to root end
		}
		td.Spans = append(td.Spans, SpanData{
			ID:       sp.id,
			Parent:   sp.parent,
			Tier:     sp.tier,
			Name:     sp.name,
			Start:    sp.start,
			Duration: d.Sub(sp.start),
			Err:      sp.errMsg,
			Attrs:    sp.attrs,
		})
	}
	t.mu.Unlock()
	collector.add(td)
	if slow := slowNanos.Load(); slow > 0 && int64(td.Duration) >= slow {
		if l := slowLogger(); l != nil {
			root := td.Root()
			l.Warn("slow trace",
				slog.String("trace", td.ID),
				slog.String("root", root),
				slog.Duration("duration", td.Duration),
				slog.Int("spans", len(td.Spans)))
		}
	}
}

// approxSize estimates the resident bytes of a retained trace: struct
// headers plus every string the snapshot pins. It only needs to be
// proportional, not exact — the byte budget is a retention bound, not
// an accounting system.
func (td *TraceData) approxSize() int64 {
	n := int64(128 + len(td.ID))
	for i := range td.Spans {
		sp := &td.Spans[i]
		n += int64(112 + len(sp.Tier) + len(sp.Name) + len(sp.Err))
		for _, a := range sp.Attrs {
			n += int64(48 + len(a.Key) + len(a.Value))
		}
	}
	return n
}

var (
	mDropped = metrics.Default.Counter("legalchain_xtrace_dropped_total",
		"Completed traces evicted from the /debug/traces ring by the slot or byte budget.")
	mRingBytes = metrics.Default.Gauge("legalchain_xtrace_ring_bytes",
		"Approximate bytes of completed traces retained for /debug/traces.")
)

// ring is the bounded buffer of completed traces: at most len(buf)
// traces and at most maxBytes of them, whichever bound bites first.
// Evictions (slot reuse or byte-budget trimming) drop the oldest trace.
type ring struct {
	mu     sync.Mutex
	buf    []*TraceData
	next   int   // slot the next trace lands in
	oldest int   // slot of the oldest live trace (valid when live > 0)
	live   int   // live traces in buf
	bytes  int64 // approximate retained bytes
	max    int64 // byte budget (<= 0: slots only)
}

// DefaultMaxBytes is the default byte budget for retained traces.
const DefaultMaxBytes = 4 << 20

var collector = &ring{buf: make([]*TraceData, 256), max: DefaultMaxBytes}

// SetCapacity resizes (and clears) the completed-trace ring.
func SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	collector.mu.Lock()
	collector.buf = make([]*TraceData, n)
	collector.resetLocked()
	collector.mu.Unlock()
}

// SetMaxBytes bounds the approximate memory retained traces may hold;
// the ring evicts oldest-first when a new trace pushes it over. n <= 0
// removes the byte bound (the slot count still applies).
func SetMaxBytes(n int64) {
	collector.mu.Lock()
	collector.max = n
	collector.trimLocked()
	mRingBytes.Set(collector.bytes)
	collector.mu.Unlock()
}

// Reset drops all completed traces (used by tests).
func Reset() {
	collector.mu.Lock()
	for i := range collector.buf {
		collector.buf[i] = nil
	}
	collector.resetLocked()
	collector.mu.Unlock()
}

func (r *ring) resetLocked() {
	r.next, r.oldest, r.live, r.bytes = 0, 0, 0, 0
	mRingBytes.Set(0)
}

// dropOldestLocked evicts the oldest live trace.
func (r *ring) dropOldestLocked() {
	r.bytes -= r.buf[r.oldest].approxSize()
	r.buf[r.oldest] = nil
	r.oldest = (r.oldest + 1) % len(r.buf)
	r.live--
	mDropped.Inc()
}

// trimLocked enforces the byte budget, always keeping the newest trace
// so a single oversized one remains inspectable.
func (r *ring) trimLocked() {
	for r.max > 0 && r.bytes > r.max && r.live > 1 {
		r.dropOldestLocked()
	}
}

func (r *ring) add(td *TraceData) {
	r.mu.Lock()
	if r.buf[r.next] != nil { // wrapped onto the oldest live slot
		r.dropOldestLocked()
	}
	r.buf[r.next] = td
	if r.live == 0 {
		r.oldest = r.next
	}
	r.live++
	r.bytes += td.approxSize()
	r.next = (r.next + 1) % len(r.buf)
	r.trimLocked()
	mRingBytes.Set(r.bytes)
	r.mu.Unlock()
}

// Traces returns the completed traces, newest first.
func Traces() []*TraceData {
	collector.mu.Lock()
	defer collector.mu.Unlock()
	n := len(collector.buf)
	out := make([]*TraceData, 0, n)
	for i := 1; i <= n; i++ {
		td := collector.buf[(collector.next-i+n)%n]
		if td == nil {
			break
		}
		out = append(out, td)
	}
	return out
}

// Lookup returns the completed trace with the given ID, or nil.
func Lookup(id string) *TraceData {
	for _, td := range Traces() {
		if td.ID == id {
			return td
		}
	}
	return nil
}

func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-unknown"
	}
	return hex.EncodeToString(b[:])
}
