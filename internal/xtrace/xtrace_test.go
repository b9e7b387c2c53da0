package xtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// withTracing turns the subsystem fully on for one test and restores
// the quiet default afterwards.
func withTracing(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	Reset()
	t.Cleanup(func() {
		SetEnabled(false)
		SetSlowThreshold(0)
		SetLogger(nil)
		Reset()
	})
}

func TestDisabledIsNilSafe(t *testing.T) {
	SetEnabled(false)
	ctx, sp := StartRoot(context.Background(), "http", "GET /", "rid-1")
	if sp != nil {
		t.Fatalf("disabled StartRoot returned a span")
	}
	ctx2, child := Start(ctx, "chain", "call")
	if child != nil || ctx2 != ctx {
		t.Fatalf("Start without a root must be a no-op")
	}
	// All methods must tolerate the nil span.
	child.SetAttr("k", "v")
	child.SetError(errors.New("x"))
	child.End()
	if got := TraceIDFrom(ctx); got != "" {
		t.Fatalf("TraceIDFrom = %q, want empty", got)
	}
}

func TestSpanTreeAndCollection(t *testing.T) {
	withTracing(t)
	ctx, root := StartRoot(context.Background(), "http", "POST /pay", "rid-tree")
	if root == nil {
		t.Fatal("enabled StartRoot returned no span")
	}
	if got := TraceIDFrom(ctx); got != "rid-tree" {
		t.Fatalf("TraceIDFrom = %q", got)
	}
	ctx1, rpc := Start(ctx, "rpc", "eth_sendRawTransaction")
	ctx2, chain := Start(ctx1, "chain", "sendTransaction")
	chain.SetAttr("tx", "0xabc")
	_, db := Start(ctx2, "blockdb", "append")
	db.End()
	chain.End()
	rpc.SetError(errors.New("boom"))
	rpc.End()
	root.End()
	root.End() // idempotent

	traces := Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.ID != "rid-tree" || len(td.Spans) != 4 {
		t.Fatalf("trace = %+v", td)
	}
	byName := map[string]SpanData{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	if byName["POST /pay"].Parent != 0 {
		t.Fatalf("root has parent %d", byName["POST /pay"].Parent)
	}
	if byName["eth_sendRawTransaction"].Parent != byName["POST /pay"].ID {
		t.Fatal("rpc span not parented to root")
	}
	if byName["sendTransaction"].Parent != byName["eth_sendRawTransaction"].ID {
		t.Fatal("chain span not parented to rpc")
	}
	if byName["append"].Parent != byName["sendTransaction"].ID {
		t.Fatal("blockdb span not parented to chain")
	}
	if byName["eth_sendRawTransaction"].Err != "boom" {
		t.Fatalf("err = %q", byName["eth_sendRawTransaction"].Err)
	}
	if got := byName["sendTransaction"].Attrs; len(got) != 1 || got[0].Key != "tx" {
		t.Fatalf("attrs = %+v", got)
	}
	if td.Root() != "http:POST /pay" {
		t.Fatalf("Root() = %q", td.Root())
	}
	if Lookup("rid-tree") == nil || Lookup("nope") != nil {
		t.Fatal("Lookup mismatch")
	}
}

func TestRingBoundAndOrder(t *testing.T) {
	withTracing(t)
	SetCapacity(4)
	t.Cleanup(func() { SetCapacity(256) })
	for i := 0; i < 10; i++ {
		_, sp := StartRoot(context.Background(), "t", "op", string(rune('a'+i)))
		sp.End()
	}
	traces := Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	// Newest first: j, i, h, g.
	want := []string{"j", "i", "h", "g"}
	for i, td := range traces {
		if td.ID != want[i] {
			t.Fatalf("traces[%d] = %q, want %q", i, td.ID, want[i])
		}
	}
}

// emit completes one trace whose root carries a payload-sized attr, so
// its approxSize is dominated by payload.
func emitSized(id string, payload int) {
	_, sp := StartRoot(context.Background(), "test", "sized", id)
	sp.SetAttr("payload", strings.Repeat("x", payload))
	sp.End()
}

func TestRingByteBudget(t *testing.T) {
	withTracing(t)
	SetCapacity(64)
	SetMaxBytes(4096)
	t.Cleanup(func() {
		SetCapacity(256)
		SetMaxBytes(DefaultMaxBytes)
	})

	droppedBefore := mDropped.Value()
	// ~1 KiB per trace against a 4 KiB budget: only the newest few fit.
	for i := 0; i < 8; i++ {
		emitSized("budget-"+strings.Repeat("i", i+1), 1024)
	}
	got := Traces()
	if len(got) == 0 || len(got) >= 8 {
		t.Fatalf("retained %d traces, want a strict byte-bounded subset", len(got))
	}
	// Newest first, and it is the most recent emit.
	if got[0].ID != "budget-"+strings.Repeat("i", 8) {
		t.Fatalf("newest retained = %q", got[0].ID)
	}
	var total int64
	for _, td := range got {
		total += td.approxSize()
	}
	if total > 4096 {
		t.Fatalf("retained %d bytes, budget 4096", total)
	}
	if d := mDropped.Value() - droppedBefore; d != uint64(8-len(got)) {
		t.Fatalf("dropped counter moved by %d, want %d", d, 8-len(got))
	}

	// A single trace larger than the whole budget is still retained, so
	// the newest evidence is never thrown away.
	emitSized("budget-oversize", 8192)
	got = Traces()
	if len(got) != 1 || got[0].ID != "budget-oversize" {
		t.Fatalf("oversized trace handling: %d retained, newest %q", len(got), got[0].ID)
	}
}

func TestRingByteBudgetDisabled(t *testing.T) {
	withTracing(t)
	SetCapacity(16)
	SetMaxBytes(0) // slots-only bound
	t.Cleanup(func() {
		SetCapacity(256)
		SetMaxBytes(DefaultMaxBytes)
	})
	for i := 0; i < 16; i++ {
		emitSized("nolimit", 1024)
	}
	if got := Traces(); len(got) != 16 {
		t.Fatalf("retained %d, want all 16 with the byte bound off", len(got))
	}
}

func TestSpanCapDropsButCounts(t *testing.T) {
	withTracing(t)
	ctx, root := StartRoot(context.Background(), "t", "op", "cap")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := Start(ctx, "t", "child")
		sp.End()
	}
	root.End()
	td := Lookup("cap")
	if td == nil {
		t.Fatal("trace missing")
	}
	if len(td.Spans) != maxSpansPerTrace || td.Dropped != 11 {
		t.Fatalf("spans=%d dropped=%d", len(td.Spans), td.Dropped)
	}
}

func TestSlowTraceExemplar(t *testing.T) {
	withTracing(t)
	var buf bytes.Buffer
	SetLogger(slog.New(slog.NewJSONHandler(&buf, nil)))
	SetSlowThreshold(time.Nanosecond) // everything is slow
	_, sp := StartRoot(context.Background(), "http", "GET /slow", "rid-slow")
	time.Sleep(time.Millisecond)
	sp.End()
	if !strings.Contains(buf.String(), "slow trace") || !strings.Contains(buf.String(), "rid-slow") {
		t.Fatalf("no exemplar logged: %s", buf.String())
	}
	buf.Reset()
	SetSlowThreshold(time.Hour)
	_, sp = StartRoot(context.Background(), "http", "GET /fast", "rid-fast")
	sp.End()
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %s", buf.String())
	}
}

func TestHandlerListAndDetail(t *testing.T) {
	withTracing(t)
	ctx, root := StartRoot(context.Background(), "http", "GET /x", "rid-h")
	_, child := Start(ctx, "chain", "call")
	child.End()
	root.End()

	h := Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Traces []struct {
			ID    string `json:"id"`
			Root  string `json:"root"`
			Spans int    `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != "rid-h" || list.Traces[0].Spans != 2 {
		t.Fatalf("list = %+v", list)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/rid-h", nil))
	var td TraceData
	if err := json.Unmarshal(rec.Body.Bytes(), &td); err != nil {
		t.Fatalf("detail not JSON: %v", err)
	}
	if td.ID != "rid-h" || len(td.Spans) != 2 {
		t.Fatalf("detail = %+v", td)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/unknown", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace: code %d", rec.Code)
	}
}

// TestChromeExportValidates checks the /debug/traces/chrome output is
// valid Chrome trace_event JSON: a traceEvents array of complete ("X")
// events with microsecond ts/dur, plus process_name metadata.
func TestChromeExportValidates(t *testing.T) {
	withTracing(t)
	ctx, root := StartRoot(context.Background(), "http", "POST /pay", "rid-chrome")
	_, child := Start(ctx, "chain", "sendTransaction")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/chrome", nil))
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Ts <= 0 || ev.Pid <= 0 {
				t.Fatalf("bad complete event: %+v", ev)
			}
			if ev.Name == "sendTransaction" {
				if ev.Cat != "chain" || ev.Dur < 900 { // slept 1ms ≈ 1000µs
					t.Fatalf("span event wrong: %+v", ev)
				}
				if ev.Args["parent"] == nil || ev.Args["trace"] != "rid-chrome" {
					t.Fatalf("span args wrong: %+v", ev.Args)
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 1 || complete != 2 {
		t.Fatalf("meta=%d complete=%d", meta, complete)
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	withTracing(t)
	ctx, root := StartRoot(context.Background(), "t", "op", "conc")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				_, sp := Start(ctx, "t", "child")
				sp.SetAttr("j", "x")
				sp.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	if td := Lookup("conc"); td == nil || len(td.Spans) != 401 {
		t.Fatalf("got %+v", td)
	}
}
