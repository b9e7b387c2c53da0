package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
	out := expose(r)
	for _, want := range []string{
		"# TYPE test_ops_total counter", "test_ops_total 5",
		"# TYPE test_depth gauge", "test_depth 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 5.56 || got > 5.57 {
		t.Fatalf("sum = %v", got)
	}
	out := expose(r)
	for _, want := range []string{
		`test_seconds_bucket{le="0.01"} 2`,
		`test_seconds_bucket{le="0.1"} 3`,
		`test_seconds_bucket{le="1"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramQuantile: a quantile interpolates linearly inside the
// bucket its rank falls in, from the bound below (0 below the first);
// a rank in the +Inf bucket answers the highest bound; an empty
// histogram answers NaN.
func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("test_q_seconds", "q", []float64{1, 2, 4})
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty: %v, want NaN", q)
	}
	// Ten observations: four in (0,1], four in (1,2], none in (2,4], two
	// past 4.
	for _, v := range []float64{0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 9, 9} {
		h.Observe(v)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0}, // rank 0: the bottom of the first non-empty bucket
		{0.2, 0.5},
		{0.4, 1},
		{0.5, 1.25},
		{0.8, 2},
		{0.9, 4},
		{1, 4},
	} {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestBucketMonotonicity checks the exposition invariant that bucket
// counts are cumulative and non-decreasing in le order, ending at the
// +Inf bucket == _count, under concurrent observation.
func TestBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "m", DefBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(seed*j%97) / 1000)
			}
		}(i + 1)
	}
	wg.Wait()
	out := expose(r)
	re := regexp.MustCompile(`mono_seconds_bucket\{le="([^"]+)"\} (\d+)`)
	var prev uint64
	var last uint64
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != len(DefBuckets)+1 {
		t.Fatalf("want %d bucket lines, got %d", len(DefBuckets)+1, len(matches))
	}
	for _, m := range matches {
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("bucket le=%s count %d < previous %d", m[1], n, prev)
		}
		prev, last = n, n
	}
	if last != 8000 || h.Count() != 8000 {
		t.Fatalf("+Inf bucket = %d, count = %d, want 8000", last, h.Count())
	}
}

func TestVecsAndLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_errs_total", "errors", "method", "code")
	cv.With("eth_call", "3").Add(2)
	cv.With(`weird"label\with`+"\nnewline", "-32000").Inc()
	hv := r.HistogramVec("test_rpc_seconds", "rpc latency", []float64{0.1}, "method")
	hv.With("eth_call").Observe(0.05)
	out := expose(r)
	for _, want := range []string{
		`test_errs_total{method="eth_call",code="3"} 2`,
		`test_errs_total{method="weird\"label\\with\nnewline",code="-32000"} 1`,
		`test_rpc_seconds_bucket{method="eth_call",le="0.1"} 1`,
		`test_rpc_seconds_count{method="eth_call"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The raw (unescaped) newline must not appear inside any sample line.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "weird") && !strings.Contains(line, `\n`) {
			t.Fatalf("unescaped newline in %q", line)
		}
	}
}

func TestGaugeFuncAndCollector(t *testing.T) {
	r := NewRegistry()
	depth := 3
	r.GaugeFunc("test_pool_depth", "queued", func() float64 { return float64(depth) })
	out := expose(r)
	if !strings.Contains(out, "test_pool_depth 3") {
		t.Fatalf("gauge func missing:\n%s", out)
	}
	depth = 9
	if out = expose(r); !strings.Contains(out, "test_pool_depth 9") {
		t.Fatalf("gauge func not live:\n%s", out)
	}
}

func TestDefaultRegistryRuntimeCollector(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "process_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime collector missing %q", want)
		}
	}
}

func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_gate_total", "gated")
	h := r.Histogram("test_gate_seconds", "gated", nil)
	SetEnabled(false)
	c.Inc()
	h.Observe(1)
	h.ObserveSince(time.Now())
	SetEnabled(true)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled instruments moved: %d %d", c.Value(), h.Count())
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled counter did not move")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "b")
}

func expose(r *Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// BenchmarkHistogramObserve is one observation on a ten-bucket
// histogram, the cost every eth_call pays a few times over.
func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram([]float64{10, 50, 100, 500, 1_000, 5_000, 10_000, 100_000, 1_000_000})
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 4095))
	}
}

// BenchmarkHistogramObserveCallLatency is the eth_call latency
// observation: a few microseconds on the default buckets, all of it in
// the first one.
func BenchmarkHistogramObserveCallLatency(b *testing.B) {
	h := newHistogram(DefBuckets)
	for i := 0; i < b.N; i++ {
		h.Observe(3e-6 + float64(i&7)*1e-7)
	}
}

// TestCounterFunc: a counter computed at scrape time is exposed as a
// counter with the value its function returns then.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 41
	r.CounterFunc("derived_total", "derived", func() uint64 { return n })
	n++
	out := expose(r)
	for _, want := range []string{"# TYPE derived_total counter", "derived_total 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
