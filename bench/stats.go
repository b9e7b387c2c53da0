package main

import (
	"sort"
	"sync"
	"time"
)

// recorder keeps every latency sample of a run, by operation name, in
// milliseconds. A failed operation contributes no sample.
type recorder struct {
	mu sync.Mutex
	ms map[string][]float64
}

func newRecorder() *recorder { return &recorder{ms: map[string][]float64{}} }

func (r *recorder) add(name string, d time.Duration) {
	v := float64(d.Nanoseconds()) / 1e6
	r.mu.Lock()
	r.ms[name] = append(r.ms[name], v)
	r.mu.Unlock()
}

// inOrder returns a copy of the samples under name, oldest first.
func (r *recorder) inOrder(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.ms[name]...)
}

// sorted returns a sorted copy of the samples recorded under name.
func (r *recorder) sorted(name string) []float64 {
	out := r.inOrder(name)
	sort.Float64s(out)
	return out
}

func (r *recorder) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ms[name])
}

func (r *recorder) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.ms))
	for n := range r.ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// quantile is the q-th quantile (0..1) of the samples under name, in
// milliseconds; 0 when there are none.
func (r *recorder) quantile(name string, q float64) float64 {
	return quantileOf(r.sorted(name), q)
}

func (r *recorder) sum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s float64
	for _, v := range r.ms[name] {
		s += v
	}
	return s
}

// quantileOf interpolates linearly between the two nearest ranks.
func quantileOf(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileOf(s, 0.5)
}

// tailOf picks the highest of p90/p95/p99/p99.9 that still has at least
// ten samples beyond it, and returns its label and value; ok is false
// when even p90 has fewer (n < 100).
func tailOf(sorted []float64) (label string, value float64, ok bool) {
	n := float64(len(sorted))
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if n*(1-t.q) >= 10 {
			return t.label, quantileOf(sorted, t.q), true
		}
	}
	return "", 0, false
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method),
// which is what the acceptance rule for this benchmark is written in.
// It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
