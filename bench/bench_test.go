package main

import (
	"math"
	"testing"
)

// toy runs one workload at toy size (one lifecycle per client, two
// blocks, 300 ms) with tracing on, which reports the end-to-end and the
// per-layer metrics at once.
func toy(t *testing.T, spec *benchSpec, workload string) *run {
	t.Helper()
	r, _, err := execute(spec, config{
		workload: workload, seed: 1, seconds: 0.3, trace: true,
		setups: 1, reopens: 1, probes: 5, dir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, r.failed, r.attempted, r.failures)
	}
	return r
}

// TestSpecAndWorkloadsAgree runs every workload BENCHMARK.json names and
// fails if a listed metric is reported by none of them, if an end-to-end
// metric is missing from any of them, or if the lifecycle budget does not
// add up. execute itself refuses a reported name the file does not list,
// and loadSpec a name with characters outside letters, digits, _ . -.
func TestSpecAndWorkloadsAgree(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	reported := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the driver does not have", w.Name)
			continue
		}
		r := toy(t, spec, w.Name)
		for name := range r.values {
			reported[name] = true
		}
		for _, m := range spec.EndToEnd {
			if v, ok := r.values[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.Name, m.Name, v)
			}
		}
		if len(r.budget) > 0 {
			var sum float64
			for _, row := range r.budget {
				sum += row.Ms
			}
			wall := r.budgetWallMs
			if wall <= 0 || math.Abs(sum-wall)/wall > 0.02 {
				t.Errorf("%s: budget rows sum to %.3f ms, traced lifecycle wall-clock is %.3f ms", w.Name, sum, wall)
			}
		} else if w.Name == "lifecycle_mem" || w.Name == "lifecycle_durable" {
			t.Errorf("%s: no budget table", w.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if !reported[m.Name] {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no workload reports it", m.Name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	s := func(q1, med, q3 float64) map[string]float64 {
		return map[string]float64{"q1": q1, "median": med, "q3": q3}
	}
	for _, c := range []struct {
		m    metricSpec
		a, b map[string]float64
		want string
	}{
		{higher, s(99, 100, 101), s(94, 95, 96), "ok"},
		{higher, s(99, 100, 101), s(84, 85, 86), "regressed"},
		{higher, s(99, 100, 101), s(119, 120, 121), "ok"},
		{lower, s(9.9, 10, 10.1), s(11.4, 11.5, 11.6), "regressed"},
		{lower, s(9.9, 10, 10.1), s(8, 8.1, 8.2), "ok"},
		{lower, s(9, 10, 11.5), s(11.4, 11.5, 11.6), "unresolved"},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
