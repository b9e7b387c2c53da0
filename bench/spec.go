package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// BENCHMARK.json at the root of the checkout is the single list of
// workload and metric names, units and bounds; the driver reads it at
// start and refuses to emit a name it does not hold.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: %s name %q has characters outside letters, digits, _ . -", path, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q is used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range s.all() {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// metrics returns the end-to-end list for an untraced run and the
// per-layer list for a traced one.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) all() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

func (s *benchSpec) find(name string) (metricSpec, bool) {
	for _, m := range s.all() {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
