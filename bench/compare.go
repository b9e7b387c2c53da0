package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles judges every pairing of workload and end-to-end metric in
// b against a: "regressed" when b's median is worse than a's by more
// than the metric's bound, "unresolved" when either side's own spread
// (third minus first quartile, as a share of its median) is wider than
// the bound, so that a difference of that size could be noise, "ok"
// otherwise. It returns the exit code: 1 when anything regressed.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readDocument(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readDocument(pathB)
	if err != nil {
		fatal("%v", err)
	}
	counts := map[string]int{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := a.Summary[w.Name][m.Name], b.Summary[w.Name][m.Name]
			if sa == nil || sb == nil {
				continue
			}
			verdict, delta := judge(m, sa, sb)
			counts[verdict]++
			fmt.Printf("%-18s %-14s %12.5g -> %12.5g %s  %+6.2f%% (bound %.0f%%, spread %.1f%% / %.1f%%)  %s\n",
				w.Name, m.Name, sa["median"], sb["median"], m.Unit, 100*delta, 100*m.Bound,
				100*spreadOf(sa), 100*spreadOf(sb), verdict)
		}
	}
	fmt.Printf("%d ok, %d unresolved, %d regressed\n", counts["ok"], counts["unresolved"], counts["regressed"])
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}

// judge returns the verdict and b's change as a share of a's median,
// signed so that positive is worse.
func judge(m metricSpec, a, b map[string]float64) (string, float64) {
	worse := (b["median"] - a["median"]) / a["median"]
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spreadOf(a) > m.Bound || spreadOf(b) > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "regressed", worse
	}
	return "ok", worse
}

func spreadOf(s map[string]float64) float64 {
	if s["median"] == 0 {
		return 0
	}
	return (s["q3"] - s["q1"]) / s["median"]
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Summary == nil {
		return nil, fmt.Errorf("%s: no summary block; is it a document written by this command?", path)
	}
	return &d, nil
}
