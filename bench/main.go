// Command bench is the repository benchmark named by BENCHMARK.json: five
// rental-platform workloads measured from outside the program, by timing
// calls into the exported functions of legalchain/internal/....
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload, in this process
//	bench [-seed N] [-seconds S] [-trace 0|1] [-repeat R [-vary-seed]] [-out F]
//	                                                  every workload, each in a fresh subprocess
//	bench -compare a.json b.json                      judge two result files against the bounds
//
// The last line of standard output of a one-workload run is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

const specPath = "BENCHMARK.json"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (empty: all, each in a subprocess)")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 0, "length of the measured part (0: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: tracing off, end-to-end metrics; 1: spans and probes on, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1 and -workload: write the span file here")
		repeat   = flag.Int("repeat", 1, "run this many full sets and report median and quartiles")
		varySeed = flag.Bool("vary-seed", false, "with -repeat: set k runs with seed+k, the way the acceptance check varies it")
		out      = flag.String("out", "", "also write the JSON document here")
		compare  = flag.Bool("compare", false, "compare two JSON documents written by this command: -compare a.json b.json")
	)
	flag.Parse()
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal("%v (run from the root of the checkout)", err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("-compare takes two result files")
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(runOne(spec, fullSize(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}), *traceOut))
	default:
		os.Exit(runAll(spec, *seed, *seconds, *trace, *repeat, *varySeed, *out))
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

var workloads = map[string]func(*run) error{
	"lifecycle_mem":     func(r *run) error { return runLifecycle(r, false) },
	"lifecycle_durable": func(r *run) error { return runLifecycle(r, true) },
	"mine_batch":        runMine,
	"serve_mix":         runServe,
	"audit_deep":        runAudit,
}

// result is what one run of one workload reports, and the shape of the
// last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload in this process and checks what it set
// against the spec: every listed metric is reported (a per-layer metric
// the workload does not exercise reads 0), and nothing unlisted is.
func execute(spec *benchSpec, cfg config) (*run, *result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := newRun(cfg)
	if err := fn(r); err != nil {
		return r, nil, err
	}
	r.set("peak_rss_mb", peakRSSMiB())
	// The three end-to-end timings are reported at the reference host
	// speed (host.go); everything per-layer stays as measured.
	speed := r.host.speed()
	r.set("bench.host_speed.ratio", speed)
	r.values["ops_per_s"] /= speed
	r.values["op_p50_ms"] *= speed
	r.values["setup_s"] *= speed
	for name := range r.values {
		if _, ok := spec.find(name); !ok {
			return r, nil, fmt.Errorf("workload set %q, which BENCHMARK.json does not list", name)
		}
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range spec.metrics(cfg.trace) {
		v, ok := r.values[m.Name]
		if !ok && !cfg.trace {
			return r, nil, fmt.Errorf("workload %s did not report end-to-end metric %s", cfg.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return r, res, nil
}

// runOne is the driver protocol: human-readable lines first, the result
// object last. A failed correctness check is a non-zero exit.
func runOne(spec *benchSpec, cfg config, traceOut string) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal("%v", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	// From here on errors return, so that the scratch directory goes.
	fail := func(format string, args ...interface{}) int {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		return 2
	}

	r, res, err := execute(spec, cfg)
	if err != nil {
		return fail("%s: %v", cfg.workload, err)
	}
	header := hostHeader(cfg)
	for k, v := range r.info {
		header[k] = v
	}
	printJSONLine("# host ", header)
	for _, m := range spec.metrics(cfg.trace) {
		fmt.Printf("%s %s %v %s\n", cfg.workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, name := range r.rec.names() {
		s := r.rec.sorted(name)
		line := fmt.Sprintf("# samples %s n=%d p50=%.4gms", name, len(s), quantileOf(s, 0.5))
		if label, v, ok := tailOf(s); ok {
			line += fmt.Sprintf(" %s=%.4gms", label, v)
		}
		fmt.Println(line)
	}
	if len(r.budget) > 0 {
		var sum float64
		for _, row := range r.budget {
			sum += row.Ms
		}
		for _, row := range r.budget {
			fmt.Printf("# budget %-26s %9.3f ms/lifecycle %5.1f%%\n", row.Layer, row.Ms, 100*row.Ms/sum)
		}
		fmt.Printf("# budget %-26s %9.3f ms/lifecycle (traced lifecycle wall-clock %.3f ms)\n", "sum", sum, r.budgetWallMs)
		printJSONLine("# budget-json ", r.budget)
	}
	for _, f := range r.failures {
		fmt.Println("# failed:", f)
	}
	fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n", cfg.workload, res.Attempted, cfg.workload, res.Failed)
	if traceOut != "" && len(r.tracers) > 0 {
		if err := writeSpans(traceOut, header, r.tracers); err != nil {
			return fail("writing %s: %v", traceOut, err)
		}
	}
	printJSONLine("", res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSONLine(prefix string, v interface{}) {
	buf, err := json.Marshal(v)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s%s\n", prefix, buf)
}

// hostHeader says where and on what the numbers were taken.
func hostHeader(cfg config) map[string]interface{} {
	h := map[string]interface{}{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     "unknown",
		"commit":     "unknown",
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
	if cfg.workload != "" {
		h["workload"] = cfg.workload
		h["setups"] = cfg.setups
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(raw))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value
			}
		}
	}
	return h
}

// --- every workload, each in a fresh subprocess --------------------------------

// document is what runAll prints and -compare reads.
type document struct {
	Host    map[string]interface{}                   `json:"host"`
	Sets    []map[string]*result                     `json:"sets"`            // per set: workload → result
	Info    map[string]map[string]interface{}        `json:"info"`            // workload → its "# host" line
	Budget  map[string][]budgetRow                   `json:"budget"`          // traced lifecycle workloads
	Summary map[string]map[string]map[string]float64 `json:"summary"`         // workload → metric → median, q1, q3, n
	Order   []string                                 `json:"workload_order"`  // as BENCHMARK.json lists them
	Units   map[string]string                        `json:"units,omitempty"` // metric → unit
}

func runAll(spec *benchSpec, seed int64, seconds float64, trace, repeat int, varySeed bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	doc := &document{
		Host: hostHeader(config{seed: seed, seconds: seconds, trace: trace == 1}),
		Info: map[string]map[string]interface{}{}, Budget: map[string][]budgetRow{}, Units: map[string]string{},
	}
	doc.Host["repeat"] = repeat
	doc.Host["vary_seed"] = varySeed
	for _, m := range spec.metrics(trace == 1) {
		doc.Units[m.Name] = m.Unit
	}
	exit := 0
	for set := 0; set < repeat; set++ {
		results := map[string]*result{}
		for _, w := range spec.Workloads {
			if set == 0 {
				doc.Order = append(doc.Order, w.Name)
			}
			// A fresh process per workload: its own peak RSS, its own
			// metrics registry, cold caches.
			runSeed := seed
			if varySeed {
				runSeed += int64(set)
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(runSeed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				fatal("%s: no result (%v)", w.Name, err)
			}
			if err != nil {
				exit = 1
			}
			results[w.Name] = &res
			for _, line := range lines[:len(lines)-1] {
				switch {
				case strings.HasPrefix(line, "# host "):
					var info map[string]interface{}
					if json.Unmarshal([]byte(line[len("# host "):]), &info) == nil {
						doc.Info[w.Name] = info
					}
				case strings.HasPrefix(line, "# budget-json "):
					var rows []budgetRow
					if json.Unmarshal([]byte(line[len("# budget-json "):]), &rows) == nil {
						doc.Budget[w.Name] = rows
					}
				case !strings.HasPrefix(line, "# samples"):
					fmt.Println(line)
				}
			}
		}
		doc.Sets = append(doc.Sets, results)
	}
	doc.summarise(spec, trace == 1)
	if repeat > 1 {
		for _, w := range doc.Order {
			for _, m := range spec.metrics(trace == 1) {
				s := doc.Summary[w][m.Name]
				fmt.Printf("%s %s median %v q1 %v q3 %v %s n=%d\n", w, m.Name, s["median"], s["q1"], s["q3"], m.Unit, int(s["n"]))
			}
		}
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(buf))
	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	return exit
}

// summarise fills in median and quartiles per (workload, metric) over
// the sets. Quartiles need two values; with one set they equal it.
func (d *document) summarise(spec *benchSpec, trace bool) {
	d.Summary = map[string]map[string]map[string]float64{}
	for _, w := range d.Order {
		d.Summary[w] = map[string]map[string]float64{}
		for _, m := range spec.metrics(trace) {
			var xs []float64
			for _, set := range d.Sets {
				if res := set[w]; res != nil {
					if v, ok := res.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
			}
			if len(xs) == 0 {
				continue
			}
			sort.Float64s(xs)
			s := map[string]float64{"n": float64(len(xs)), "median": medianOf(xs), "q1": xs[0], "q3": xs[len(xs)-1]}
			if len(xs) >= 2 {
				s["q1"], s["median"], s["q3"] = quartiles(xs)
			}
			d.Summary[w][m.Name] = s
		}
	}
}
