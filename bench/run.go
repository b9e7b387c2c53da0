package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/metrics"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured part; fixed-work workloads derive their size from it
	trace    bool
	setups   int    // how many times the set-up is built; the median is reported
	reopens  int    // lifecycle_durable: restarts from the crash image; the median is reported
	probes   int    // traced runs: iterations of each single-layer probe
	dir      string // scratch directory inside the checkout, for durable data
}

// fullSize is what the command line runs; the test shrinks it.
func fullSize(cfg config) config {
	cfg.setups, cfg.reopens, cfg.probes = 3, 5, 200
	return cfg
}

// Fixed-work sizes per second of -seconds. The constants are what this
// 2-core host completes in about one second, so a run measures for
// about -seconds; they are part of the benchmark, not tuned per run.
const (
	lifecyclesPerClientSecond        = 3.4 // lifecycle_mem
	durableLifecyclesPerClientSecond = 3.2 // lifecycle_durable
	blocksPerSecond                  = 6   // mine_batch
)

func scaled(perSecond, seconds float64) int {
	n := int(math.Round(perSecond * seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// run carries what every workload reports: metric values by name, the
// operation counts, the correctness verdict, and free-form facts for
// the host header (sizes, fsync policy, durable-state mode).
type run struct {
	cfg  config
	rec  *recorder
	host *hostClock

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // first few failure messages, for the human report
	values    map[string]float64
	info      map[string]interface{}
	tracers   []*tracer
	// Lifecycle workloads, traced runs only: the budget table and the
	// traced lifecycles' mean wall-clock its rows must add up to.
	budget       []budgetRow
	budgetWallMs float64
}

// budgetRow is one line of the per-lifecycle budget: a layer's self time
// per traced lifecycle.
type budgetRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms_per_lifecycle"`
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, rec: newRecorder(), host: &hostClock{}, values: map[string]float64{}, info: map[string]interface{}{}}
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *run) note(key string, v interface{}) {
	r.mu.Lock()
	r.info[key] = v
	r.mu.Unlock()
}

// check counts one attempted operation or oracle check and, when it did
// not hold, one failure.
func (r *run) check(ok bool, format string, args ...interface{}) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// op runs one timed user operation: it counts as attempted, and gives a
// latency sample under name only when it succeeds.
func (r *run) op(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if r.check(err == nil, "%s: %v", name, err) {
		r.rec.add(name, d)
	}
	return err
}

// setTiming publishes the quantile q of the samples under op as metric
// name, scaled from milliseconds by unitsPerMs (1000 for µs).
func (r *run) setTiming(name, op string, q, unitsPerMs float64) {
	r.set(name, r.rec.quantile(op, q)*unitsPerMs)
}

// setUp builds a workload's environment cfg.setups times over, closing
// each before building the next, reports the median build time as
// setup_s and returns the last one to be measured on. It ends with a
// garbage collection, so that the timed part starts from the same heap
// state in every run and peak RSS does not depend on where the
// collector's cycle happened to stand.
func setUp[E interface{ close() }](r *run, build func(k int) (E, error)) (E, error) {
	var env E
	var ms []float64
	for k := 0; k < r.cfg.setups; k++ {
		if k > 0 {
			env.close()
		}
		r.host.burst()
		t0 := time.Now()
		var err error
		if env, err = build(k); err != nil {
			return env, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	r.set("setup_s", medianOf(ms)/1e3)
	runtime.GC()
	return env, nil
}

// --- seeded inputs -----------------------------------------------------------

// inputs derives everything a workload feeds the program from the seed:
// accounts, terms, document bytes, operation order. The program sees
// only the resulting transactions and requests.
type inputs struct {
	accounts []wallet.Account
	ks       *wallet.Keystore
	genesis  *chain.Genesis
}

func newInputs(cfg config, accounts int) *inputs {
	in := &inputs{
		accounts: wallet.DevAccounts(fmt.Sprintf("bench/%s/%d", cfg.workload, cfg.seed), accounts),
		ks:       wallet.NewKeystore(),
		genesis:  chain.DefaultGenesis(),
	}
	for _, a := range in.accounts {
		in.ks.Import(a.Key)
	}
	in.genesis.Alloc = wallet.DevAlloc(in.accounts, ethtypes.Ether(1_000_000_000))
	return in
}

// rngFor gives each client goroutine its own generator, so the inputs do
// not depend on how the goroutines interleave.
func rngFor(cfg config, stream int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.seed*7919 + int64(stream)))
}

const legalDocBytes = 2048

func legalDoc(rng *rand.Rand) []byte {
	doc := make([]byte, legalDocBytes)
	copy(doc, "%PDF-1.4 ")
	for i := 9; i < len(doc); i++ {
		doc[i] = byte(' ' + rng.Intn(95))
	}
	return doc
}

func rentalTerms(rng *rand.Rand) core.RentalTerms {
	rent := int64(1 + rng.Intn(3))
	return core.RentalTerms{
		Rent: ethtypes.Ether(rent), Deposit: ethtypes.Ether(2 * rent),
		Months:   uint64(12 + rng.Intn(24)),
		House:    fmt.Sprintf("%05d-Berlin-%02d", 10000+rng.Intn(90000), rng.Intn(100)),
		LegalDoc: legalDoc(rng),
	}
}

// amendedTerms keeps rent and deposit (so the running payments stay
// valid) and adds the Fig. 6 clauses.
func amendedTerms(t core.RentalTerms, rng *rand.Rand) core.ModifiedTerms {
	return core.ModifiedTerms{
		Rent: t.Rent, Deposit: t.Deposit, Months: t.Months, House: t.House,
		MaintenanceFee: ethtypes.Ether(1), Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		LegalDoc: legalDoc(rng),
	}
}

// --- reading the chain after the timed part ---------------------------------------

// chainTally is what the sealed blocks (from, to] say happened.
type chainTally struct {
	blocks   int
	txs      int
	failed   int                         // receipts with a failure status
	gasBy    map[ethtypes.Address]uint64 // receipt GasUsed summed per sender
	raw      [][]byte                    // signed transactions as submitted, for the probes
	maxBlock int                         // most transactions in one block
}

func tallyBlocks(bc *chain.Blockchain, from, to uint64, keepRaw int) chainTally {
	t := chainTally{gasBy: map[ethtypes.Address]uint64{}}
	v := bc.View()
	for n := from + 1; n <= to; n++ {
		b, ok := v.BlockByNumber(n)
		if !ok {
			continue
		}
		t.blocks++
		if len(b.Transactions) > t.maxBlock {
			t.maxBlock = len(b.Transactions)
		}
		for _, tx := range b.Transactions {
			if len(t.raw) < keepRaw {
				t.raw = append(t.raw, tx.Encode())
			}
		}
		for _, rc := range v.ReceiptsOf(n) {
			t.txs++
			t.gasBy[rc.From] += rc.GasUsed
			if !rc.Succeeded() {
				t.failed++
			}
		}
	}
	return t
}

// scrape reads the process's default metrics registry (read only) into
// name → value; labelled series keep their label text in the key.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	metrics.Default.WritePrometheus(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// --- process and files ----------------------------------------------------------

// peakRSSMiB is VmHWM of this process.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
