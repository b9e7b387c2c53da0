package main

import (
	"crypto/sha256"
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a small guest on shared hardware:
// the same pure-CPU loop takes 0.7 to 1.2 s from one second to the next,
// and its ten-second average drifts by a fifth over minutes, process CPU
// time drifting with it. No estimator inside a run removes a drift that
// outlasts the run, so the run measures the host as well: every client
// goroutine interleaves short bursts of a fixed loop that uses nothing
// of this repository (math/big, SHA-256, a map: the standard library
// only, so no change to the program can move it), and the end-to-end
// timings are reported at the speed the bursts say the host had,
// relative to a reference fixed below. Interleaved at a quarter of a
// second, host speed cancels: over ten-second windows the quartile spread
// of a signature-recovery loop fell from 8 % to 3 %, of an eth_call+JSON
// loop from 10 % to 3 %. The raw numbers stay available: the per-layer
// metrics are not adjusted, and bench.host_speed.ratio is the factor.

const (
	burstIterations = 5000
	// referenceBurstMs is how long one burst takes on the reference
	// host: this host on a typical afternoon. It only fixes the unit.
	referenceBurstMs = 30.0
	// burstEvery is how much workload time a client lets pass between
	// two bursts.
	burstEvery = 250 * time.Millisecond
)

var burstSink atomic.Uint64 // keeps the loop's result alive

// hostClock accumulates the bursts of one run.
type hostClock struct {
	mu     sync.Mutex
	bursts int
	ms     float64
}

// burst runs the fixed loop on the calling goroutine and returns how
// long it took, so that the caller can leave it out of its own timing.
func (h *hostClock) burst() time.Duration {
	t0 := time.Now()
	p, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	x := big.NewInt(1234567)
	var digest [32]byte
	seen := map[string][]byte{}
	for i := 0; i < burstIterations; i++ {
		x.Mul(x, x).Add(x, big.NewInt(int64(i))).Mod(x, p)
		inv := new(big.Int).ModInverse(x, p)
		digest = sha256.Sum256(append(digest[:], inv.Bytes()...))
		seen[string(digest[:4])] = inv.Bytes()
	}
	d := time.Since(t0)
	burstSink.Add(uint64(digest[0]))
	h.mu.Lock()
	h.bursts++
	h.ms += float64(d.Nanoseconds()) / 1e6
	h.mu.Unlock()
	return d
}

// pacer lets one goroutine burst every burstEvery of its own workload
// time; paused is the total it spent in bursts.
type pacer struct {
	host   *hostClock
	last   time.Time
	paused time.Duration
}

func (h *hostClock) pacer() *pacer { return &pacer{host: h, last: time.Now()} }

// tick runs a burst if one is due. Call it between operations.
func (p *pacer) tick() {
	if time.Since(p.last) < burstEvery {
		return
	}
	p.paused += p.host.burst()
	p.last = time.Now()
}

// speed is the host's speed during the run relative to the reference:
// below 1 the host was slower. With no burst taken it is 1.
func (h *hostClock) speed() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bursts == 0 {
		return 1
	}
	return referenceBurstMs * float64(h.bursts) / h.ms
}
