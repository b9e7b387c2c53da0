package evm

import (
	"sync"

	"legalchain/internal/ethtypes"
	"legalchain/internal/metrics"
)

// jumpdestBitmap marks the valid jump targets of one piece of bytecode:
// bit pc is set iff code[pc] is a JUMPDEST that is not PUSH data. One
// bit per code byte, immutable once built.
type jumpdestBitmap []uint64

// has reports whether pc is a valid jump target (false past the end).
func (b jumpdestBitmap) has(pc uint64) bool {
	w := pc / 64
	return w < uint64(len(b)) && b[w]>>(pc%64)&1 == 1
}

// mCodeAnalyses counts jumpdest analyses actually performed: one per
// distinct deployed code while it stays cached, one per CREATE.
var mCodeAnalyses = metrics.Default.Counter("legalchain_evm_code_analyses_total",
	"Jumpdest analyses performed (initcode of every CREATE, deployed code on a miss of the code-hash-keyed analysis cache).")

// CodeAnalyses returns how many jumpdest analyses have been performed
// since process start.
func CodeAnalyses() uint64 { return mCodeAnalyses.Value() }

// analyzeJumpdests finds the valid JUMPDEST positions, skipping PUSH data.
func analyzeJumpdests(code []byte) jumpdestBitmap {
	mCodeAnalyses.Inc()
	bits := make(jumpdestBitmap, (len(code)+63)/64)
	for pc := 0; pc < len(code); {
		op := OpCode(code[pc])
		if op == JUMPDEST {
			bits[pc/64] |= 1 << (pc % 64)
		}
		if op.IsPush() {
			pc += int(op-PUSH1) + 2
		} else {
			pc++
		}
	}
	return bits
}

// analysisCacheCap bounds the analysis cache: at most this many distinct
// deployed codes, each costing len(code)/8 bytes (3 KiB at MaxCodeSize),
// so the cache never holds more than 3 MiB.
const analysisCacheCap = 1024

// analysisCache holds the jumpdest bitmap of deployed code, keyed on the
// account's code hash. The analysis is a pure function of the code and
// the hash is keccak(code) (state.SetCode), so an entry can never go
// stale: redeploying different code at an address changes the key, and
// equal code at many addresses (every rental of one version) shares one
// entry. It is process-wide — eth_call, transaction execution, forks,
// tracing and nested calls all run the same immutable bytecode. When
// full, inserting drops one arbitrary entry (map iteration order); a
// dropped entry only costs its next caller a fresh analysis.
var analysisCache = struct {
	sync.RWMutex
	m map[ethtypes.Hash]jumpdestBitmap
}{m: make(map[ethtypes.Hash]jumpdestBitmap)}

// jumpdestsOf returns the jumpdest bitmap of the code deployed at addr
// (code is what State.GetCode(addr) just returned).
func (e *EVM) jumpdestsOf(addr ethtypes.Address, code []byte) jumpdestBitmap {
	hash := e.State.GetCodeHash(addr)
	analysisCache.RLock()
	bits, ok := analysisCache.m[hash]
	analysisCache.RUnlock()
	if ok {
		return bits
	}
	bits = analyzeJumpdests(code)
	analysisCache.Lock()
	if len(analysisCache.m) >= analysisCacheCap {
		for k := range analysisCache.m {
			delete(analysisCache.m, k)
			break
		}
	}
	analysisCache.m[hash] = bits
	analysisCache.Unlock()
	return bits
}
