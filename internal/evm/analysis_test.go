package evm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// referenceJumpdests is the straightforward analysis the bitmap replaced:
// the set of positions holding a JUMPDEST that is not PUSH data.
func referenceJumpdests(code []byte) map[uint64]bool {
	dests := map[uint64]bool{}
	for pc := 0; pc < len(code); {
		op := code[pc]
		switch {
		case op == byte(JUMPDEST):
			dests[uint64(pc)] = true
			pc++
		case op >= byte(PUSH1) && op <= byte(PUSH32):
			pc += int(op-byte(PUSH1)) + 2
		default:
			pc++
		}
	}
	return dests
}

func checkAgainstReference(t *testing.T, name string, code []byte) {
	t.Helper()
	bits := analyzeJumpdests(code)
	want := referenceJumpdests(code)
	// Every position of the code plus a margin past its end.
	for pc := uint64(0); pc < uint64(len(code))+130; pc++ {
		if bits.has(pc) != want[pc] {
			t.Fatalf("%s: pc %d: bitmap %v, reference %v", name, pc, bits.has(pc), want[pc])
		}
	}
	for _, pc := range []uint64{1 << 20, 1 << 32, 1<<64 - 1} {
		if bits.has(pc) {
			t.Fatalf("%s: pc %d past the code reported as a jump target", name, pc)
		}
	}
}

func TestJumpdestBitmapMatchesReference(t *testing.T) {
	big := make([]byte, MaxCodeSize)
	rng := rand.New(rand.NewSource(16))
	rng.Read(big)
	cases := map[string][]byte{
		"empty":            nil,
		"single jumpdest":  {byte(JUMPDEST)},
		"5b in push data":  {byte(PUSH1), 0x5b, byte(JUMPDEST), byte(PUSH2), 0x5b, 0x5b, byte(JUMPDEST)},
		"push32 of 5b":     append(append([]byte{byte(PUSH32)}, make5b(32)...), byte(JUMPDEST)),
		"truncated push":   {byte(JUMPDEST), byte(PUSH32), 0x5b, 0x5b},
		"push is last":     {byte(JUMPDEST), byte(PUSH1)},
		"word boundary":    append(make([]byte, 63), byte(JUMPDEST), byte(JUMPDEST)),
		"24 KiB random":    big,
		"24 KiB jumpdests": make5b(MaxCodeSize),
	}
	for name, code := range cases {
		checkAgainstReference(t, name, code)
	}
	for i := 0; i < 500; i++ {
		code := make([]byte, rng.Intn(300))
		rng.Read(code)
		// Bias towards the interesting bytes.
		for j := range code {
			switch rng.Intn(6) {
			case 0:
				code[j] = byte(JUMPDEST)
			case 1:
				code[j] = byte(PUSH1) + byte(rng.Intn(32))
			}
		}
		checkAgainstReference(t, "random", code)
	}
}

// FuzzJumpdestBitmap checks the bitmap against the reference analysis
// on arbitrary bytecode, at every position and past the end.
func FuzzJumpdestBitmap(f *testing.F) {
	f.Fuzz(func(t *testing.T, code []byte) {
		checkAgainstReference(t, "fuzz", code)
	})
}

func make5b(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(JUMPDEST)
	}
	return b
}

// jumpTo4 returns code that jumps to position 4 and returns 1 from there.
// With jumpdestAt4 the byte at 4 is a JUMPDEST; without, position 4 is
// the data byte 0x5b of a PUSH1, so the same jump must fail.
func jumpTo4(jumpdestAt4 bool) []byte {
	a := &asm{}
	a.push(4).op(JUMP) // pc 0..2
	if jumpdestAt4 {
		a.op(STOP)     // pc 3
		a.op(JUMPDEST) // pc 4
	} else {
		a.op(PUSH1)                   // pc 3
		a.code = append(a.code, 0x5b) // pc 4: push data
	}
	a.push(1)
	return a.returnTop()
}

// TestAnalysisCacheSharesEqualCode: two addresses holding the same code
// are analysed once between them, and calls through both stay correct.
func TestAnalysisCacheSharesEqualCode(t *testing.T) {
	e, st := testEVM()
	// Unique to this test so no other test has cached it already.
	code := append(jumpTo4(true), []byte("TestAnalysisCacheSharesEqualCode")...)
	deployRaw(st, addrOf(1), code)
	deployRaw(st, addrOf(2), code)
	before := CodeAnalyses()
	for i := 0; i < 3; i++ {
		for _, to := range []ethtypes.Address{addrOf(1), addrOf(2)} {
			ret, _, err := e.Call(addrOf(9), to, nil, 100_000, uint256.Zero)
			if err != nil || uint256.SetBytes(ret).Uint64() != 1 {
				t.Fatalf("call %s: ret %x err %v", to, ret, err)
			}
		}
	}
	if n := CodeAnalyses() - before; n != 1 {
		t.Fatalf("6 calls into one code at two addresses ran %d analyses, want 1", n)
	}
}

// TestAnalysisCacheFollowsRedeploy: replacing the code at an address is
// never served the old code's analysis, in either direction.
func TestAnalysisCacheFollowsRedeploy(t *testing.T) {
	e, st := testEVM()
	target := addrOf(3)
	for i := 0; i < 4; i++ {
		valid := i%2 == 0
		deployRaw(st, target, jumpTo4(valid))
		_, _, err := e.Call(addrOf(9), target, nil, 100_000, uint256.Zero)
		if valid && err != nil {
			t.Fatalf("round %d: valid jump failed: %v", i, err)
		}
		if !valid && !errors.Is(err, ErrInvalidJump) {
			t.Fatalf("round %d: jump into push data: err %v, want ErrInvalidJump", i, err)
		}
	}
}

// TestInitcodeAnalysedPerCreateNotCached: initcode runs once, so every
// CREATE analyses its own and leaves the cache alone.
func TestInitcodeAnalysedPerCreateNotCached(t *testing.T) {
	e, st := testEVM()
	st.AddBalance(addrOf(9), uint256.NewUint64(1))
	initCode := (&asm{}).op(JUMPDEST).push(0).push(0).op(RETURN).code
	cached := analysisCacheLen()
	before := CodeAnalyses()
	for i := 0; i < 3; i++ {
		if _, _, _, err := e.Create(addrOf(9), initCode, 100_000, uint256.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if n := CodeAnalyses() - before; n != 3 {
		t.Fatalf("3 creates ran %d analyses, want 3", n)
	}
	if got := analysisCacheLen(); got != cached {
		t.Fatalf("creates grew the analysis cache from %d to %d entries", cached, got)
	}
}

func analysisCacheLen() int {
	analysisCache.RLock()
	defer analysisCache.RUnlock()
	return len(analysisCache.m)
}

// TestAnalysisCacheBoundedAndConcurrent drives more distinct codes than
// the cache holds through it from eight goroutines: the size never
// exceeds the capacity, every call still sees its own code's analysis,
// and the race detector (make check) sees the locking.
func TestAnalysisCacheBoundedAndConcurrent(t *testing.T) {
	const goroutines, perGoroutine = 8, (analysisCacheCap + 200) / 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, st := testEVM()
			for i := 0; i < perGoroutine; i++ {
				valid := i%2 == 0
				// A distinct tail per (g, i) makes every code unique.
				code := append(jumpTo4(valid), byte(g), byte(i>>8), byte(i))
				deployRaw(st, addrOf(1), code)
				_, _, err := e.Call(addrOf(9), addrOf(1), nil, 100_000, uint256.Zero)
				if valid != (err == nil) {
					t.Errorf("goroutine %d code %d: valid=%v err=%v", g, i, valid, err)
					return
				}
				if n := analysisCacheLen(); n > analysisCacheCap {
					t.Errorf("analysis cache holds %d entries, capacity %d", n, analysisCacheCap)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
