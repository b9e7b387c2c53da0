package chain

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/metrics"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// asm assembles bytecode: an evm.OpCode is emitted as is, an int is
// pushed with the smallest PUSH, an address with PUSH20.
func asm(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case evm.OpCode:
			out = append(out, byte(v))
		case int:
			b := uint256.NewUint64(uint64(v)).Bytes()
			if len(b) == 0 {
				b = []byte{0}
			}
			out = append(out, byte(evm.PUSH1)+byte(len(b)-1))
			out = append(out, b...)
		case ethtypes.Address:
			out = append(out, byte(evm.PUSH20))
			out = append(out, v[:]...)
		default:
			panic(fmt.Sprintf("asm: %T", p))
		}
	}
	return out
}

// deployCode deploys runtime as a contract's code from acc.
func deployCode(t testing.TB, bc *Blockchain, acc wallet.Account, runtime []byte) ethtypes.Address {
	t.Helper()
	n := len(runtime)
	// PUSH2 n PUSH1 14 PUSH1 0 CODECOPY PUSH2 n PUSH1 0 RETURN: 14 bytes.
	init := []byte{0x61, byte(n >> 8), byte(n), 0x60, 14, 0x60, 0, 0x39, 0x61, byte(n >> 8), byte(n), 0x60, 0, 0xf3}
	hash, err := bc.SendTransaction(signedTx(t, bc, acc, nil, uint256.Zero, append(init, runtime...), 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	if !rcpt.Succeeded() || rcpt.ContractAddress == nil {
		t.Fatalf("deploy failed: %+v", rcpt)
	}
	return *rcpt.ContractAddress
}

// call is CALL(GAS, to, value, 0, 0, 0, 0) with the status left on the stack.
func call(to any, value int) []any {
	return []any{0, 0, 0, 0, value, to, evm.GAS, evm.CALL}
}

// seq flattens assembler parts.
func seq(parts ...any) []any {
	var out []any
	for _, p := range parts {
		if ps, ok := p.([]any); ok {
			out = append(out, ps...)
		} else {
			out = append(out, p)
		}
	}
	return out
}

// TestLazyCallCreditMatchesEager runs the same messages on an Overlay
// credited up front with AddBalance and on a CreditedOverlay, and wants
// the same return data, error, gas, steps and logs. The code reads the
// caller's balance and SELFBALANCE (from == to when the caller is the
// contract itself), EXTCODEHASH and EXTCODESIZE of the caller (absent
// from the world for one caller), pays the caller, and touches it in a
// frame that then reverts. The callers are a funded account, an account
// the world does not hold, and every contract.
func TestLazyCallCreditMatchesEager(t *testing.T) {
	bc, accs := devChain(t)
	deploy := func(parts ...any) ethtypes.Address {
		return deployCode(t, bc, accs[0], asm(seq(parts...)...))
	}
	ret64 := []any{64, 0, evm.RETURN}
	balances := deploy(evm.CALLER, evm.BALANCE, 0, evm.MSTORE, evm.SELFBALANCE, 32, evm.MSTORE,
		64, 0, evm.LOG0, ret64)
	ext := deploy(evm.CALLER, evm.EXTCODEHASH, 0, evm.MSTORE, evm.CALLER, evm.EXTCODESIZE, 32, evm.MSTORE, ret64)
	pays := deploy(call(evm.CALLER, 7), 0, evm.MSTORE, evm.CALLER, evm.BALANCE, 32, evm.MSTORE,
		evm.CALLER, 64, 0, evm.LOG1, ret64)
	// toucher reads, hashes and pays the origin, then reverts; outer
	// calls it and returns its status and the origin's balance, so a
	// value-0 message touches the caller first inside the reverted frame.
	toucher := deploy(evm.ORIGIN, evm.BALANCE, evm.POP, evm.ORIGIN, evm.EXTCODEHASH, evm.POP,
		call(evm.ORIGIN, 1), evm.POP, 0, 0, evm.REVERT)
	outer := deploy(call(toucher, 0), 0, evm.MSTORE, evm.ORIGIN, evm.BALANCE, 32, evm.MSTORE, ret64)

	v := bc.View()
	absent := ethtypes.HexToAddress("0x00000000000000000000000000000000000dead1")
	contracts := []ethtypes.Address{balances, ext, pays, toucher, outer}
	froms := append([]ethtypes.Address{accs[1].Address, absent}, contracts...)
	for _, to := range contracts {
		for _, from := range froms {
			for _, value := range []uint64{0, 10} {
				eager := v.st.Overlay()
				eager.AddBalance(from, callCredit)
				_, want := v.runMessage(eager, nil, from, &to, nil, uint256.NewUint64(value), 0)
				lazy := v.st.CreditedOverlay(from, callCredit)
				_, got := v.runMessage(lazy, nil, from, &to, nil, uint256.NewUint64(value), 0)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(lazy.Logs(), eager.Logs()) {
					t.Errorf("from %s to %s value %d:\n lazy  %+v logs %v\n eager %+v logs %v",
						from, to, value, got, lazy.Logs(), want, eager.Logs())
				}
				lazy.Release()
			}
		}
	}
}

// TestEthCallAllocations pins what an eth_call allocates once the
// overlay and the EVM come from their pools: the rent() getter makes
// the result, its return bytes and the clone of the rental's account; a
// value transfer to an account with no code makes the result, the two
// accounts' clones, their dirty entries and the two balance journal
// entries.
func TestEthCallAllocations(t *testing.T) {
	if race {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	rig := newOverheadRig(t, "allocs")
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() *CallResult
	}{
		{"rent() getter", 3, func() *CallResult {
			return rig.bc.Call(rig.from, &rig.rental, rig.rent, uint256.Zero, 0)
		}},
		{"value-1 call to an account with no code", 7, func() *CallResult {
			return rig.bc.Call(rig.from, &rig.to, nil, uint256.One, 0)
		}},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() { err = c.run().Err })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %.0f allocs per call", c.name, n)
		if n > c.ceiling {
			t.Errorf("%s allocates %.0f times per call, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
}

// TestEthCallReuseLeaksNothing: calls on one goroutine share a pooled
// overlay and a pooled EVM with its frame buffers, and none of it shows
// through: a later call leaves an earlier result's bytes alone and
// starts on memory that reads zero.
func TestEthCallReuseLeaksNothing(t *testing.T) {
	bc, accs := devChain(t)
	// echo stores its calldata word at 0x00 and 0x40 and returns the
	// first; blank returns 0x20..0x60, which it never wrote.
	echo := deployCode(t, bc, accs[0], asm(0, evm.CALLDATALOAD, evm.DUP1, 0, evm.MSTORE, 0x40, evm.MSTORE,
		32, 0, evm.RETURN))
	blank := deployCode(t, bc, accs[0], asm(0x40, 0x20, evm.RETURN))
	word := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

	first := bc.Call(accs[1].Address, &echo, word(0xaa), uint256.Zero, 0)
	if first.Err != nil || !bytes.Equal(first.Return, word(0xaa)) {
		t.Fatalf("echo = %x, %v", first.Return, first.Err)
	}
	if res := bc.Call(accs[1].Address, &blank, nil, uint256.Zero, 0); !bytes.Equal(res.Return, make([]byte, 0x40)) {
		t.Fatalf("blank after echo read %x, want zeros", res.Return)
	}
	if res := bc.Call(accs[1].Address, &echo, word(0xbb), uint256.Zero, 0); !bytes.Equal(res.Return, word(0xbb)) {
		t.Fatalf("second echo = %x", res.Return)
	}
	if !bytes.Equal(first.Return, word(0xaa)) {
		t.Fatalf("first result changed to %x by later calls", first.Return)
	}
}

// TestConcurrentGetterCallsDuringSeals hammers the pooled call path
// from several goroutines while a writer seals: every count() result
// must agree with the event logs of its own view, and stay unchanged
// while the goroutine makes further calls. make check runs it under
// the race detector.
func TestConcurrentGetterCallsDuringSeals(t *testing.T) {
	bc, accs := devChain(t)
	counter, art := deployCounter(t, bc, accs[0])
	inc, _ := art.ABI.Pack("increment")
	count, _ := art.ABI.Pack("count")
	seals := 40
	if race {
		seals = 20
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < seals; i++ {
			if _, err := bc.SendTransaction(signedTx(t, bc, accs[0], &counter, uint256.Zero, inc, 200_000)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type kept struct {
				res  *CallResult
				want []byte
			}
			var held []kept
			for !stop.Load() {
				v := bc.View()
				res := v.Call(accs[1].Address, &counter, count, uint256.Zero, 0)
				if res.Err != nil {
					t.Errorf("count(): %v", res.Err)
					return
				}
				logs := v.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{counter}})
				if got := uint256.SetBytes(res.Return); got.Uint64() != uint64(len(logs)) {
					t.Errorf("count() = %d at height %d, %d bumped logs", got.Uint64(), v.BlockNumber(), len(logs))
					return
				}
				held = append(held, kept{res, append([]byte(nil), res.Return...)})
				for _, k := range held {
					if !bytes.Equal(k.res.Return, k.want) {
						t.Errorf("an earlier result changed from %x to %x", k.want, k.res.Return)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// viewReads reads legalchain_chain_view_reads_total the way a scrape does.
func viewReads(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	metrics.Default.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "legalchain_chain_view_reads_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return uint64(n)
		}
	}
	t.Fatal("legalchain_chain_view_reads_total not exposed")
	return 0
}

// TestViewReadsCountCalls: an eth_call counts as one view read, like a
// balance read or a debug_traceCall, although it pays no atomic of its
// own for it (the count is the call histogram's).
func TestViewReadsCountCalls(t *testing.T) {
	bc, accs := devChain(t)
	v := bc.View()
	for name, read := range map[string]func(){
		"Call":       func() { v.Call(accs[0].Address, &accs[1].Address, nil, uint256.One, 0) },
		"TraceCall":  func() { v.TraceCall(accs[0].Address, &accs[1].Address, nil, 0) },
		"GetBalance": func() { v.GetBalance(accs[0].Address) },
	} {
		before := viewReads(t)
		read()
		if got := viewReads(t) - before; got != 1 {
			t.Errorf("%s: view reads grew by %d, want 1", name, got)
		}
	}
}
