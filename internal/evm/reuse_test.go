package evm

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"legalchain/internal/metrics"
	"legalchain/internal/uint256"
)

// TestResetKeepsFrameBuffers: an EVM rebound with Reset runs its next
// message on the stack array and memory buffer its last one grew, so a
// reused EVM runs a memory-using getter with one allocation, the
// returned bytes.
func TestResetKeepsFrameBuffers(t *testing.T) {
	e, st := testEVM()
	getter := addrOf(0x10)
	deployRaw(st, getter, new(asm).push(0x2a).push(0x40).op(MSTORE).push(0x60).push(0).op(RETURN).code)
	ctx := e.Context
	callIt(t, e, getter, nil, uint256.Zero)
	stack, mem := &e.bufs[0].stack[:1][0], &e.bufs[0].mem[:1][0]

	e.Reset(ctx, st)
	ret, _ := callIt(t, e, getter, nil, uint256.Zero)
	if &e.bufs[0].stack[:1][0] != stack || &e.bufs[0].mem[:1][0] != mem {
		t.Fatal("Reset dropped the depth-0 stack array or memory buffer")
	}
	if want := uint256.NewUint64(0x2a).Bytes32(); !bytes.Equal(ret[0x40:], want[:]) {
		t.Fatalf("getter returned %x", ret)
	}
	if race {
		return // the instrumented build allocates memory growth's temporary
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.Reset(ctx, st)
		if _, _, err := e.Call(addrOf(0xEE), getter, nil, 100_000, uint256.Zero); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Reset + Call allocates %.0f times, want 1 (the return bytes)", allocs)
	}
}

// TestReusedBuffersStartEmpty: sibling frames at one depth share that
// depth's buffers, and so do messages on one EVM, but each frame starts
// on an empty stack and on memory that reads zero. proxy calls writer
// (which leaves words on its stack and in memory, then returns) and
// then popper (whose first op is a POP) and reader (which returns
// memory it never wrote); a second message on the same EVM calls reader
// again.
func TestReusedBuffersStartEmpty(t *testing.T) {
	e, st := testEVM()
	proxy, writer, popper, reader := addrOf(0x90), addrOf(0x91), addrOf(0x92), addrOf(0x93)
	deployRaw(st, writer, new(asm).push(1).push(2).push(3).
		push(0xff).push(0).op(MSTORE).push(0xee).push(0x20).op(MSTORE).
		push(0x40).push(0).op(RETURN).code)
	deployRaw(st, popper, new(asm).op(POP).op(STOP).code)
	deployRaw(st, reader, new(asm).push(0x40).push(0).op(RETURN).code)
	// proxy: CALL writer; CALL popper (its status at 0x80); CALL reader
	// with the output at 0x00..0x40; return 0x00..0xa0.
	p := new(asm).callTo(CALL, writer, 0, 0, 0).op(POP)
	p.callTo(CALL, popper, 0, 0, 0).push(0x80).op(MSTORE)
	p.callTo(CALL, reader, 0, 0, 0x40).op(POP)
	deployRaw(st, proxy, p.push(0xa0).push(0).op(RETURN).code)

	ret, _ := callIt(t, e, proxy, nil, uint256.Zero)
	if !bytes.Equal(ret[:0x40], make([]byte, 0x40)) {
		t.Fatalf("reader after writer at the same depth read memory %x, want zeros", ret[:0x40])
	}
	if status := uint256.SetBytes(ret[0x80:0xa0]); !status.IsZero() {
		t.Fatal("popper after writer at the same depth found a word on its stack")
	}

	e.Reset(e.Context, st)
	ret, _ = callIt(t, e, reader, nil, uint256.Zero)
	if !bytes.Equal(ret, make([]byte, 0x40)) {
		t.Fatalf("reader on a reset EVM read memory %x, want zeros", ret)
	}
}

// framesTotal reads legalchain_evm_frames_total from the default
// registry, the way a scrape does.
func framesTotal(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	metrics.Default.WritePrometheus(&b)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "legalchain_evm_frames_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return uint64(n)
		}
	}
	t.Fatal("legalchain_evm_frames_total not exposed")
	return 0
}

// TestFramesTotalCountsEveryFrame: the exposed frame count grows by one
// per bytecode frame at every depth, although only nested frames pay an
// atomic for it, and not at all for a call to an account with no code.
func TestFramesTotalCountsEveryFrame(t *testing.T) {
	e, st := testEVM()
	proxy, leaf := addrOf(0x90), addrOf(0x91)
	deployRaw(st, leaf, new(asm).op(STOP).code)
	p := new(asm).callTo(CALL, leaf, 0, 0, 0).op(POP)
	deployRaw(st, proxy, p.callTo(CALL, leaf, 0, 0, 0).op(POP).op(STOP).code)
	for _, c := range []struct {
		to   byte
		want uint64
	}{{0x90, 3}, {0x91, 1}, {0x99, 0}} {
		before := framesTotal(t)
		callIt(t, e, addrOf(c.to), nil, uint256.Zero)
		if got := framesTotal(t) - before; got != c.want {
			t.Errorf("call to %x: frames_total grew by %d, want %d", c.to, got, c.want)
		}
	}
}
