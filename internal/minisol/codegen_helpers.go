package minisol

import (
	"fmt"

	"legalchain/internal/evm"
)

// encodeSrc is one value to ABI-encode: a frame/memory offset holding
// either a word or a string pointer.
type encodeSrc struct {
	offset int
	typ    *SemType
}

// emitEncode ABI-encodes the sources into fresh memory and leaves
// [size, base] on the stack (base on top), ready for RETURN or LOGn.
// Uses scratchA/scratchB as encoder state (base/tail).
func (cg *codegen) emitEncode(srcs []encodeSrc) error {
	a := cg.a
	head := 0
	for _, s := range srcs {
		if s.typ != nil && !s.typ.IsWord() && s.typ.Kind != TString {
			return fmt.Errorf("cannot ABI-encode %s", s.typ)
		}
		head += 32
	}
	// base = freeptr; tail = base + headSize.
	a.mload(freePtrSlot)
	a.op(evm.DUP1)
	a.mstoreTo(scratchA)
	a.pushU(uint64(head))
	a.op(evm.ADD)
	a.mstoreTo(scratchB)

	h := 0
	for _, s := range srcs {
		if s.typ.IsWord() {
			a.mload(s.offset)
			a.mload(scratchA)
			a.pushU(uint64(h))
			a.op(evm.ADD, evm.MSTORE) // mstore(base+h, val)
		} else { // string
			cg.needMcopy = true
			// head word: tail - base
			a.mload(scratchB)
			a.mload(scratchA)
			a.op(evm.SWAP1, evm.SUB) // tail - base
			a.mload(scratchA)
			a.pushU(uint64(h))
			a.op(evm.ADD, evm.MSTORE)
			// ptr, len
			a.mload(s.offset)
			a.op(evm.DUP1, evm.MLOAD) // [ptr, len]
			// mstore(tail, len)
			a.op(evm.DUP1)
			a.mload(scratchB)
			a.op(evm.MSTORE) // [ptr, len]
			// mcopy(dst=tail+32, src=ptr+32, n=pad32(len))
			after := cg.fresh("enc")
			a.pushLabel(after) // [ptr, len, ret]
			a.mload(scratchB)
			a.pushU(32)
			a.op(evm.ADD)  // dst
			a.op(evm.DUP4) // ptr
			a.pushU(32)
			a.op(evm.ADD)  // src
			a.op(evm.DUP4) // len
			cg.emitPad32() // n
			a.pushLabel("__mcopy")
			a.op(evm.JUMP)
			a.label(after) // [ptr, len]
			// tail += 32 + pad32(len)
			cg.emitPad32()
			a.pushU(32)
			a.op(evm.ADD)
			a.mload(scratchB)
			a.op(evm.ADD)
			a.mstoreTo(scratchB)
			a.op(evm.POP) // drop ptr
		}
		h += 32
	}
	// freeptr = tail; leave [size, base].
	a.mload(scratchB)
	a.mstoreTo(freePtrSlot)
	a.mload(scratchB)
	a.mload(scratchA)
	a.op(evm.SWAP1, evm.SUB) // size = tail - base
	a.mload(scratchA)        // [size, base]
	return nil
}

// callLoadString invokes the loadString subroutine: [slot] -> [ptr].
func (cg *codegen) callLoadString() {
	cg.needLoadStr = true
	a := cg.a
	ret := cg.fresh("lds")
	a.pushLabel(ret)
	a.op(evm.SWAP1) // [ret, slot]
	a.pushLabel("__loadstr")
	a.op(evm.JUMP)
	a.label(ret) // [ptr]
}

// emitHelpers appends the helper subroutines referenced during codegen.
func (cg *codegen) emitHelpers() {
	if cg.needMapStr || cg.needStoreStr {
		cg.needMcopy = cg.needMcopy || cg.needMapStr
	}
	if cg.needMcopy {
		cg.emitMcopy()
	}
	if cg.needStoreStr {
		cg.emitStoreString()
	}
	if cg.needLoadStr {
		cg.emitLoadString()
	}
	if cg.needMapStr {
		cg.emitMapString()
	}
	if cg.needStrArr {
		cg.emitStringArray()
	}
}

// emitMcopy: word-granular memory copy.
// In: [ret, dst, src, n] (n on top, multiple of 32). Out: [] (jumps ret).
func (cg *codegen) emitMcopy() {
	a := cg.a
	a.label("__mcopy")
	a.label("__mcopy_loop_pre")
	// loop:
	a.label("__mcopy_loop")
	a.op(evm.DUP1, evm.ISZERO)
	a.pushLabel("__mcopy_done")
	a.op(evm.JUMPI)
	// word = mload(src); mstore(dst, word)
	a.op(evm.DUP2, evm.MLOAD) // [ret,dst,src,n,word]
	a.op(evm.DUP4)            // dst
	a.op(evm.MSTORE)          // [ret,dst,src,n]
	// dst += 32
	a.op(evm.SWAP2)
	a.pushU(32)
	a.op(evm.ADD)
	a.op(evm.SWAP2)
	// src += 32
	a.op(evm.SWAP1)
	a.pushU(32)
	a.op(evm.ADD)
	a.op(evm.SWAP1)
	// n -= 32
	a.pushU(32)
	a.op(evm.SWAP1, evm.SUB)
	a.pushLabel("__mcopy_loop")
	a.op(evm.JUMP)
	a.label("__mcopy_done")
	a.op(evm.POP, evm.POP, evm.POP)
	a.op(evm.JUMP)
}

// emitStoreString writes a memory string into storage using Solidity's
// short/long layout.
// In: [ret, slot, ptr] (ptr on top). Out: [] (jumps ret).
func (cg *codegen) emitStoreString() {
	a := cg.a
	a.label("__storestr")
	a.op(evm.DUP1, evm.MLOAD) // [ret,slot,ptr,len]
	a.op(evm.DUP1)
	a.pushU(32)
	a.op(evm.GT) // 32 > len ?
	a.pushLabel("__storestr_short")
	a.op(evm.JUMPI)
	// --- long form ---
	// sstore(slot, len*2+1)
	a.op(evm.DUP1)
	a.pushU(1)
	a.op(evm.SHL) // len<<1
	a.pushU(1)
	a.op(evm.OR)
	a.op(evm.DUP4)   // slot
	a.op(evm.SSTORE) // [ret,slot,ptr,len]
	// dataSlot = keccak(slot)
	a.op(evm.DUP3)
	a.pushU(scratchA)
	a.op(evm.MSTORE)
	a.pushU(32)
	a.pushU(scratchA)
	a.op(evm.SHA3) // [ret,slot,ptr,len,dataSlot]
	// nwords = (len+31)/32
	a.op(evm.SWAP1) // [ret,slot,ptr,dataSlot,len]
	a.pushU(31)
	a.op(evm.ADD)
	a.pushU(32)
	a.op(evm.SWAP1, evm.DIV) // [ret,slot,ptr,dataSlot,n]
	a.label("__storestr_loop")
	a.op(evm.DUP1, evm.ISZERO)
	a.pushLabel("__storestr_done")
	a.op(evm.JUMPI)
	// word = mload(ptr+32)
	a.op(evm.DUP3)
	a.pushU(32)
	a.op(evm.ADD, evm.MLOAD) // [.., n, word]
	a.op(evm.DUP3)           // dataSlot
	a.op(evm.SSTORE)         // [ret,slot,ptr,dataSlot,n]
	// ptr += 32
	a.op(evm.SWAP2)
	a.pushU(32)
	a.op(evm.ADD)
	a.op(evm.SWAP2)
	// dataSlot += 1
	a.op(evm.SWAP1)
	a.pushU(1)
	a.op(evm.ADD)
	a.op(evm.SWAP1)
	// n -= 1
	a.pushU(1)
	a.op(evm.SWAP1, evm.SUB)
	a.pushLabel("__storestr_loop")
	a.op(evm.JUMP)
	a.label("__storestr_done")
	a.op(evm.POP, evm.POP, evm.POP, evm.POP)
	a.op(evm.JUMP)
	// --- short form ---
	a.label("__storestr_short")
	// word = mload(ptr+32) masked to len bytes; sstore(slot, word | len*2)
	a.op(evm.DUP2)
	a.pushU(32)
	a.op(evm.ADD, evm.MLOAD) // [ret,slot,ptr,len,word]
	a.op(evm.DUP2)           // len
	a.pushU(8)
	a.op(evm.MUL)
	a.pushU(256)
	a.op(evm.SUB)             // shift = 256-8len; [.., word, shift]
	a.op(evm.SWAP1, evm.DUP2) // [shift, word, shift]
	a.op(evm.SHR)             // word >> shift -> [shift, t]
	a.op(evm.SWAP1, evm.SHL)  // t << shift -> masked
	// | len*2
	a.op(evm.DUP2) // len
	a.pushU(1)
	a.op(evm.SHL)
	a.op(evm.OR) // [ret,slot,ptr,len,value]
	a.op(evm.DUP4)
	a.op(evm.SSTORE)
	a.op(evm.POP, evm.POP, evm.POP)
	a.op(evm.JUMP)
}

// emitLoadString reads a storage string into fresh memory.
// In: [ret, slot] (slot on top). Out: [ptr] (jumps ret).
func (cg *codegen) emitLoadString() {
	a := cg.a
	a.label("__loadstr")
	a.op(evm.DUP1, evm.SLOAD) // [ret,slot,raw]
	a.op(evm.DUP1)
	a.pushU(1)
	a.op(evm.AND)
	a.pushLabel("__loadstr_long")
	a.op(evm.JUMPI)
	// --- short ---
	// len = (raw & 0xff) >> 1
	a.op(evm.DUP1)
	a.pushU(0xff)
	a.op(evm.AND)
	a.pushU(1)
	a.op(evm.SHR) // [ret,slot,raw,len]
	// ptr = alloc(64)
	a.mload(freePtrSlot) // [.., len, ptr]
	a.op(evm.DUP1)
	a.pushU(64)
	a.op(evm.ADD)
	a.mstoreTo(freePtrSlot)
	// mstore(ptr, len)
	a.op(evm.DUP2, evm.DUP2, evm.MSTORE)
	// mstore(ptr+32, raw &^ 0xff)
	a.op(evm.DUP3) // raw
	a.pushU(0xff)
	a.op(evm.NOT, evm.AND)
	a.op(evm.DUP2)
	a.pushU(32)
	a.op(evm.ADD, evm.MSTORE) // [ret,slot,raw,len,ptr]
	// clean to [ret, ptr] and jump
	a.op(evm.SWAP3) // [ret,ptr,raw,len,slot]
	a.op(evm.POP, evm.POP, evm.POP)
	a.op(evm.SWAP1, evm.JUMP)
	// --- long ---
	a.label("__loadstr_long")
	// [ret,slot,raw]: len = raw >> 1
	a.pushU(1)
	a.op(evm.SHR) // [ret,slot,len]
	// nwords = (len+31)/32
	a.op(evm.DUP1)
	a.pushU(31)
	a.op(evm.ADD)
	a.pushU(32)
	a.op(evm.SWAP1, evm.DIV) // [ret,slot,len,nwords]
	// ptr = freeptr; freeptr += 32 + nwords*32
	a.mload(freePtrSlot) // [.., nwords, ptr]
	a.op(evm.DUP2)
	a.pushU(32)
	a.op(evm.MUL)
	a.pushU(32)
	a.op(evm.ADD)
	a.op(evm.DUP2, evm.ADD)
	a.mstoreTo(freePtrSlot)
	// mstore(ptr, len)
	a.op(evm.DUP3, evm.DUP2, evm.MSTORE) // [ret,slot,len,nwords,ptr]
	// dataSlot = keccak(slot)
	a.op(evm.DUP4)
	a.pushU(scratchA)
	a.op(evm.MSTORE)
	a.pushU(32)
	a.pushU(scratchA)
	a.op(evm.SHA3) // [ret,slot,len,nwords,ptr,ds]
	// cur = ptr + 32
	a.op(evm.DUP2)
	a.pushU(32)
	a.op(evm.ADD) // [ret,slot,len,nwords,ptr,ds,cur]
	a.label("__loadstr_loop")
	a.op(evm.DUP4, evm.ISZERO)
	a.pushLabel("__loadstr_done")
	a.op(evm.JUMPI)
	a.op(evm.DUP2, evm.SLOAD) // [.., cur, word]
	a.op(evm.DUP2, evm.MSTORE)
	// cur += 32
	a.pushU(32)
	a.op(evm.ADD)
	// ds += 1
	a.op(evm.SWAP1)
	a.pushU(1)
	a.op(evm.ADD)
	a.op(evm.SWAP1)
	// nwords -= 1 (depth 4)
	a.op(evm.SWAP3)
	a.pushU(1)
	a.op(evm.SWAP1, evm.SUB)
	a.op(evm.SWAP3)
	a.pushLabel("__loadstr_loop")
	a.op(evm.JUMP)
	a.label("__loadstr_done")
	// [ret,slot,len,nwords,ptr,ds,cur]
	a.op(evm.POP, evm.POP) // [ret,slot,len,nwords,ptr]
	a.op(evm.SWAP3)        // [ret,ptr,len,nwords,slot]
	a.op(evm.POP, evm.POP, evm.POP)
	a.op(evm.SWAP1, evm.JUMP)
}

// emitMapString computes the storage slot of a string-keyed mapping
// element: keccak256(keyBytes ++ slot).
// In: [ret, slot, ptr] (ptr on top). Out: [slot'] (jumps ret).
func (cg *codegen) emitMapString() {
	a := cg.a
	a.label("__mapstr")
	a.op(evm.DUP1, evm.MLOAD) // [ret,slot,ptr,len]
	// mcopy(dst=freeptr, src=ptr+32, n=pad32(len))
	a.pushLabel("__mapstr_copied") // [.., len, mret]
	a.mload(freePtrSlot)           // dst
	a.op(evm.DUP4)                 // ptr
	a.pushU(32)
	a.op(evm.ADD)  // src
	a.op(evm.DUP4) // len
	cg.emitPad32() // n
	a.pushLabel("__mcopy")
	a.op(evm.JUMP)
	a.label("__mapstr_copied") // [ret,slot,ptr,len]
	// mstore(free+len, slot)
	a.op(evm.DUP3) // slot
	a.mload(freePtrSlot)
	a.op(evm.DUP3) // len
	a.op(evm.ADD)
	a.op(evm.MSTORE)
	// hash: sha3(free, len+32)
	a.pushU(32)
	a.op(evm.ADD) // size = len+32
	a.mload(freePtrSlot)
	a.op(evm.SHA3)  // [ret,slot,ptr,hash]
	a.op(evm.SWAP2) // [ret,hash,ptr,slot]
	a.op(evm.POP, evm.POP)
	a.op(evm.SWAP1, evm.JUMP)
}

// emitStringArray checks a string[] argument against its blob and
// returns its memory pointer. Every bound is a comparison or a division,
// never a sum of two hostile words, so no length or offset can wrap:
// the array's length word must lie in the blob, its offset words must
// fit in what follows (n <= rem/32), and each element's length word and
// bytes must lie in the same remainder. Anything else reverts.
// In: [ret, base, size, off] (off on top). Out: [ptr] (jumps ret).
func (cg *codegen) emitStringArray() {
	a := cg.a
	a.label("__strarr")
	a.pushU(32)
	a.op(evm.DUP3, evm.LT) // size < 32
	a.pushLabel("__strarr_bad")
	a.op(evm.JUMPI)
	a.pushU(32)
	a.op(evm.DUP3, evm.SUB)  // [ret,base,size,off,s32]
	a.op(evm.DUP2, evm.DUP2) // [.., off, s32, off, s32]
	a.op(evm.LT)             // s32 < off
	a.pushLabel("__strarr_bad")
	a.op(evm.JUMPI)
	a.op(evm.DUP2, evm.DUP2, evm.SUB) // rem = s32 - off
	a.op(evm.SWAP3, evm.POP, evm.POP) // [ret,base,rem,off]
	a.op(evm.DUP3, evm.ADD)           // [ret,base,rem,ptr]
	a.op(evm.SWAP2, evm.POP)          // [ret,ptr,rem]
	a.op(evm.DUP2, evm.MLOAD)         // [ret,ptr,rem,n]
	a.pushU(32)
	a.op(evm.DUP3, evm.DIV) // [ret,ptr,rem,n,rem/32]
	a.op(evm.DUP2, evm.GT)  // n > rem/32
	a.pushLabel("__strarr_bad")
	a.op(evm.JUMPI) // [ret,ptr,rem,i], elements i-1 .. 0 left to check
	a.label("__strarr_loop")
	a.op(evm.DUP1, evm.ISZERO)
	a.pushLabel("__strarr_done")
	a.op(evm.JUMPI)
	a.pushU(1)
	a.op(evm.SWAP1, evm.SUB) // [ret,ptr,rem,j]
	// e = mload(ptr + 32 + 32j), the element's offset
	a.op(evm.DUP1)
	a.pushU(32)
	a.op(evm.MUL, evm.DUP4, evm.ADD)
	a.pushU(32)
	a.op(evm.ADD, evm.MLOAD) // [ret,ptr,rem,j,e]
	a.pushU(32)
	a.op(evm.DUP4, evm.SUB)  // r32 = rem - 32 (rem >= 32n >= 32)
	a.op(evm.DUP2, evm.DUP2) // [.., e, r32, e, r32]
	a.op(evm.LT)             // r32 < e
	a.pushLabel("__strarr_bad")
	a.op(evm.JUMPI)
	a.op(evm.DUP2, evm.SWAP1, evm.SUB) // left = r32 - e; [ret,ptr,rem,j,e,left]
	a.op(evm.SWAP1, evm.DUP5, evm.ADD)
	a.pushU(32)
	a.op(evm.ADD, evm.MLOAD) // [ret,ptr,rem,j,left,len]
	a.op(evm.GT)             // len > left
	a.pushLabel("__strarr_bad")
	a.op(evm.JUMPI)
	a.pushLabel("__strarr_loop")
	a.op(evm.JUMP)
	a.label("__strarr_done")
	a.op(evm.POP, evm.POP) // [ret,ptr]
	a.op(evm.SWAP1, evm.JUMP)
	a.label("__strarr_bad")
	a.revertZero()
}
