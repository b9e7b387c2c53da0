package evm

import (
	"errors"

	"legalchain/internal/uint256"
)

// StackLimit is the consensus maximum operand-stack depth.
const StackLimit = 1024

// Errors surfaced by stack manipulation.
var (
	ErrStackUnderflow = errors.New("evm: stack underflow")
	ErrStackOverflow  = errors.New("evm: stack overflow")
)

// Stack is the EVM operand stack of 256-bit words. Its operations do not
// check the height: the interpreter checks each op once, with check,
// before the op touches the stack.
type Stack struct {
	data []uint256.Int
}

func newStack() Stack {
	return Stack{data: make([]uint256.Int, 0, 16)}
}

// stackEffect is how many words an op takes off the stack and how many
// it leaves in their place.
type stackEffect struct{ pops, pushes uint8 }

// stackEffects holds every op's stack effect. DUPn reads n words and
// leaves n+1, SWAPn reorders n+1; STOP, JUMPDEST, INVALID and the
// undefined bytes touch nothing.
var stackEffects = func() (t [256]stackEffect) {
	set := func(pops, pushes uint8, ops ...OpCode) {
		for _, op := range ops {
			t[op] = stackEffect{pops, pushes}
		}
	}
	set(0, 1, ADDRESS, ORIGIN, CALLER, CALLVALUE, CALLDATASIZE, CODESIZE, GASPRICE,
		RETURNDATASIZE, COINBASE, TIMESTAMP, NUMBER, DIFFICULTY, GASLIMIT, CHAINID,
		SELFBALANCE, PC, MSIZE, GAS)
	set(1, 0, POP, JUMP, SELFDESTRUCT)
	set(1, 1, ISZERO, NOT, BALANCE, CALLDATALOAD, EXTCODESIZE, EXTCODEHASH, BLOCKHASH,
		MLOAD, SLOAD)
	set(2, 0, MSTORE, MSTORE8, SSTORE, JUMPI, RETURN, REVERT)
	set(2, 1, ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, EXP, SIGNEXTEND, LT, GT, SLT, SGT, EQ,
		AND, OR, XOR, BYTE, SHL, SHR, SAR, SHA3)
	set(3, 0, CALLDATACOPY, CODECOPY, RETURNDATACOPY)
	set(3, 1, ADDMOD, MULMOD, CREATE)
	set(4, 0, EXTCODECOPY)
	set(4, 1, CREATE2)
	set(6, 1, DELEGATECALL, STATICCALL)
	set(7, 1, CALL, CALLCODE)
	for i := uint8(0); i < 32; i++ {
		t[PUSH1+OpCode(i)] = stackEffect{0, 1}
	}
	for i := uint8(1); i <= 16; i++ {
		t[DUP1+OpCode(i-1)] = stackEffect{i, i + 1}
		t[SWAP1+OpCode(i-1)] = stackEffect{i + 1, i + 1}
	}
	for i := uint8(0); i <= 4; i++ {
		t[LOG0+OpCode(i)] = stackEffect{2 + i, 0}
	}
	return t
}()

// check returns the error op meets on this stack: underflow when the
// stack holds fewer words than op takes, overflow when op would leave
// more than StackLimit.
func (s *Stack) check(op OpCode) error {
	e, n := stackEffects[op], len(s.data)
	if n < int(e.pops) {
		return ErrStackUnderflow
	}
	if n-int(e.pops)+int(e.pushes) > StackLimit {
		return ErrStackOverflow
	}
	return nil
}

// Len returns the current depth.
func (s *Stack) Len() int { return len(s.data) }

func (s *Stack) push(v uint256.Int) { s.data = append(s.data, v) }

func (s *Stack) pop() uint256.Int {
	v := s.data[len(s.data)-1]
	s.data = s.data[:len(s.data)-1]
	return v
}

// peek returns the n-th word from the top (0 = top), to read or to
// replace in place.
func (s *Stack) peek(n int) *uint256.Int { return &s.data[len(s.data)-1-n] }

// dup pushes a copy of the n-th word from the top (1-based, DUP1..DUP16).
func (s *Stack) dup(n int) { s.data = append(s.data, s.data[len(s.data)-n]) }

// swap exchanges the top with the n-th word below it (SWAP1..SWAP16).
func (s *Stack) swap(n int) {
	top := len(s.data) - 1
	s.data[top], s.data[top-n] = s.data[top-n], s.data[top]
}
