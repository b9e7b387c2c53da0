package contracts

import (
	"legalchain/internal/abi"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
)

// The payment notary closes the paper's evidence loop: the tenant pays
// rent through it, and in the same transaction it forwards the rent to
// the rental agreement (payRent) and writes a payment record into the
// DataStorage ledger (recordPayment). minisol can only express external
// calls as `.transfer` — no calldata — so, like the proxy, the notary is
// assembled by hand.
//
// Runtime interface:
//
//	payAndRecord(address rental) payable
//
// Storage slot 0 holds the DataStorage address, set by the constructor.
// Any failure in either nested call bubbles its revert payload up, so a
// wrong rent amount still surfaces as "rent amount must match".

// PayAndRecordSelector is the 4-byte selector of payAndRecord(address).
var PayAndRecordSelector = func() [4]byte {
	h := ethtypes.Keccak256([]byte("payAndRecord(address)"))
	var s [4]byte
	copy(s[:], h[:4])
	return s
}()

// notarySelectors resolves the nested-call selectors from the compiled
// artifacts' ABIs, so the notary can never drift from what the rental
// and DataStorage dispatch on.
func notarySelectors() (payRent, recordPayment [4]byte) {
	payRent = MustArtifact("BaseRental").ABI.Methods["payRent"].ID()
	recordPayment = MustArtifact("DataStorage").ABI.Methods["recordPayment"].ID()
	return
}

// storeSelector positions a 4-byte selector at the top of a 32-byte
// word (selector << 224) and stores it at memory offset 0.
func storeSelector(b *bb, sel [4]byte) {
	b.push(sel[:]).pushByte(0xE0).op(evm.SHL).pushByte(0).op(evm.MSTORE)
}

// bubbleRevert emits: if top-of-stack (call success) is zero, copy the
// returndata and revert with it. Falls through on success.
func bubbleRevert(b *bb, okLabel string) {
	b.pushLabel(okLabel).op(evm.JUMPI)
	b.op(evm.RETURNDATASIZE).pushByte(0).pushByte(0).op(evm.RETURNDATACOPY)
	b.op(evm.RETURNDATASIZE).pushByte(0).op(evm.REVERT)
	b.label(okLabel)
}

// NotaryRuntime returns the notary's runtime bytecode.
func NotaryRuntime() []byte {
	payRentSel, recordSel := notarySelectors()
	b := newBB()

	// Dispatch: anything but payAndRecord(address) reverts.
	b.pushByte(0).op(evm.CALLDATALOAD).pushByte(0xE0).op(evm.SHR)
	b.push(PayAndRecordSelector[:]).op(evm.EQ)
	b.pushLabel("pay").op(evm.JUMPI)
	b.pushByte(0).pushByte(0).op(evm.REVERT)

	b.label("pay")
	// rental.payRent{value: callvalue}():
	//   mstore(0, payRentSel << 224)
	//   call(gas, rental, callvalue, 0, 4, 0, 0)
	storeSelector(b, payRentSel)
	b.pushByte(0).pushByte(0)          // outSize, outOffset
	b.pushByte(4).pushByte(0)          // inSize, inOffset
	b.op(evm.CALLVALUE)                // value
	b.pushByte(4).op(evm.CALLDATALOAD) // rental address
	b.op(evm.GAS, evm.CALL)
	bubbleRevert(b, "paid")

	// dataStorage.recordPayment(rental, callvalue):
	//   mstore(0, recordSel << 224); mstore(4, rental); mstore(36, callvalue)
	//   call(gas, sload(0), 0, 0, 68, 0, 0)
	storeSelector(b, recordSel)
	b.pushByte(4).op(evm.CALLDATALOAD).pushByte(4).op(evm.MSTORE)
	b.op(evm.CALLVALUE).pushByte(36).op(evm.MSTORE)
	b.pushByte(0).pushByte(0)   // outSize, outOffset
	b.pushByte(68).pushByte(0)  // inSize, inOffset
	b.pushByte(0)               // value
	b.pushByte(0).op(evm.SLOAD) // DataStorage address
	b.op(evm.GAS, evm.CALL)
	bubbleRevert(b, "recorded")
	b.op(evm.STOP)

	return b.assemble()
}

// NotaryInitCode returns deployment code for the notary. Append the
// 32-byte left-padded DataStorage address as the constructor argument.
func NotaryInitCode() []byte {
	runtime := NotaryRuntime()
	b := newBB()
	// codecopy(0, codesize-32, 32); sstore(0, mload(0))
	b.pushByte(32)
	b.pushByte(32).op(evm.CODESIZE, evm.SUB)
	b.pushByte(0).op(evm.CODECOPY)
	b.pushByte(0).op(evm.MLOAD)
	b.pushByte(0).op(evm.SSTORE)
	// return runtime
	b.push(u16(len(runtime)))
	b.pushLabel("runtime")
	b.pushByte(0).op(evm.CODECOPY)
	b.push(u16(len(runtime)))
	b.pushByte(0).op(evm.RETURN)
	b.labels["runtime"] = len(b.code) // data label, no JUMPDEST
	b.code = append(b.code, runtime...)
	return b.assemble()
}

// PackNotaryDeploy builds the full creation payload for a notary bound
// to the DataStorage at ds.
func PackNotaryDeploy(ds ethtypes.Address) []byte {
	arg := make([]byte, 32)
	copy(arg[12:], ds[:])
	return append(NotaryInitCode(), arg...)
}

// NotaryABI is the notary's call interface.
func NotaryABI() *abi.ABI {
	return abi.New(nil, map[string]abi.Method{
		"payAndRecord": {
			Name:            "payAndRecord",
			Inputs:          []abi.Arg{{Name: "rental", Type: abi.AddressType}},
			StateMutability: "payable",
		},
	}, nil)
}
