package contracts

import (
	"legalchain/internal/abi"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
)

// The proxy is the upgrade-pattern baseline the experiments compare the
// paper's linked-list versioning against: an EIP-1967-style transparent
// proxy whose fallback DELEGATECALLs into an implementation address held
// in a fixed storage slot, with an admin-only upgradeTo(address).
//
// minisol has no inline assembly or fallback functions, so the proxy is
// assembled by hand here — mirroring how such proxies are written in
// Yul/assembly in production OpenZeppelin code.

// EIP-1967 storage slots.
var (
	// ProxyImplSlot = keccak256("eip1967.proxy.implementation") - 1.
	ProxyImplSlot = ethtypes.HexToHash("0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc")
	// ProxyAdminSlot = keccak256("eip1967.proxy.admin") - 1.
	ProxyAdminSlot = ethtypes.HexToHash("0xb53127684a568b3173ae13b9f8a6016e243e63b6e8ee1178d6a717850b5d6103")
)

// UpgradeToSelector is the 4-byte selector of upgradeTo(address).
var UpgradeToSelector = func() [4]byte {
	h := ethtypes.Keccak256([]byte("upgradeTo(address)"))
	var s [4]byte
	copy(s[:], h[:4])
	return s
}()

// bb is a minimal bytecode builder with two-byte label patching.
type bb struct {
	code   []byte
	labels map[string]int
	refs   map[int]string
}

func newBB() *bb { return &bb{labels: map[string]int{}, refs: map[int]string{}} }

func (b *bb) op(ops ...evm.OpCode) *bb {
	for _, o := range ops {
		b.code = append(b.code, byte(o))
	}
	return b
}

func (b *bb) push(data []byte) *bb {
	b.code = append(b.code, byte(evm.PUSH1)+byte(len(data)-1))
	b.code = append(b.code, data...)
	return b
}

func (b *bb) pushByte(v byte) *bb { return b.push([]byte{v}) }

func (b *bb) pushLabel(name string) *bb {
	b.code = append(b.code, byte(evm.PUSH2))
	b.refs[len(b.code)] = name
	b.code = append(b.code, 0, 0)
	return b
}

func (b *bb) label(name string) *bb {
	b.labels[name] = len(b.code)
	return b.op(evm.JUMPDEST)
}

func (b *bb) assemble() []byte {
	for pos, name := range b.refs {
		target := b.labels[name]
		b.code[pos] = byte(target >> 8)
		b.code[pos+1] = byte(target)
	}
	return b.code
}

// ProxyRuntime returns the proxy's runtime bytecode.
func ProxyRuntime() []byte {
	b := newBB()
	// if selector == upgradeTo && caller == admin -> upgrade
	b.pushByte(0).op(evm.CALLDATALOAD).pushByte(0xE0).op(evm.SHR)
	b.push(UpgradeToSelector[:]).op(evm.EQ)
	b.op(evm.CALLER).push(ProxyAdminSlot[:]).op(evm.SLOAD).op(evm.EQ)
	b.op(evm.AND)
	b.pushLabel("upgrade").op(evm.JUMPI)

	// fallback: delegate everything to the implementation
	b.op(evm.CALLDATASIZE).pushByte(0).pushByte(0).op(evm.CALLDATACOPY)
	b.pushByte(0).pushByte(0).op(evm.CALLDATASIZE).pushByte(0)
	b.push(ProxyImplSlot[:]).op(evm.SLOAD)
	b.op(evm.GAS, evm.DELEGATECALL)
	b.op(evm.RETURNDATASIZE).pushByte(0).pushByte(0).op(evm.RETURNDATACOPY)
	b.pushLabel("ok").op(evm.JUMPI)
	b.op(evm.RETURNDATASIZE).pushByte(0).op(evm.REVERT)
	b.label("ok")
	b.op(evm.RETURNDATASIZE).pushByte(0).op(evm.RETURN)

	// upgrade: sstore(IMPL, calldataload(4)); stop
	b.label("upgrade")
	b.pushByte(4).op(evm.CALLDATALOAD)
	b.push(ProxyImplSlot[:]).op(evm.SSTORE)
	b.op(evm.STOP)
	return b.assemble()
}

// ProxyInitCode returns deployment code for the proxy. Append the
// 32-byte left-padded implementation address as the constructor
// argument.
func ProxyInitCode() []byte {
	runtime := ProxyRuntime()
	b := newBB()
	// sstore(ADMIN, caller)
	b.op(evm.CALLER).push(ProxyAdminSlot[:]).op(evm.SSTORE)
	// codecopy(0, codesize-32, 32); sstore(IMPL, mload(0))
	b.pushByte(32)
	b.pushByte(32).op(evm.CODESIZE, evm.SUB)
	b.pushByte(0).op(evm.CODECOPY)
	b.pushByte(0).op(evm.MLOAD)
	b.push(ProxyImplSlot[:]).op(evm.SSTORE)
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

func u16(n int) []byte { return []byte{byte(n >> 8), byte(n)} }

// ProxyABI is the management interface of the proxy itself.
func ProxyABI() *abi.ABI {
	return abi.New(nil, map[string]abi.Method{
		"upgradeTo": {
			Name:            "upgradeTo",
			Inputs:          []abi.Arg{{Name: "impl", Type: abi.AddressType}},
			StateMutability: "nonpayable",
		},
	}, nil)
}

// PackProxyDeploy builds the full creation payload for a proxy pointing
// at impl.
func PackProxyDeploy(impl ethtypes.Address) []byte {
	arg := make([]byte, 32)
	copy(arg[12:], impl[:])
	return append(ProxyInitCode(), arg...)
}
