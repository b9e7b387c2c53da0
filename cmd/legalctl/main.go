// Command legalctl is the operator tool of the reproduction: it prints
// the technology mapping of the paper's Table I, compiles the bundled
// contracts, shows selectors and disassembly, and runs the versioning
// demo (the Fig. 2 scenario) end to end on an in-process stack, printing
// the evidence line.
//
// Usage:
//
//	legalctl stack                # Table I: paper technology -> this repo
//	legalctl contracts            # list bundled contracts with code sizes
//	legalctl selectors <name>     # method selectors + event topics
//	legalctl disasm <name>        # runtime disassembly
//	legalctl demo                 # run the versioning scenario, print evidence line
//	legalctl audit [-json]        # build a 3-version chain, diff code/ABI/layout/behaviour
//	legalctl trace <name> <meth>  # step-trace a contract method on a fresh local chain
//	legalctl trace <txhash>       # replay a mined tx via debug_traceTransaction on a node
//	legalctl watch [-json]        # one-shot watchtower status from a node running -watch
//	legalctl top [-interval 2s]   # live polling view of contracts, obligations and alerts
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"legalchain/internal/abi"
	"legalchain/internal/minisol"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/ipfs"
	"legalchain/internal/rpc"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "stack":
		printStack()
	case "contracts":
		printContracts()
	case "selectors":
		requireArg(3)
		printSelectors(os.Args[2])
	case "disasm":
		requireArg(3)
		printDisasm(os.Args[2])
	case "demo":
		runDemo()
	case "audit":
		runAudit(os.Args[2:])
	case "watch":
		runWatch(os.Args[2:])
	case "top":
		runTop(os.Args[2:])
	case "trace":
		requireArg(3)
		// Two forms: a 0x… transaction hash replays a mined transaction
		// through debug_traceTransaction on a running node; a contract
		// name + method traces a fresh local call.
		if isTxHash(os.Args[2]) {
			runTxTrace(os.Args[2], os.Args[3:])
		} else {
			requireArg(4)
			runTrace(os.Args[2], os.Args[3])
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: legalctl stack|contracts|selectors <name>|disasm <name>|demo|audit [-json]|trace <name> <method>|trace <txhash> [-rpc url] [-tracer structLog|callTracer]|watch [-rpc url] [-json]|top [-rpc url] [-interval d] [-once]")
	os.Exit(2)
}

func requireArg(n int) {
	if len(os.Args) < n {
		usage()
	}
}

// printStack regenerates the paper's Table I as the mapping onto this
// repository's modules.
func printStack() {
	rows := [][3]string{
		{"Solidity", "internal/minisol", "compiler for the contract language -> EVM bytecode + ABI"},
		{"Ethereum/EVM", "internal/evm + internal/state + internal/trie", "gas-metered execution over journaled Merkleised state"},
		{"Ganache", "internal/chain + cmd/devnet", "instant-seal local chain with funded accounts"},
		{"MetaMask", "internal/wallet", "secp256k1 keystore and transaction signing"},
		{"Web3py", "internal/web3 + internal/rpc", "client bindings over JSON-RPC or in-process"},
		{"IPFS", "internal/ipfs", "content-addressed ABI/document store, address->CID index"},
		{"MySQL", "internal/docstore", "WAL-backed embedded document database"},
		{"Django", "internal/app + cmd/rentald", "web application: dashboard, upload, deploy, modify"},
		{"Python manager", "internal/core", "contract manager: versioning, migration, lifecycle"},
	}
	fmt.Printf("%-16s %-44s %s\n", "PAPER (Table I)", "THIS REPOSITORY", "PURPOSE")
	for _, r := range rows {
		fmt.Printf("%-16s %-44s %s\n", r[0], r[1], r[2])
	}
}

func printContracts() {
	names := make([]string, 0)
	for name := range contracts.Sources() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		art, err := contracts.Artifact(name)
		if err != nil {
			fmt.Printf("%-20s compile error: %v\n", name, err)
			continue
		}
		fmt.Printf("%-20s deploy %5d B   runtime %5d B   %d methods, %d events\n",
			name, len(art.Bytecode), len(art.Runtime), len(art.ABI.Methods), len(art.ABI.Events))
	}
}

func printSelectors(name string) {
	art, err := contracts.Artifact(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	methods := make([]string, 0, len(art.ABI.Methods))
	for m := range art.ABI.Methods {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Println("methods:")
	for _, m := range methods {
		id := art.ABI.Methods[m].ID()
		fmt.Printf("  0x%x  %s\n", id, art.ABI.Methods[m].Signature())
	}
	events := make([]string, 0, len(art.ABI.Events))
	for e := range art.ABI.Events {
		events = append(events, e)
	}
	sort.Strings(events)
	fmt.Println("events:")
	for _, e := range events {
		fmt.Printf("  %s  %s\n", art.ABI.Events[e].Topic(), art.ABI.Events[e].Signature())
	}
}

func printDisasm(name string) {
	art, err := contracts.Artifact(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(strings.Join(evm.Disassemble(art.Runtime), "\n"))
}

// devStack is the in-process stack demo, audit and trace run on: a
// fresh chain that funds two dev accounts, and the business tier, whose
// client signs for both, over an in-memory docstore and IPFS node.
type devStack struct {
	bc               *chain.Blockchain
	landlord, tenant wallet.Account
	store            *docstore.Store
	m                *core.Manager
	svc              *core.RentalService
}

func newDevStack() *devStack {
	accs := wallet.DevAccounts(wallet.DefaultDevSeed, 2)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	bc := chain.New(g)
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
	check(err)
	store, err := docstore.Open("")
	check(err)
	m := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store)
	return &devStack{bc: bc, landlord: accs[0], tenant: accs[1],
		store: store, m: m, svc: core.NewRentalService(m)}
}

// runDemo executes the paper's modification scenario on an in-process
// stack and prints the resulting evidence line.
func runDemo() {
	st := newDevStack()
	defer st.store.Close()
	landlord, tenant, m, svc := st.landlord, st.tenant, st.m, st.svc

	fmt.Println("1. landlord deploys BaseRental (v1)")
	v1, err := svc.DeployRental(landlord.Address, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", LegalDoc: []byte("%PDF-1.4 demo agreement"),
	})
	check(err)
	fmt.Printf("   -> %s (gas %d)\n", v1.Contract.Address, v1.GasUsed)

	fmt.Println("2. tenant confirms and pays 3 months of rent")
	check(svc.Confirm(tenant.Address, v1.Contract.Address))
	for i := 0; i < 3; i++ {
		_, err := svc.PayRent(tenant.Address, v1.Contract.Address)
		check(err)
	}

	fmt.Println("3. landlord modifies the agreement (maintenance clause) -> v2")
	v2, err := svc.Modify(landlord.Address, v1.Contract.Address, core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	check(err)
	fmt.Printf("   -> %s (gas %d, incl. linking + migration)\n", v2.Contract.Address, v2.GasUsed)

	fmt.Println("4. tenant confirms the modification; old version terminates")
	check(svc.ConfirmModification(tenant.Address, v2.Contract.Address))

	fmt.Println("5. walking the on-chain evidence line from v2:")
	chainInfo, err := m.WalkStates(v2.Contract.Address)
	check(err)
	check(core.VerifyChain(chainInfo))
	for _, node := range chainInfo {
		fmt.Printf("   v%d %-10s %s\n", node.Version, node.State, node.Address)
	}

	snap, err := m.LoadSnapshot(landlord.Address, v2.Contract.Address)
	check(err)
	fmt.Println("6. data migrated through the DataStorage contract:")
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %-14s = %s\n", k, snap[k])
	}
	fmt.Println("demo complete: linked-list versioning, ABI-via-IPFS and data migration all verified")
}

// isTxHash reports whether s is a 0x-prefixed 32-byte hex hash.
func isTxHash(s string) bool {
	_, err := ethtypes.ParseHash(s)
	return err == nil && strings.HasPrefix(s, "0x")
}

// runTxTrace replays a mined transaction on a running node through
// debug_traceTransaction and prints the tracer's JSON verbatim.
func runTxTrace(hash string, rest []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	rpcURL := fs.String("rpc", "http://localhost:8545", "JSON-RPC endpoint of the node that mined the transaction")
	tracer := fs.String("tracer", "callTracer", "tracer: structLog (step list) or callTracer (frame tree)")
	rid := fs.String("request-id", "", "X-Request-Id to send (joins server logs and /debug/traces)")
	fs.Parse(rest)

	c := rpc.Dial(*rpcURL)
	if *rid != "" {
		c.SetRequestID(*rid)
	}
	var out json.RawMessage
	err := c.Call(&out, "debug_traceTransaction", hash, map[string]string{"tracer": *tracer})
	check(err)
	var pretty bytes.Buffer
	check(json.Indent(&pretty, out, "", "  "))
	fmt.Println(pretty.String())
}

// runTrace deploys a bundled contract on a scratch devnet and traces one
// zero-argument method call, printing gas and the opcode histogram.
func runTrace(name, method string) {
	art, err := contracts.Artifact(name)
	check(err)
	m, ok := art.ABI.Methods[method]
	if !ok {
		fmt.Fprintf(os.Stderr, "legalctl: %s has no method %q\n", name, method)
		os.Exit(1)
	}
	if len(m.Inputs) != 0 {
		fmt.Fprintf(os.Stderr, "legalctl: trace supports zero-argument methods; %q takes %d\n", method, len(m.Inputs))
		os.Exit(1)
	}
	st := newDevStack()
	defer st.store.Close()
	from := st.landlord.Address
	// Deploy with placeholder constructor args when the ctor needs them.
	args := placeholderArgs(art, from)
	bound, _, err := st.m.Client.Deploy(web3.TxOpts{From: from, GasLimit: 5_000_000},
		art.ABI, art.Bytecode, args...)
	check(err)
	input, err := art.ABI.Pack(method)
	check(err)
	res, trace := st.bc.TraceCall(from, &bound.Address, input, 0)
	fmt.Printf("%s.%s: gas=%d steps=%d failed=%v\n", name, method, res.GasUsed, len(trace.Logs), res.Err != nil)
	if res.Err != nil {
		fmt.Printf("  error: %v\n", res.Err)
	}
	ops := make([]string, 0, len(trace.OpCount))
	for op := range trace.OpCount {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if ci, cj := trace.OpCount[ops[i]], trace.OpCount[ops[j]]; ci != cj {
			return ci > cj
		}
		return ops[i] < ops[j]
	})
	fmt.Println("opcode histogram:")
	for _, op := range ops {
		fmt.Printf("  %-14s %d\n", op, trace.OpCount[op])
	}
}

// placeholderArgs builds benign constructor arguments for tracing.
func placeholderArgs(art *minisol.Artifact, self ethtypes.Address) []interface{} {
	if art.ABI.Constructor == nil {
		return nil
	}
	var out []interface{}
	for _, in := range art.ABI.Constructor.Inputs {
		switch in.Type.Kind {
		case abi.KindAddress:
			out = append(out, self)
		case abi.KindString:
			out = append(out, "trace-placeholder")
		case abi.KindBool:
			out = append(out, true)
		default:
			out = append(out, uint256.NewUint64(1))
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "legalctl:", err)
		os.Exit(1)
	}
}
