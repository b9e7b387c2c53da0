// Command devnet runs the local development chain with a JSON-RPC
// endpoint — the Ganache role in the paper's Table I. It pre-funds a
// deterministic set of accounts and prints their keys, so wallets and
// the rental application can sign transactions against it.
//
// With -datadir the chain is durable under <datadir>/chain: every
// sealed block is journaled to a checksummed log and the node resumes
// from it on the next start, verifying state roots as it recovers.
// Without -datadir the chain lives in memory, like Ganache. The flags
// devnet shares with rentald are internal/node's.
//
// Usage:
//
//	devnet [-addr :8545] [-ws-addr :8546] [-accounts 10] [-seed "legalchain devnet"] [-balance 1000] [-datadir ./devnet-data] [-metrics-addr :9090] [-pprof] [-log-level info] [-trace] [-trace-slow 250ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/node"
	"legalchain/internal/wallet"
)

func main() {
	cfg := node.Config{Genesis: chain.DefaultGenesis()}
	flag.StringVar(&cfg.RPCAddr, "addr", ":8545", "listen address for JSON-RPC")
	nAcc := flag.Int("accounts", 10, "number of pre-funded accounts")
	seed := flag.String("seed", wallet.DefaultDevSeed, "deterministic account seed")
	balance := flag.Int64("balance", 1000, "initial balance per account (ether)")
	flag.Uint64Var(&cfg.Genesis.ChainID, "chainid", 1337, "chain id")
	flag.Uint64Var(&cfg.Genesis.GasLimit, "gaslimit", 12_000_000, "block gas limit")
	node.RegisterFlags(flag.CommandLine, &cfg)
	flag.Parse()
	cfg.Accounts = wallet.DevAccounts(*seed, *nAcc)
	cfg.Genesis.Alloc = wallet.DevAlloc(cfg.Accounts, ethtypes.Ether(*balance))
	n, err := node.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("legalchain devnet — chain id %d, gas limit %d\n\n", cfg.Genesis.ChainID, cfg.Genesis.GasLimit)
	fmt.Println("Available accounts\n==================")
	for i, acc := range cfg.Accounts {
		fmt.Printf("(%d) %s (%d ETH)\n", i, acc.Address.Hex(), *balance)
	}
	fmt.Println("\nPrivate keys\n============")
	for i, acc := range cfg.Accounts {
		fmt.Printf("(%d) %s\n", i, hexutil.Encode(acc.Key.Bytes()))
	}
	fmt.Printf("\nJSON-RPC listening on %s\n", cfg.RPCAddr)

	// Graceful shutdown: stop accepting requests, then flush the final
	// snapshot so the next start replays nothing.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}
