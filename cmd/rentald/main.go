// Command rentald runs the complete Evolving Rental Agreement Manager:
// an embedded devnet (blockchain tier), a content-addressed ABI store
// (IPFS tier), the embedded document database (data tier), the contract
// manager (business tier) and the web application (presentation tier) —
// the full four-tier architecture of the paper's Fig. 1 in one process.
//
// With -datadir every tier is durable: the chain under <datadir>/chain,
// agreements in the write-ahead-logged document store under
// <datadir>/db and ABI blobs under <datadir>/ipfs, so a restarted
// rentald resumes with the same contracts, balances and agreement
// history; the watchtower refolds the chain when it starts. The flags rentald shares
// with devnet are internal/node's.
//
// Usage:
//
//	rentald [-addr :8080] [-rpc :8545] [-ws-addr :8546] [-datadir ./rentald-data] [-metrics-addr :9090] [-pprof] [-log-level info] [-trace] [-trace-slow 250ms]
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
	"legalchain/internal/node"
	"legalchain/internal/wallet"
)

func main() {
	cfg := node.Config{Watch: true, Genesis: chain.DefaultGenesis()}
	flag.StringVar(&cfg.WebAddr, "addr", ":8080", "web application listen address")
	flag.StringVar(&cfg.RPCAddr, "rpc", ":8545", "JSON-RPC listen address (empty to disable)")
	node.RegisterFlags(flag.CommandLine, &cfg)
	flag.Parse()
	// The one account is the faucet that funds new users.
	cfg.Accounts = wallet.DevAccounts(wallet.DefaultDevSeed, 1)
	cfg.Genesis.Alloc = wallet.DevAlloc(cfg.Accounts, ethtypes.Ether(1_000_000_000))
	n, err := node.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Evolving Rental Agreement Manager\n")
	fmt.Printf("  web UI:   http://localhost%s (register two users to play landlord and tenant)\n", cfg.WebAddr)
	if cfg.RPCAddr != "" {
		fmt.Printf("  JSON-RPC: http://localhost%s\n", cfg.RPCAddr)
	}

	// Graceful shutdown: close listeners, then flush the chain snapshot
	// and the docstore WAL so restart resumes exactly here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}
