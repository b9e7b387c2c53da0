package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"legalchain/internal/rpc"
	"legalchain/internal/watch"
)

// runWatch prints the watchtower's view of every tracked contract once:
// lifecycle states, open obligations, alert rules and recent alerts.
func runWatch(rest []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	rpcURL := fs.String("rpc", "http://localhost:8545", "JSON-RPC endpoint of a node running with -watch")
	asJSON := fs.Bool("json", false, "print the raw legal_watchStatus result")
	fs.Parse(rest)

	st := fetchWatchStatus(*rpcURL)
	if *asJSON {
		buf, err := json.MarshalIndent(st, "", "  ")
		check(err)
		fmt.Println(string(buf))
		return
	}
	printWatchStatus(st)
}

// runTop polls legal_watchStatus and redraws a live terminal view, the
// operator's `top` for legal contracts. -once renders a single frame
// (useful in scripts and transcripts).
func runTop(rest []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	rpcURL := fs.String("rpc", "http://localhost:8545", "JSON-RPC endpoint of a node running with -watch")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "render one frame and exit")
	fs.Parse(rest)

	if *once {
		printWatchStatus(fetchWatchStatus(*rpcURL))
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		// ANSI clear + home, like top(1); falls through harmlessly when
		// the output is not a terminal.
		fmt.Print("\033[2J\033[H")
		fmt.Printf("legalctl top — %s — %s (refresh %s, ^C to quit)\n\n",
			*rpcURL, time.Now().Format("15:04:05"), *interval)
		printWatchStatus(fetchWatchStatus(*rpcURL))
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

func fetchWatchStatus(url string) watch.Status {
	c := rpc.Dial(url)
	var st watch.Status
	check(c.Call(&st, "legal_watchStatus"))
	return st
}

func printWatchStatus(st watch.Status) {
	fmt.Printf("head #%d   folded #%d   lag %d   events %d\n",
		st.Head, st.Folded, st.LagBlocks, st.Events)
	states := make([]string, 0, 5)
	for _, s := range []string{"drafted", "signed", "active", "modified-pending", "terminated"} {
		if n := st.States[s]; n > 0 {
			states = append(states, fmt.Sprintf("%s:%d", s, n))
		}
	}
	if len(states) == 0 {
		states = append(states, "none")
	}
	fmt.Printf("contracts %d   [%s]   overdue %d   alerts firing %d / fired %d\n",
		st.Tracked, strings.Join(states, " "), st.Overdue, st.AlertsFiring, st.AlertsTotal)

	if len(st.Rules) > 0 {
		fmt.Println("\nRULES")
		for _, r := range st.Rules {
			mark := "ok    "
			if r.Firing {
				mark = "FIRING"
			}
			fmt.Printf("  %s  %-28s %s (held %d blocks)\n", mark, r.Name, r.Expr(), r.Consecutive)
		}
	}

	fmt.Println("\nCONTRACT                                    TEMPLATE           STATE             PAID    OBLIGATIONS")
	for _, c := range st.Contracts {
		months := fmt.Sprintf("%d/%d", c.MonthsPaid, c.Months)
		obls := make([]string, 0, len(c.Obligations))
		for _, o := range c.Obligations {
			s := fmt.Sprintf("%s@%d", o.Kind, o.DueBlock)
			if o.Overdue {
				s += fmt.Sprintf(" OVERDUE+%d", o.OverdueBy)
			}
			obls = append(obls, s)
		}
		if len(obls) == 0 {
			obls = append(obls, "-")
		}
		fmt.Printf("%s  %-18s %-17s %-7s %s\n",
			c.Address, c.Template, c.State, months, strings.Join(obls, ", "))
	}
	if len(st.Contracts) == 0 {
		fmt.Println("(no tracked contracts yet)")
	}
}
