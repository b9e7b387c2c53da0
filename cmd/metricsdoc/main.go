// Command metricsdoc keeps the README's metrics reference honest: it
// inventories every metric family the stack registers at init and
// fails when one has no row in the reference table, or when a row names
// a legalchain_* family nothing registers — so a new instrument cannot
// merge undocumented, nor a retired one stay documented.
//
// Usage:
//
//	metricsdoc                 # check README.md, exit 1 on drift
//	metricsdoc -readme DOC.md  # check a different file
//	metricsdoc -list           # print the markdown table rows
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"legalchain/internal/metrics"

	// Blank imports pull in every package that registers instruments at
	// init, so metrics.Default holds the full inventory. Keep in sync
	// with the packages `grep -rl metrics.Default internal/` reports.
	_ "legalchain/internal/blockdb"
	_ "legalchain/internal/chain"
	_ "legalchain/internal/docstore"
	_ "legalchain/internal/evm"
	_ "legalchain/internal/obs"
	_ "legalchain/internal/rpc"
	_ "legalchain/internal/statestore"
	_ "legalchain/internal/watch"
	_ "legalchain/internal/xtrace"
)

func main() {
	readme := flag.String("readme", "README.md", "documentation file the metric names must appear in")
	list := flag.Bool("list", false, "print the inventory as markdown table rows instead of checking")
	flag.Parse()

	fams := metrics.Default.Families()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	if *list {
		fmt.Println("| Metric | Type | Description |")
		fmt.Println("|---|---|---|")
		for _, f := range fams {
			fmt.Printf("| `%s` | %s | %s |\n", f.Name, f.Type, strings.ReplaceAll(f.Help, "|", "\\|"))
		}
		return
	}

	doc, err := os.ReadFile(*readme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricsdoc: %v\n", err)
		os.Exit(2)
	}
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	missing, stale := drift(names, string(doc))
	for _, d := range []struct {
		names []string
		what  string
	}{
		{missing, "registered metric(s) without a row in"},
		{stale, "row(s) naming no registered metric in"},
	} {
		if len(d.names) == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "metricsdoc: %d %s %s:\n", len(d.names), d.what, *readme)
		for _, name := range d.names {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
	}
	if len(missing)+len(stale) > 0 {
		fmt.Fprintln(os.Stderr, "make the metrics reference table match (regenerate rows with `go run ./cmd/metricsdoc -list`)")
		os.Exit(1)
	}
	fmt.Printf("metricsdoc: all %d registered metrics documented in %s, no stale rows\n", len(fams), *readme)
}

// tableRow matches one row of the metrics reference table and captures
// the family it documents.
var tableRow = regexp.MustCompile("(?m)^\\| `(legalchain_[a-z0-9_]+)` \\|")

// drift compares the registered families with the families the doc's
// reference table has rows for: missing are registered without a row,
// stale have a row nothing registers. Both come back sorted.
func drift(registered []string, doc string) (missing, stale []string) {
	rows := map[string]bool{}
	for _, m := range tableRow.FindAllStringSubmatch(doc, -1) {
		rows[m[1]] = true
	}
	known := map[string]bool{}
	for _, name := range registered {
		known[name] = true
		if !rows[name] {
			missing = append(missing, name)
		}
	}
	for name := range rows {
		if !known[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale
}
