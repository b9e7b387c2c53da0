package legalchain_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsRecordIsWhole checks EXPERIMENTS.md, the record of why
// each measured change is believed: every "## " heading appears once,
// the "## P<n>" sections come in increasing order, and every §P<n> that
// ROADMAP.md, CHANGES.md, DESIGN.md, README.md or EXPERIMENTS.md itself
// cites is a section that exists.
func TestExperimentsRecordIsWhole(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	section := regexp.MustCompile(`^## P(\d+) `)
	seen := map[string]int{}
	sections := map[int]bool{}
	last := 0
	for i, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		if first, ok := seen[line]; ok {
			t.Errorf("EXPERIMENTS.md:%d repeats the heading of line %d: %q", i+1, first, line)
		}
		seen[line] = i + 1
		if m := section.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			if n <= last {
				t.Errorf("EXPERIMENTS.md:%d: §P%d follows §P%d", i+1, n, last)
			}
			sections[n], last = true, n
		}
	}
	cite := regexp.MustCompile(`§P(\d+)`)
	for _, doc := range []string{"ROADMAP.md", "CHANGES.md", "DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[int]bool{}
		for _, m := range cite.FindAllStringSubmatch(string(text), -1) {
			if n, _ := strconv.Atoi(m[1]); !sections[n] && !missing[n] {
				missing[n] = true
				t.Errorf("%s cites §P%d, which EXPERIMENTS.md does not have", doc, n)
			}
		}
	}
}
