package watch

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("overdue > 0 for 2 blocks")
	if err != nil {
		t.Fatal(err)
	}
	if r.Signal != "overdue" || r.Op != ">" || r.Threshold != 0 || r.ForBlocks != 2 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Name != "overdue>0" {
		t.Fatalf("default name %q", r.Name)
	}
	if r.Expr() != "overdue > 0 for 2 blocks" {
		t.Fatalf("Expr() = %q", r.Expr())
	}

	r, err = ParseRule("stale: modified_pending >= 3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "stale" || r.Signal != "modified_pending" || r.Op != ">=" || r.Threshold != 3 || r.ForBlocks != 0 {
		t.Fatalf("parsed %+v", r)
	}

	if _, err := ParseRule("overdue > 0 for 1 block"); err != nil {
		t.Fatalf("singular block: %v", err)
	}

	for _, bad := range []string{
		"",
		"overdue >",
		"nonsense > 1",
		"overdue ~ 1",
		"overdue > banana",
		"overdue > 0 for x blocks",
		"overdue > 0 for 0 blocks",
		"overdue > 0 in 2 blocks",
		"overdue > 0 for 2 hours",
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(`
# watchtower alerts
overdue > 0 for 2 blocks

lagging: fold_lag >= 5
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "overdue>0" || rules[1].Name != "lagging" {
		t.Fatalf("parsed %+v", rules)
	}

	if _, err := ParseRules("a: overdue > 0\na: tracked > 1"); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := ParseRules("overdue !"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRuleEngineFireOnce covers the core semantics: a for-duration rule
// fires exactly once after N consecutive true blocks, stays silent
// while true, and rearms when the condition clears.
func TestRuleEngineFireOnce(t *testing.T) {
	r, _ := ParseRule("missed-rent: overdue > 0 for 2 blocks")
	e := newRuleEngine([]Rule{r})
	sig := func(v float64) map[string]float64 { return map[string]float64{"overdue": v} }

	if f := e.eval(sig(1)); len(f) != 0 {
		t.Fatal("fired after one block")
	}
	f := e.eval(sig(1))
	if len(f) != 1 || f[0].rule.Name != "missed-rent" || f[0].value != 1 {
		t.Fatalf("second block: %+v", f)
	}
	if e.firing() != 1 {
		t.Fatal("not firing")
	}
	// Held condition does not re-fire.
	for i := 0; i < 5; i++ {
		if f := e.eval(sig(2)); len(f) != 0 {
			t.Fatal("re-fired while held")
		}
	}
	// Clearing rearms.
	e.eval(sig(0))
	if e.firing() != 0 {
		t.Fatal("still firing after clear")
	}
	e.eval(sig(1))
	if f := e.eval(sig(1)); len(f) != 1 {
		t.Fatal("did not rearm")
	}
}

// TestRuleEngineRefoldResumesCounters: a restarted tower keeps no
// rule counters; a fresh engine fed the same signals from block 1 is
// where the stopped one was, one block short of firing.
func TestRuleEngineRefoldResumesCounters(t *testing.T) {
	r, _ := ParseRule("overdue > 0 for 3 blocks")
	history := []map[string]float64{{"overdue": 0}, {"overdue": 1}, {"overdue": 1}}
	e, refold := newRuleEngine([]Rule{r}), newRuleEngine([]Rule{r})
	for _, sig := range history {
		e.eval(sig)
		refold.eval(sig)
	}
	if !reflect.DeepEqual(e.state, refold.state) || refold.state[0].Consecutive != 2 {
		t.Fatalf("counters %+v, refolded %+v", e.state, refold.state)
	}
	if f := refold.eval(map[string]float64{"overdue": 1}); len(f) != 1 {
		t.Fatal("refolded engine lost the consecutive count")
	}
}

func TestRuleCompareOps(t *testing.T) {
	cases := []struct {
		op   string
		v    float64
		want bool
	}{
		{">", 1, true}, {">", 0, false},
		{">=", 0, true}, {">=", -1, false},
		{"<", -1, true}, {"<", 0, false},
		{"<=", 0, true}, {"<=", 1, false},
		{"==", 0, true}, {"==", 2, false},
		{"!=", 2, true}, {"!=", 0, false},
	}
	for _, c := range cases {
		r := Rule{Op: c.op, Threshold: 0}
		if r.compare(c.v) != c.want {
			t.Fatalf("%g %s 0 = %v", c.v, c.op, !c.want)
		}
	}
}

// FuzzParseRules feeds -watch-rules text to the parser: no panic, and
// every parsed rule, re-rendered as "name: Expr()", parses back to a
// rule with the same name and signal that evaluates the same way.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"overdue > 0 for 2 blocks",
		"stale-rentals: modified_pending >= 3",
		"# watchtower alerts\noverdue > 0 for 2 blocks\n\nlagging: fold_lag >= 5",
		"missed: overdue > 0 for 3 blocks\nlagging: fold_lag > 16",
		"overdue > NaN",
		"tracked < Inf",
		"active != -Inf",
		"signed == 0x1p-2",
		"drafted > 0x10",
		": overdue > 0",
		"my rule: overdue > 0 for 1 block",
		"  spaced  name : terminated <= 1e3 for 3 blocks",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseRules(text)
		if err != nil {
			return
		}
		lines := make([]string, len(rules))
		for i, r := range rules {
			lines[i] = r.Name + ": " + r.Expr()
		}
		again, err := ParseRules(strings.Join(lines, "\n"))
		if err != nil {
			t.Fatalf("%q re-rendered as %q: %v", text, lines, err)
		}
		if len(again) != len(rules) {
			t.Fatalf("%q: %d rules, re-rendered %d", text, len(rules), len(again))
		}
		for i, r := range rules {
			q := again[i]
			if q.Name != r.Name || q.Signal != r.Signal {
				t.Fatalf("%q: rule %+v re-parsed as %+v", text, r, q)
			}
			// The same signal sequence drives both engines through the
			// same counters: each probe value held for three blocks.
			e, eq := newRuleEngine([]Rule{r}), newRuleEngine([]Rule{q})
			for _, v := range []float64{r.Threshold, math.Nextafter(r.Threshold, math.Inf(1)), math.Nextafter(r.Threshold, math.Inf(-1)),
				0, -1, 1, math.Inf(1), math.Inf(-1), math.NaN()} {
				for k := 0; k < 3; k++ {
					sig := map[string]float64{r.Signal: v}
					if f, fq := e.eval(sig), eq.eval(sig); len(f) != len(fq) || e.state[0] != eq.state[0] {
						t.Fatalf("%q: %s and %s disagree at %g: %+v vs %+v", text, lines[i], q.Expr(), v, e.state[0], eq.state[0])
					}
				}
			}
			if maxU64(r.ForBlocks, 1) != maxU64(q.ForBlocks, 1) {
				t.Fatalf("%q: window %d re-parsed as %d", text, r.ForBlocks, q.ForBlocks)
			}
		}
	})
}
