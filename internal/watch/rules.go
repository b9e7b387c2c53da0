package watch

import (
	"fmt"
	"strconv"
	"strings"
)

// Alert rules: threshold conditions over the watchtower's derived
// signals, with an optional for-duration measured in blocks. A rule is
// declared in one line of a small config:
//
//	overdue > 0 for 2 blocks
//	stale-rentals: modified_pending >= 3
//	# comments and blank lines are ignored
//
// The optional "name:" prefix labels the rule; unnamed rules use the
// normalised expression as their name. A rule fires exactly once when
// its condition has held for the declared number of consecutive folded
// blocks, stays "firing" (without re-firing) while the condition holds,
// and resolves — rearming it — the first block the condition is false.
//
// Signals a rule can reference, all recomputed after every folded
// block:
//
//	overdue           obligations past their due block
//	tracked           tracked contracts (any state)
//	drafted, signed, active, modified_pending, terminated
//	                  contracts currently in that lifecycle state
//	fold_lag          blocks sealed but not yet folded
//	alerts_firing     rules currently firing (meta-signal)

// Rule is one parsed alert rule.
type Rule struct {
	Name      string  `json:"name"`
	Signal    string  `json:"signal"`
	Op        string  `json:"op"` // > >= < <= == !=
	Threshold float64 `json:"threshold"`
	ForBlocks uint64  `json:"forBlocks"` // consecutive blocks; 0 and 1 mean "immediately"
}

// Expr renders the rule back into its config-line form.
func (r Rule) Expr() string {
	s := fmt.Sprintf("%s %s %s", r.Signal, r.Op, strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	if r.ForBlocks > 1 {
		s += fmt.Sprintf(" for %d blocks", r.ForBlocks)
	}
	return s
}

// validSignals names every signal the engine can evaluate.
var validSignals = map[string]bool{
	"overdue": true, "tracked": true, "fold_lag": true, "alerts_firing": true,
	"drafted": true, "signed": true, "active": true, "modified_pending": true,
	"terminated": true,
}

// ParseRule parses one rule line: [name:] signal op threshold [for N blocks].
func ParseRule(line string) (Rule, error) {
	var r Rule
	expr := strings.TrimSpace(line)
	if i := strings.Index(expr, ":"); i >= 0 {
		r.Name = strings.TrimSpace(expr[:i])
		expr = strings.TrimSpace(expr[i+1:])
	}
	fields := strings.Fields(expr)
	if len(fields) != 3 && len(fields) != 6 {
		return r, fmt.Errorf("watch: bad rule %q: want \"signal op value [for N blocks]\"", line)
	}
	r.Signal = fields[0]
	if !validSignals[r.Signal] {
		return r, fmt.Errorf("watch: bad rule %q: unknown signal %q", line, r.Signal)
	}
	switch fields[1] {
	case ">", ">=", "<", "<=", "==", "!=":
		r.Op = fields[1]
	default:
		return r, fmt.Errorf("watch: bad rule %q: unknown operator %q", line, fields[1])
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return r, fmt.Errorf("watch: bad rule %q: bad threshold %q", line, fields[2])
	}
	r.Threshold = v
	if len(fields) == 6 {
		if fields[3] != "for" || (fields[5] != "blocks" && fields[5] != "block") {
			return r, fmt.Errorf("watch: bad rule %q: want \"for N blocks\"", line)
		}
		n, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil || n == 0 {
			return r, fmt.Errorf("watch: bad rule %q: bad duration %q", line, fields[4])
		}
		r.ForBlocks = n
	}
	if r.Name == "" {
		r.Name = r.Signal + r.Op + fields[2]
	}
	return r, nil
}

// ParseRules parses a rule config: one rule per line, # comments and
// blank lines skipped.
func ParseRules(text string) ([]Rule, error) {
	var out []Rule
	seen := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("line %d: duplicate rule name %q", i+1, r.Name)
		}
		seen[r.Name] = true
		out = append(out, r)
	}
	return out, nil
}

// ruleState is the engine's per-rule counter. A restarted tower
// rebuilds it by refolding the chain, so it resumes for-duration
// counting exactly where an uninterrupted tower would be.
type ruleState struct {
	Consecutive uint64 `json:"consecutive"` // blocks the condition has held
	Firing      bool   `json:"firing"`
}

// ruleEngine evaluates the configured rules once per folded block;
// state[i] counts for rules[i].
type ruleEngine struct {
	rules []Rule
	state []ruleState
}

func newRuleEngine(rules []Rule) *ruleEngine {
	return &ruleEngine{rules: rules, state: make([]ruleState, len(rules))}
}

// firing counts the rules currently in the firing state.
func (e *ruleEngine) firing() int {
	n := 0
	for _, st := range e.state {
		if st.Firing {
			n++
		}
	}
	return n
}

// compare applies the rule operator.
func (r Rule) compare(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Threshold
	case ">=":
		return v >= r.Threshold
	case "<":
		return v < r.Threshold
	case "<=":
		return v <= r.Threshold
	case "==":
		return v == r.Threshold
	default: // "!="
		return v != r.Threshold
	}
}

// eval advances every rule one block and returns the rules that
// transitioned to firing this block, paired with the signal value that
// tripped them.
func (e *ruleEngine) eval(signals map[string]float64) []firedRule {
	var fired []firedRule
	for i, r := range e.rules {
		st := &e.state[i]
		if r.compare(signals[r.Signal]) {
			st.Consecutive++
			need := r.ForBlocks
			if need == 0 {
				need = 1
			}
			if !st.Firing && st.Consecutive >= need {
				st.Firing = true
				fired = append(fired, firedRule{rule: r, value: signals[r.Signal]})
			}
		} else {
			st.Consecutive = 0
			st.Firing = false
		}
	}
	return fired
}

type firedRule struct {
	rule  Rule
	value float64
}
