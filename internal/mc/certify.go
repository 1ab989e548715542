package mc

import (
	"fmt"

	"prochecker/internal/ts"
)

// Certify re-checks a counterexample without the reachability graph. It
// replays res.Counterexample from sys.InitialState() with the
// interpreted sys.Enabled and sys.Apply, which share nothing with the
// compiled guard closures or bitsets the explorer used, and checks that
// every rule exists, every guard holds in its pre-state, every
// post-state equals the recorded After, and the trace shows what the
// property's verdict claims:
//
//   - invariant: the last state violates the predicate;
//   - never-fires: the last rule matches the pattern;
//   - response: the obligation is pending after the last step (trigger,
//     goal and GoalState replayed as the product does), and a deadlock
//     (LoopStart == len(Steps)) ends in a state with no enabled rule.
//
// Lasso closure is not checked: the reported LoopStart is the BFS depth
// of the back-edge target, which is not always on the printed prefix.
func Certify(sys *ts.System, prop Property, res Result) error {
	tr := res.Counterexample
	if tr == nil {
		return fmt.Errorf("mc: certifying %s: no counterexample", prop.Name())
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("mc: certifying %s: %s", prop.Name(), fmt.Sprintf(format, args...))
	}
	cur := sys.InitialState()
	if !sameAssignment(sys.Assignments(cur), tr.Initial) {
		return fail("initial assignment differs from the system's")
	}
	resp, isResponse := prop.(Response)
	pending := false
	for i, st := range tr.Steps {
		r, ok := sys.RuleByName(st.Rule)
		if !ok {
			return fail("step %d fires unknown rule %s", i+1, st.Rule)
		}
		if !sys.Enabled(r, cur) {
			return fail("step %d fires %s, whose guard is false in its pre-state", i+1, st.Rule)
		}
		cur = sys.Apply(r, cur)
		if !sameAssignment(sys.Assignments(cur), st.After) {
			return fail("step %d (%s) post-state differs from the recorded one", i+1, st.Rule)
		}
		if isResponse {
			if resp.Trigger(st.Rule) {
				pending = true
			}
			if resp.Goal != nil && resp.Goal(st.Rule) {
				pending = false
			}
			if pending && resp.GoalState != nil && resp.GoalState.Eval(sys, cur) {
				pending = false
			}
		}
	}
	switch p := prop.(type) {
	case Invariant:
		if p.Holds.Eval(sys, cur) {
			return fail("the last state satisfies the invariant")
		}
	case NeverFires:
		if len(tr.Steps) == 0 || !p.Match(tr.Steps[len(tr.Steps)-1].Rule) {
			return fail("the last step fires no matching rule")
		}
	case Response:
		if !pending {
			return fail("no obligation is pending after the last step")
		}
		switch {
		case tr.LoopStart == len(tr.Steps):
			for _, r := range sys.Rules() {
				if sys.Enabled(r, cur) {
					return fail("deadlock state enables %s", r.Name)
				}
			}
		case tr.LoopStart < 0 || tr.LoopStart > len(tr.Steps):
			return fail("loop start %d outside the %d-step trace", tr.LoopStart, len(tr.Steps))
		}
	default:
		return fail("unsupported property kind %s", prop.kind())
	}
	return nil
}

// sameAssignment reports whether two name->value assignments are equal.
func sameAssignment(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
