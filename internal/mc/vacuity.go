// Vacuity pre-pruning: the static dataflow layer's abstract
// reachability fixpoint decides, before any exploration, whether a
// property's trigger can fire at all. A NeverFires property whose match
// pattern covers no statically-fireable rule can never be violated; a
// Response property whose trigger covers none can never incur an
// obligation. Both hold vacuously: the catalogue pool
// (report.Evaluator) skips exploring them and records the static
// witness instead. The abstraction over-approximates fireability, so
// pruning is sound: a skipped property is one the explorer would have
// verified.
package mc

import (
	"fmt"

	"prochecker/internal/dataflow"
	"prochecker/internal/ts"
)

// StaticReach runs the dataflow layer's abstract reachability fixpoint
// over the system: the set of rules that can statically fire. The
// result is valid for the system's current generation.
func StaticReach(sys *ts.System) *dataflow.RuleReach {
	return dataflow.FireableRules(sys)
}

// Vacuous reports whether prop holds vacuously over the abstract
// reachability result — its trigger matches no statically-fireable rule
// — along with the static witness to record in place of a trace.
// Invariants are never vacuous: their obligation is a state predicate,
// not an event.
func Vacuous(reach *dataflow.RuleReach, sys *ts.System, prop Property) (bool, string) {
	matchesFireable := func(match func(string) bool) bool {
		for _, r := range sys.Rules() {
			if match(r.Name) && reach.Fireable[r.Name] {
				return true
			}
		}
		return false
	}
	switch p := prop.(type) {
	case NeverFires:
		if p.Match == nil || matchesFireable(p.Match) {
			return false, ""
		}
		return true, fmt.Sprintf("no rule matching the never-fires pattern is statically fireable (%s)", reach.Witness())
	case Response:
		if p.Trigger == nil || matchesFireable(p.Trigger) {
			return false, ""
		}
		return true, fmt.Sprintf("no rule matching the response trigger is statically fireable (%s)", reach.Witness())
	}
	return false, ""
}
