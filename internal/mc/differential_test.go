package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"prochecker/internal/ts"
)

// Differential testing of the model checker: random small systems are
// checked both by mc and by an independent naive reference, and every
// counterexample is replayed step by step to confirm it is a real run of
// the system.

// randomSystem builds a deterministic pseudo-random guarded-command
// system from a seed, with extraVars more variables and extraRules more
// rules than the seed alone picks (zero extras reproduce the plain
// seeded system).
func randomSystem(t *testing.T, seed int64, extraVars, extraRules int) *ts.System {
	return randomSystemMix(t, seed, extraVars, extraRules, 0)
}

// randomSystemMix is randomSystem with a guard mix: when mix is non-zero,
// a second generator seeded from (seed, mix) rewrites guard literals
// into Neq, In, Or, Not, True and out-of-domain tests, so guards leave
// the conjunctive Eq fragment. mix 0 is exactly randomSystem.
func randomSystemMix(t *testing.T, seed int64, extraVars, extraRules int, mix uint8) *ts.System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var mixRng *rand.Rand
	if mix != 0 {
		mixRng = rand.New(rand.NewSource(seed*256 + int64(mix)))
	}
	sys := ts.NewSystem(fmt.Sprintf("rand-%d", seed))

	nVars := 2 + rng.Intn(2) + extraVars
	domains := make([][]string, nVars)
	for v := 0; v < nVars; v++ {
		n := 2 + rng.Intn(3)
		dom := make([]string, n)
		for i := range dom {
			dom[i] = fmt.Sprintf("v%d_%d", v, i)
		}
		domains[v] = dom
		if err := sys.AddVar(fmt.Sprintf("x%d", v), dom...); err != nil {
			t.Fatal(err)
		}
	}
	nRules := 3 + rng.Intn(6) + extraRules
	for r := 0; r < nRules; r++ {
		// Guard: conjunction over a random subset of variables.
		var guard ts.And
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				lit := ts.Eq{
					Var:   fmt.Sprintf("x%d", v),
					Value: domains[v][rng.Intn(len(domains[v]))],
				}
				guard = append(guard, mixLiteral(mixRng, lit, domains[v]))
			}
		}
		// Assigns: random subset.
		var assigns []ts.Assign
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				assigns = append(assigns, ts.Assign{
					Var:   fmt.Sprintf("x%d", v),
					Value: domains[v][rng.Intn(len(domains[v]))],
				})
			}
		}
		if err := sys.AddRule(ts.Rule{Name: fmt.Sprintf("r%d", r), Guard: guard, Assigns: assigns}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// mixLiteral rewrites the literal lit (on a variable with the given
// domain) into another condition over the same variable; a nil rng
// keeps it.
func mixLiteral(rng *rand.Rand, lit ts.Eq, domain []string) ts.Cond {
	if rng == nil {
		return lit
	}
	other := domain[rng.Intn(len(domain))]
	switch rng.Intn(10) {
	case 0:
		return ts.Neq{Var: lit.Var, Value: lit.Value}
	case 1:
		return ts.In{Var: lit.Var, Values: []string{lit.Value, other, "out_of_domain"}}
	case 2:
		return ts.Or{lit, ts.Eq{Var: lit.Var, Value: other}}
	case 3:
		return ts.Not{C: lit}
	case 4:
		return ts.True{}
	case 5:
		return ts.Neq{Var: lit.Var, Value: "out_of_domain"}
	case 6:
		if rng.Intn(4) == 0 { // rare: the rule never fires
			return ts.Eq{Var: lit.Var, Value: "out_of_domain"}
		}
		return lit
	case 7:
		return ts.And{ts.And{lit}, ts.In{Var: lit.Var, Values: []string{lit.Value, other}}}
	default:
		return lit
	}
}

// padWide adds unused variables to sys until the product of its domains
// exceeds denseRankLimit, so the explorer falls back to the hash index.
func padWide(t *testing.T, sys *ts.System) {
	t.Helper()
	product := 1
	for _, v := range sys.Vars() {
		product *= len(v.Domain)
	}
	dom := make([]string, 64)
	for i := range dom {
		dom[i] = fmt.Sprintf("p%d", i)
	}
	for i := 0; product <= denseRankLimit; i++ {
		if err := sys.AddVar(fmt.Sprintf("pad%d", i), dom...); err != nil {
			t.Fatal(err)
		}
		product *= len(dom)
	}
}

// naiveReachable computes the reachable state set with the slow
// interpreted API — an independent implementation path from the
// compiled-rule exploration inside Check.
func naiveReachable(sys *ts.System) map[string]ts.State {
	seen := map[string]ts.State{}
	init := sys.InitialState()
	seen[init.Key()] = init
	work := []ts.State{init}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, succ := range sys.Successors(cur) {
			if _, ok := seen[succ.State.Key()]; !ok {
				seen[succ.State.Key()] = succ.State
				work = append(work, succ.State)
			}
		}
	}
	return seen
}

// replayTrace re-executes a counterexample, asserting every step fires an
// enabled rule, and returns the final state.
func replayTrace(t *testing.T, sys *ts.System, tr *Trace) ts.State {
	t.Helper()
	cur := sys.InitialState()
	for i, step := range tr.Steps {
		rule, ok := sys.RuleByName(step.Rule)
		if !ok {
			t.Fatalf("step %d fires unknown rule %s", i, step.Rule)
		}
		if !sys.Enabled(rule, cur) {
			t.Fatalf("step %d: rule %s not enabled in %v", i, step.Rule, sys.Assignments(cur))
		}
		cur = sys.Apply(rule, cur)
	}
	return cur
}

func TestDifferentialInvariants(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		sys := randomSystem(t, seed, 0, 0)
		reach := naiveReachable(sys)

		// Invariant: a random (var, value) is never reached.
		rng := rand.New(rand.NewSource(seed + 1000))
		vars := sys.Vars()
		v := vars[rng.Intn(len(vars))]
		val := v.Domain[rng.Intn(len(v.Domain))]
		prop := Invariant{PropName: "diff", Holds: ts.Neq{Var: v.Name, Value: val}}

		// Reference verdict: does any reachable state violate?
		violated := false
		for _, s := range reach {
			if sys.Get(s, v.Name) == val {
				violated = true
				break
			}
		}

		res := Check(sys, prop, Options{})
		if res.Verified == violated {
			t.Fatalf("seed %d: mc says verified=%v, reference says violated=%v", seed, res.Verified, violated)
		}
		if violated {
			final := replayTrace(t, sys, res.Counterexample)
			if sys.Get(final, v.Name) != val {
				t.Fatalf("seed %d: counterexample does not end in a violating state", seed)
			}
		} else if res.StatesExplored != len(reach) {
			t.Fatalf("seed %d: mc explored %d states, reference %d", seed, res.StatesExplored, len(reach))
		}
	}
}

func TestDifferentialNeverFires(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		sys := randomSystem(t, seed, 0, 0)
		reach := naiveReachable(sys)
		target := "r1"

		// Reference: does r1 fire from any reachable state?
		fires := false
		rule, ok := sys.RuleByName(target)
		if ok {
			for _, s := range reach {
				if sys.Enabled(rule, s) {
					fires = true
					break
				}
			}
		}
		res := Check(sys, NeverFires{PropName: "diff", Match: func(n string) bool { return n == target }}, Options{})
		if res.Verified == fires {
			t.Fatalf("seed %d: mc verified=%v, reference fires=%v", seed, res.Verified, fires)
		}
		if fires {
			names := res.Counterexample.RuleNames()
			if names[len(names)-1] != target {
				t.Fatalf("seed %d: counterexample does not end with %s: %v", seed, target, names)
			}
			replayTrace(t, sys, res.Counterexample)
		}
	}
}

func TestDifferentialResponseCounterexamplesReplay(t *testing.T) {
	// Response semantics are harder to reference-check; at minimum every
	// reported lasso must be a genuine run.
	for seed := int64(200); seed < 240; seed++ {
		sys := randomSystem(t, seed, 0, 0)
		res := Check(sys, Response{
			PropName: "diff",
			Trigger:  func(n string) bool { return n == "r0" },
			Goal:     func(n string) bool { return n == "r2" },
		}, Options{})
		if res.Verified || res.Counterexample == nil {
			continue
		}
		replayTrace(t, sys, res.Counterexample)
		// The violation's trigger must actually appear in the trace.
		seenTrigger := false
		for _, s := range res.Counterexample.Steps {
			if s.Rule == "r0" {
				seenTrigger = true
			}
		}
		if !seenTrigger {
			t.Fatalf("seed %d: response counterexample lacks the trigger", seed)
		}
	}
}
