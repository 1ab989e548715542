package mc

import (
	"strings"
	"testing"

	"prochecker/internal/ts"
)

// counter builds a system counting 0..max with an optional reset rule.
func counter(t *testing.T, max int, withReset bool) *ts.System {
	t.Helper()
	sys := ts.NewSystem("counter")
	domain := make([]string, max+1)
	for i := range domain {
		domain[i] = strings.Repeat("i", i) + "v" // v, iv, iiv...
	}
	if err := sys.AddVar("n", domain...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < max; i++ {
		if err := sys.AddRule(ts.Rule{
			Name:    "inc" + domain[i],
			Guard:   ts.Eq{Var: "n", Value: domain[i]},
			Assigns: []ts.Assign{{Var: "n", Value: domain[i+1]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if withReset {
		if err := sys.AddRule(ts.Rule{
			Name:    "reset",
			Guard:   ts.Eq{Var: "n", Value: domain[max]},
			Assigns: []ts.Assign{{Var: "n", Value: domain[0]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestInvariantHolds(t *testing.T) {
	sys := counter(t, 3, true)
	res := Check(sys, Invariant{PropName: "never-unreachable", Holds: ts.Neq{Var: "n", Value: "unused"}}, Options{})
	// Domain has no "unused" value, so Neq is trivially true everywhere.
	if !res.Verified {
		t.Errorf("invariant not verified: %+v", res)
	}
	if res.StatesExplored != 4 {
		t.Errorf("states = %d, want 4", res.StatesExplored)
	}
}

func TestInvariantViolationWithTrace(t *testing.T) {
	sys := counter(t, 3, false)
	res := Check(sys, Invariant{PropName: "below-3", Holds: ts.Neq{Var: "n", Value: "iiiv"}}, Options{})
	if res.Verified {
		t.Fatal("violated invariant reported verified")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	if got := len(res.Counterexample.Steps); got != 3 {
		t.Errorf("counterexample length = %d, want 3 (shortest path)", got)
	}
	if res.Counterexample.LoopStart != -1 {
		t.Error("safety counterexample should not be a lasso")
	}
}

func TestInvariantViolatedInitially(t *testing.T) {
	sys := counter(t, 2, false)
	res := Check(sys, Invariant{PropName: "never-start", Holds: ts.Neq{Var: "n", Value: "v"}}, Options{})
	if res.Verified {
		t.Fatal("initially-violated invariant reported verified")
	}
	if len(res.Counterexample.Steps) != 0 {
		t.Error("counterexample for initial violation should be empty path")
	}
}

func TestNeverFires(t *testing.T) {
	sys := counter(t, 3, true)
	res := Check(sys, NeverFires{PropName: "no-reset", Match: func(r string) bool { return r == "reset" }}, Options{})
	if res.Verified {
		t.Fatal("reset fires but property verified")
	}
	names := res.Counterexample.RuleNames()
	if names[len(names)-1] != "reset" {
		t.Errorf("counterexample should end with reset: %v", names)
	}
	res2 := Check(sys, NeverFires{PropName: "no-bogus", Match: func(r string) bool { return r == "bogus" }}, Options{})
	if !res2.Verified {
		t.Error("never-firing rule reported as firing")
	}
}

func TestResponseHolds(t *testing.T) {
	// inc0 always eventually leads to reset (the loop is forced).
	sys := counter(t, 2, true)
	res := Check(sys, Response{
		PropName: "inc-leads-to-reset",
		Trigger:  func(r string) bool { return r == "incv" },
		Goal:     func(r string) bool { return r == "reset" },
	}, Options{})
	if !res.Verified {
		t.Errorf("response property not verified: %+v", res)
	}
}

func TestResponseViolatedByDeadlock(t *testing.T) {
	// Without reset the counter deadlocks at max; the goal never fires.
	sys := counter(t, 2, false)
	res := Check(sys, Response{
		PropName: "inc-leads-to-reset",
		Trigger:  func(r string) bool { return r == "incv" },
		Goal:     func(r string) bool { return r == "reset" },
	}, Options{})
	if res.Verified {
		t.Fatal("deadlocking response property verified")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	if res.Counterexample.LoopStart != len(res.Counterexample.Steps) {
		t.Errorf("expected deadlock lasso, got LoopStart=%d of %d steps",
			res.Counterexample.LoopStart, len(res.Counterexample.Steps))
	}
}

func TestResponseViolatedByCycle(t *testing.T) {
	// A two-state ping-pong that never reaches the goal state.
	sys := ts.NewSystem("pingpong")
	if err := sys.AddVar("x", "a", "b", "goal"); err != nil {
		t.Fatal(err)
	}
	mustRule := func(r ts.Rule) {
		t.Helper()
		if err := sys.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	mustRule(ts.Rule{Name: "ab", Guard: ts.Eq{Var: "x", Value: "a"}, Assigns: []ts.Assign{{Var: "x", Value: "b"}}})
	mustRule(ts.Rule{Name: "ba", Guard: ts.Eq{Var: "x", Value: "b"}, Assigns: []ts.Assign{{Var: "x", Value: "a"}}})
	// The goal rule exists but the adversary may loop forever without it.
	mustRule(ts.Rule{Name: "win", Guard: ts.Eq{Var: "x", Value: "b"}, Assigns: []ts.Assign{{Var: "x", Value: "goal"}}})
	res := Check(sys, Response{
		PropName: "ab-leads-to-goal",
		Trigger:  func(r string) bool { return r == "ab" },
		Goal:     func(r string) bool { return r == "win" },
	}, Options{})
	if res.Verified {
		t.Fatal("cycle violation missed")
	}
	if res.Counterexample.LoopStart < 0 {
		t.Error("cycle counterexample should be a lasso")
	}
}

func TestResponseGoalState(t *testing.T) {
	sys := counter(t, 2, true)
	res := Check(sys, Response{
		PropName:  "inc-leads-to-max-state",
		Trigger:   func(r string) bool { return r == "incv" },
		Goal:      func(r string) bool { return false },
		GoalState: ts.Eq{Var: "n", Value: "iiv"},
	}, Options{})
	if !res.Verified {
		t.Errorf("goal-state response not verified: %+v", res)
	}
}

func TestTruncation(t *testing.T) {
	sys := counter(t, 50, false)
	res := Check(sys, Invariant{PropName: "cap", Holds: ts.True{}}, Options{MaxStates: 10})
	if !res.Truncated {
		t.Error("truncation not reported")
	}
	if res.Verified {
		t.Error("truncated run reported verified")
	}
}

func TestTraceStringMarksLoop(t *testing.T) {
	tr := &Trace{Steps: []Step{{Rule: "a"}, {Rule: "b"}}, LoopStart: 1}
	s := tr.String()
	if !strings.Contains(s, "loop starts here") {
		t.Errorf("trace string = %q", s)
	}
	dead := &Trace{Steps: []Step{{Rule: "a"}}, LoopStart: 1}
	if !strings.Contains(dead.String(), "deadlock") {
		t.Error("deadlock marker missing")
	}
}

func TestCounterexampleStatesConsistent(t *testing.T) {
	sys := counter(t, 3, false)
	res := Check(sys, Invariant{PropName: "below-3", Holds: ts.Neq{Var: "n", Value: "iiiv"}}, Options{})
	last := res.Counterexample.Steps[len(res.Counterexample.Steps)-1]
	if last.After["n"] != "iiiv" {
		t.Errorf("final state = %v, want n=iiiv", last.After)
	}
	if res.Counterexample.Initial["n"] != "v" {
		t.Errorf("initial = %v, want n=v", res.Counterexample.Initial)
	}
}
