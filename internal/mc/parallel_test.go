// Differential tests for the shared-frontier engine: for every property
// class the parallel engine must return the same verdicts and
// byte-identical counterexample traces as the sequential reference
// checker. Lives in package mc_test so it can drive the engine with the
// real 62-property catalogue (props imports mc).
package mc_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"prochecker/internal/core/props"
	"prochecker/internal/core/threat"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// composedSystem builds the threat-instrumented LTEInspector model the
// catalogue properties are written against.
func composedSystem(t *testing.T) *ts.System {
	t.Helper()
	c, err := threat.Compose(threat.Config{
		Name: "parallel-test",
		UE:   ltemodels.LTEInspectorUE(),
		MME:  ltemodels.MME(),
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return c.System
}

// catalogueMC lists the model-checked subset of the property catalogue.
func catalogueMC(t *testing.T) []mc.Property {
	t.Helper()
	var out []mc.Property
	for _, p := range props.Catalogue() {
		if p.Kind == props.KindMC {
			out = append(out, p.MC())
		}
	}
	if len(out) == 0 {
		t.Fatal("no model-checked properties in the catalogue")
	}
	return out
}

// assertSameResult compares an engine result against the sequential
// reference, including the counterexample rule path byte for byte.
func assertSameResult(t *testing.T, name string, got, want mc.Result) {
	t.Helper()
	if got.Verified != want.Verified || got.Truncated != want.Truncated || got.Kind != want.Kind {
		t.Fatalf("%s: verdict mismatch: engine %+v, sequential %+v", name, got, want)
	}
	if got.StatesExplored != want.StatesExplored {
		t.Errorf("%s: states explored: engine %d, sequential %d", name, got.StatesExplored, want.StatesExplored)
	}
	gc, wc := got.Counterexample, want.Counterexample
	if (gc == nil) != (wc == nil) {
		t.Fatalf("%s: counterexample presence: engine %v, sequential %v", name, gc != nil, wc != nil)
	}
	if gc == nil {
		return
	}
	if !reflect.DeepEqual(gc.RuleNames(), wc.RuleNames()) {
		t.Errorf("%s: rule path:\n  engine     %v\n  sequential %v", name, gc.RuleNames(), wc.RuleNames())
	}
	if gc.LoopStart != wc.LoopStart {
		t.Errorf("%s: loop start: engine %d, sequential %d", name, gc.LoopStart, wc.LoopStart)
	}
	if !reflect.DeepEqual(gc.Initial, wc.Initial) {
		t.Errorf("%s: initial assignment differs", name)
	}
	if !reflect.DeepEqual(gc.Steps, wc.Steps) {
		t.Errorf("%s: trace steps differ (tags or state snapshots)", name)
	}
}

// TestEngineMatchesSequentialOnCatalogue is the headline differential:
// every model-checked catalogue property, on the full threat-composed
// LTEInspector model, under a parallel engine.
func TestEngineMatchesSequentialOnCatalogue(t *testing.T) {
	sys := composedSystem(t)
	opts := mc.Options{Workers: 4}
	engine := mc.NewEngine()
	for _, p := range catalogueMC(t) {
		got, err := engine.CheckContext(context.Background(), sys, p, opts)
		if err != nil {
			t.Fatalf("%s: engine error: %v", p.Name(), err)
		}
		want := mc.CheckSequential(sys, p, opts)
		assertSameResult(t, p.Name(), got, want)
	}
}

// chain builds a line a0 -> a1 -> ... -> an with an optional loop back.
func chain(t *testing.T, n int, loop bool) *ts.System {
	t.Helper()
	sys := ts.NewSystem("chain")
	domain := make([]string, n+1)
	for i := range domain {
		domain[i] = string(rune('a' + i))
	}
	if err := sys.AddVar("x", domain...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.AddRule(ts.Rule{
			Name:    "step-" + domain[i],
			Guard:   ts.Eq{Var: "x", Value: domain[i]},
			Assigns: []ts.Assign{{Var: "x", Value: domain[i+1]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if loop {
		if err := sys.AddRule(ts.Rule{
			Name:    "wrap",
			Guard:   ts.Eq{Var: "x", Value: domain[n]},
			Assigns: []ts.Assign{{Var: "x", Value: domain[0]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestEngineMatchesSequentialPerClass pins the per-class edge cases:
// initial violation, mid-exploration violation, event firing, response
// lasso (cycle) and response deadlock.
func TestEngineMatchesSequentialPerClass(t *testing.T) {
	cases := []struct {
		name string
		sys  *ts.System
		prop mc.Property
	}{
		{"invariant-holds", chain(t, 4, true), mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "zz"}}},
		{"invariant-violated", chain(t, 4, true), mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "d"}}},
		{"invariant-violated-initially", chain(t, 3, false), mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "a"}}},
		{"never-fires-holds", chain(t, 4, true), mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "absent" }}},
		{"never-fires-violated", chain(t, 4, true), mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "step-c" }}},
		{"response-verified", chain(t, 3, false), mc.Response{
			PropName: "p",
			Trigger:  func(n string) bool { return n == "step-a" },
			Goal:     func(n string) bool { return n == "step-c" },
		}},
		{"response-cycle", chain(t, 3, true), mc.Response{
			PropName: "p",
			Trigger:  func(n string) bool { return n == "step-a" },
			Goal:     func(n string) bool { return n == "absent" },
		}},
		{"response-deadlock", chain(t, 3, false), mc.Response{
			PropName: "p",
			Trigger:  func(n string) bool { return n == "step-a" },
			Goal:     func(n string) bool { return n == "absent" },
		}},
		{"response-goal-state", chain(t, 3, true), mc.Response{
			PropName:  "p",
			Trigger:   func(n string) bool { return n == "step-a" },
			GoalState: ts.Eq{Var: "x", Value: "d"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				engine := mc.NewEngine()
				opts := mc.Options{Workers: workers}
				got, err := engine.CheckContext(context.Background(), tc.sys, tc.prop, opts)
				if err != nil {
					t.Fatalf("engine error: %v", err)
				}
				assertSameResult(t, tc.name, got, mc.CheckSequential(tc.sys, tc.prop, opts))
			}
		})
	}
}

// TestResponseCheckAllocsFlat pins that a response check allocates per
// check, never per product node or edge: on a cached graph a verified
// check of a short chain and of a long one allocate the same number of
// times, with the whole chain after the trigger in the pending region.
func TestResponseCheckAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		sys := chain(t, n, false)
		last := fmt.Sprintf("step-%c", rune('a'+n-1))
		prop := mc.Response{
			PropName: "p",
			Trigger:  func(name string) bool { return name == "step-a" },
			Goal:     func(name string) bool { return name == last },
		}
		engine := mc.NewEngine()
		ctx := context.Background()
		if res, err := engine.CheckContext(ctx, sys, prop, mc.Options{}); err != nil || !res.Verified || res.StatesExplored != n+1 {
			t.Fatalf("chain %d: verified=%v states=%d error %v, want verified over %d states",
				n, res.Verified, res.StatesExplored, err, n+1)
		}
		return testing.AllocsPerRun(20, func() {
			engine.CheckContext(ctx, sys, prop, mc.Options{})
		})
	}
	short, long := allocs(4), allocs(200)
	if short != long {
		t.Fatalf("response check allocations: %v on a 4-step chain, %v on a 200-step chain", short, long)
	}
}

// TestCheckAllDeterministic checks the whole model-checked catalogue
// twice, each time 8 properties at a time on one fresh engine, and
// against the sequential baseline: identical slices all round.
func TestCheckAllDeterministic(t *testing.T) {
	sys := composedSystem(t)
	list := catalogueMC(t)
	opts := mc.Options{Workers: 8}
	run := func() []mc.Result {
		t.Helper()
		engine := mc.NewEngine()
		out := make([]mc.Result, len(list))
		errs := make([]error, len(list))
		resilience.FanOut(context.Background(), len(list), opts.Workers, func(i int) {
			out[i], errs[i] = engine.CheckContext(context.Background(), sys, list[i], opts)
		})
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("CheckContext: %v", err)
		}
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two parallel runs disagree")
	}
	for i, p := range list {
		assertSameResult(t, p.Name(), first[i], mc.CheckSequential(sys, p, opts))
	}
}

// TestBudgetExhaustedTyped: hitting MaxStates is a typed error now, not
// a silent incomplete verdict.
func TestBudgetExhaustedTyped(t *testing.T) {
	sys := chain(t, 20, false)
	prop := mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "zz"}}
	res, err := mc.CheckContext(context.Background(), sys, prop, mc.Options{MaxStates: 5})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if !mc.IsBudgetExhausted(err) {
		t.Error("IsBudgetExhausted returned false for a budget error")
	}
	if !res.Truncated || res.Verified {
		t.Errorf("truncated result not marked: %+v", res)
	}
}

// TestEngineCacheReuseAndInvalidation: repeated checks share one build;
// a structural edit (RemoveRule bumps Generation) forces a re-explore.
func TestEngineCacheReuseAndInvalidation(t *testing.T) {
	sys := chain(t, 4, true)
	engine := mc.NewEngine()
	opts := mc.Options{}
	inv := mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "zz"}}
	nf := mc.NeverFires{PropName: "q", Match: func(string) bool { return false }}
	for _, p := range []mc.Property{inv, nf} {
		if _, err := engine.CheckContext(context.Background(), sys, p, opts); err != nil {
			t.Fatalf("CheckContext: %v", err)
		}
	}
	if hits, builds, _ := engine.CacheCounters(); builds != 1 || hits != 1 {
		t.Fatalf("after two checks: hits=%d builds=%d, want 1/1", hits, builds)
	}
	if !sys.RemoveRule("wrap") {
		t.Fatal("RemoveRule failed")
	}
	if _, err := engine.CheckContext(context.Background(), sys, inv, opts); err != nil {
		t.Fatalf("CheckContext after edit: %v", err)
	}
	if _, builds, _ := engine.CacheCounters(); builds != 2 {
		t.Fatalf("stale graph served after RemoveRule: builds=%d, want 2", builds)
	}
}
