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
	"runtime"
	"strconv"
	"testing"

	"prochecker/internal/core/props"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/report"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
	"prochecker/internal/ue"
)

// composedSystem builds the threat-instrumented LTEInspector model the
// catalogue properties are written against.
func composedSystem(t *testing.T) *ts.System {
	t.Helper()
	return mc.ComposedModel(t)
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

// catalogueResponses lists the catalogue's response properties.
func catalogueResponses(t *testing.T) []mc.Response {
	t.Helper()
	var out []mc.Response
	for _, p := range catalogueMC(t) {
		if r, ok := p.(mc.Response); ok {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		t.Fatal("no response properties in the catalogue")
	}
	return out
}

// pruneRule removes the named rule from sys, as the CEGAR loop's
// rule-prune refinement does.
func pruneRule(t *testing.T, sys *ts.System, name string) *ts.System {
	t.Helper()
	if !sys.RemoveRule(name) {
		t.Fatalf("no rule %s in %s", name, sys.Name)
	}
	return sys
}

// prunedRule is the adversary rule the rule-prune refinements remove:
// dropping the UE's genuine security_mode_complete, the step of S18's
// attack.
const prunedRule = "adv:drop:chan_ul:security_mode_complete@genuine"

// TestResponseMatchesSequentialOnRefinements runs every catalogue
// response property on the composed model and on three refinements,
// whose graphs the engine derives from the composed model's: a guard
// replay, a pruned adversary rule, and the two in a chain, which
// derives from the composed model's complete graph while the guard
// replay's is still partial. Each check on a refinement walks its
// derivation and leaves the refined graph unbuilt, and must still
// match the sequential oracle. StatesExplored is the number of product
// nodes the lazy BFS discovered, so a search that expands more or less
// of it than the oracle fails here, and the traces pin the lazy BFS's
// parents, on graphs the verdict corpus does not cover.
func TestResponseMatchesSequentialOnRefinements(t *testing.T) {
	base := composedSystem(t)
	refinements := []*ts.System{
		mc.GuardReplay(t, base.Clone(), "service_accept"),
		pruneRule(t, base.Clone(), prunedRule),
		pruneRule(t, mc.GuardReplay(t, base.Clone(), "service_accept"), prunedRule),
	}
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	engine := mc.NewEngine()
	opts := mc.Options{Workers: 2}
	resps := catalogueResponses(t)
	for _, sys := range append([]*ts.System{base}, refinements...) {
		for _, p := range resps {
			got, err := engine.CheckContext(ctx, sys, p, opts)
			if err != nil {
				t.Fatalf("%s on %s: engine error: %v", p.Name(), sys.Name, err)
			}
			assertSameResult(t, p.Name(), got, mc.CheckSequential(sys, p, opts))
		}
	}
	reg := o.Metrics()
	n := int64(len(refinements))
	for name, want := range map[string]int64{
		"mc.explorations":         n + 1,
		"mc.explorations_derived": n,
		// Every check on a refinement walked its derivation, and none
		// built a refined graph past its initial state.
		"mc.responses_derived": n * int64(len(resps)),
		"mc.graphs_partial":    n,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	g, err := mc.ExploreGraph(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	o.Manifest().Spans.Walk(func(sp *obs.SpanNode) {
		if sp.Name != "mc.explore" || sp.Attrs["index"] != "derived" {
			return
		}
		derived++
		if got, want := sp.Attrs["base_states"], strconv.Itoa(g.NumStates()); got != want {
			t.Errorf("a refinement derived from a base of %s states, want the composed model's %s", got, want)
		}
	})
	if derived != len(refinements) {
		t.Fatalf("%d derived mc.explore spans, want %d", derived, len(refinements))
	}
}

// TestResponseTruncatesLikeSequential pins where a response check's
// budget runs out. A check is truncated when its lasso search has
// discovered more product nodes than the budget by the time it
// concludes, or when the system has more reachable states than the
// budget, so that its graph truncates. Each case finds a budget under
// which the engine and the sequential checker both truncate and one
// under which both conclude; at both they must agree on the result,
// StatesExplored and the trace, and the engine must report a budget
// error exactly when it truncates.
func TestResponseTruncatesLikeSequential(t *testing.T) {
	ctx := context.Background()
	// check checks p on sys with engine under budget max, which must
	// truncate both checkers or neither, as truncated says.
	check := func(name string, engine *mc.Engine, ctx context.Context, sys *ts.System, p mc.Property, max int, truncated bool) {
		t.Helper()
		opts := mc.Options{Workers: 2, MaxStates: max}
		got, err := engine.CheckContext(ctx, sys, p, opts)
		want := mc.CheckSequential(sys, p, opts)
		if want.Truncated != truncated {
			t.Fatalf("%s under budget %d: sequential truncated=%v, want %v", name, max, want.Truncated, truncated)
		}
		if mc.IsBudgetExhausted(err) != truncated || (err != nil && !mc.IsBudgetExhausted(err)) {
			t.Fatalf("%s under budget %d: engine error %v, want truncated=%v", name, max, err, truncated)
		}
		assertSameResult(t, fmt.Sprintf("%s under budget %d", name, max), got, want)
	}

	// The search: on a graph the budget holds, a check is truncated
	// only by the product nodes its search discovers. Over states a, b
	// and c, go and trig both lead from a to b, then fin and back return
	// to a; the product reaches b and c both pending and idle. With the
	// goal fin the property holds over 4 product nodes; with the goal go
	// the pending region closes a lasso, found once the BFS has
	// discovered 6. A budget of 3 or more holds the graph.
	sys := ts.NewSystem("loop")
	if err := sys.AddVar("x", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][3]string{{"go", "a", "b"}, {"trig", "a", "b"}, {"fin", "b", "c"}, {"back", "c", "a"}} {
		if err := sys.AddRule(ts.Rule{Name: r[0], Guard: ts.Eq{Var: "x", Value: r[1]}, Assigns: []ts.Assign{{Var: "x", Value: r[2]}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		goal     string
		verified bool
		nodes    int
	}{{"fin", true, 4}, {"go", false, 6}} {
		p := mc.Response{
			PropName: "goal-" + tc.goal,
			Trigger:  func(n string) bool { return n == "trig" },
			Goal:     func(n string) bool { return n == tc.goal },
		}
		got, err := mc.NewEngine().CheckContext(ctx, sys, p, mc.Options{})
		if err != nil || got.Verified != tc.verified || got.StatesExplored != tc.nodes {
			t.Fatalf("%s: verified=%v over %d nodes, error %v; want verified=%v over %d", p.Name(), got.Verified, got.StatesExplored, err, tc.verified, tc.nodes)
		}
		check(p.Name(), mc.NewEngine(), ctx, sys, p, tc.nodes-1, true)
		check(p.Name(), mc.NewEngine(), ctx, sys, p, tc.nodes, false)
	}

	// The graph: on the composed model, a counterexample the search
	// finds within far fewer nodes than the model's states is reported
	// once the budget holds the whole graph, and not below.
	sys = composedSystem(t)
	g, err := mc.ExploreGraph(ctx, sys, mc.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := catalogueResponses(t)[0]
	full, err := mc.NewEngine().CheckContext(ctx, sys, p, mc.Options{Workers: 2})
	if err != nil || full.Counterexample == nil || full.StatesExplored >= g.NumStates() {
		t.Fatalf("%s: %d nodes for a counterexample over %d states, error %v; want a counterexample within fewer nodes than states",
			p.Name(), full.StatesExplored, g.NumStates(), err)
	}
	check(p.Name(), mc.NewEngine(), ctx, sys, p, g.NumStates()-1, true)
	check(p.Name(), mc.NewEngine(), ctx, sys, p, g.NumStates(), false)

	// Derived: a guard-replay refinement of the composed model, derived
	// from the base graph each engine holds complete. Under a budget
	// that holds the derivation's bound, the check walks the derivation;
	// under a smaller one it completes the refined graph instead, which
	// concludes when the budget holds the refined graph and truncates
	// when it does not.
	refined := mc.GuardReplay(t, sys.Clone(), "service_accept")
	rg, err := mc.ExploreGraph(ctx, refined, mc.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * g.NumStates() // one appended bit
	if rg.NumStates() <= g.NumStates() || rg.NumStates() >= bound {
		t.Fatalf("the refinement has %d states over a base of %d: want more than the base and fewer than %d", rg.NumStates(), g.NumStates(), bound)
	}
	for _, tc := range []struct {
		max       int
		truncated bool
		walked    int64
	}{{rg.NumStates() - 1, true, 0}, {rg.NumStates(), false, 0}, {bound, false, 1}} {
		engine := mc.NewEngine()
		base := mc.Invariant{PropName: "all", Holds: ts.True{}}
		if _, err := engine.CheckContext(ctx, sys, base, mc.Options{Workers: 2, MaxStates: tc.max}); err != nil {
			t.Fatalf("the base graph under budget %d: %v", tc.max, err)
		}
		o := obs.New()
		check(p.Name()+" on the refinement", engine, obs.NewContext(ctx, o), refined, p, tc.max, tc.truncated)
		reg := o.Metrics()
		for name, want := range map[string]int64{"mc.explorations_derived": 1, "mc.responses_derived": tc.walked, "mc.graphs_partial": tc.walked} {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("refinement under budget %d: %s = %d, want %d", tc.max, name, got, want)
			}
		}
	}
}

// TestResponseCheckAllocBudget pins that a response check's working
// memory is reused, not allocated per check: once one check has run on
// an engine, checking a response property again on the same graph of at
// least 50,000 states (the srsLTE profile's model) allocates less than
// one byte per state, and checking it again over the derivation of a
// guard-replay refinement of that model, whose graph stays unbuilt,
// less than one byte per slot: the per-slot state bits come from the
// engine's free list too.
func TestResponseCheckAllocBudget(t *testing.T) {
	m, err := report.BuildModel(ue.ProfileSRS)
	if err != nil {
		t.Fatal(err)
	}
	sys := m.Composed.System
	refined := mc.GuardReplay(t, sys.Clone(), "service_accept")
	ctx := context.Background()
	g, err := mc.ExploreGraph(ctx, sys, mc.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := g.NumStates()
	if states < 50000 {
		t.Fatalf("the srsLTE model has %d states, want at least 50,000", states)
	}
	// One appended bit: two slots per base state.
	slots := 2 * states
	engine := mc.NewEngine()
	for _, p := range catalogueResponses(t) {
		for _, tc := range []struct {
			sys     *ts.System
			what    string
			per     int
			derived int64
		}{{sys, "state", states, 0}, {refined, "slot", slots, 1}} {
			if _, err := engine.CheckContext(ctx, tc.sys, p, mc.Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := engine.CheckContext(ctx, tc.sys, p, mc.Options{Workers: 2})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocated := after.TotalAlloc - before.TotalAlloc
			per := float64(allocated) / float64(tc.per)
			t.Logf("%s on %s: %d product nodes over %d %ss, %d bytes allocated (%.3f B/%s)",
				p.Name(), tc.sys.Name, res.StatesExplored, tc.per, tc.what, allocated, per, tc.what)
			if per >= 1 {
				t.Errorf("%s on %s: a repeated response check allocated %d bytes, %.2f per %s; want less than 1",
					p.Name(), tc.sys.Name, allocated, per, tc.what)
			}
			// The check walked the derivation exactly when it is one.
			o := obs.New()
			if _, err := engine.CheckContext(obs.NewContext(ctx, o), tc.sys, p, mc.Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			if got := o.Metrics().Counter("mc.responses_derived").Value(); got != tc.derived {
				t.Fatalf("%s on %s: mc.responses_derived = %d, want %d", p.Name(), tc.sys.Name, got, tc.derived)
			}
		}
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
