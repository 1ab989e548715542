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
	"strings"
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
// replay, a pruned adversary rule, and the two in a chain. It runs them
// twice, on fresh engines. First each refinement alone, after a check
// that leaves the composed model's graph partial: the refinement
// derives from that partial graph, and each search grows the refined
// graph it reads, which grows the base as far as the derivation needs.
// Then the composed model first, whose verified properties complete its
// graph, and the refinements after it, derived from the complete graph.
// Both must match the sequential oracle. StatesExplored is the number
// of product nodes the lazy BFS discovered, so a search that expands
// more or less of it than the oracle fails here, and the traces pin the
// lazy BFS's parents, on graphs the verdict corpus does not cover.
func TestResponseMatchesSequentialOnRefinements(t *testing.T) {
	base := composedSystem(t)
	refinements := []*ts.System{
		mc.GuardReplay(t, base.Clone(), "service_accept"),
		pruneRule(t, base.Clone(), prunedRule),
		pruneRule(t, mc.GuardReplay(t, base.Clone(), "service_accept"), prunedRule),
	}
	opts := mc.Options{Workers: 2}
	resps := catalogueResponses(t)
	want := map[*ts.System][]mc.Result{}
	for _, sys := range append([]*ts.System{base}, refinements...) {
		for _, p := range resps {
			want[sys] = append(want[sys], mc.CheckSequential(sys, p, opts))
		}
	}
	g, err := mc.ExploreGraph(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(refinements))
	// run checks every response property on each system in turn on a
	// fresh engine, after the given first check, and returns the run's
	// registry and the base_states of its derived builds.
	run := func(first mc.Property, systems []*ts.System) (*obs.Registry, []int) {
		t.Helper()
		o := obs.New()
		ctx := obs.NewContext(context.Background(), o)
		engine := mc.NewEngine()
		if _, err := engine.CheckContext(ctx, base, first, opts); err != nil {
			t.Fatal(err)
		}
		for _, sys := range systems {
			for i, p := range resps {
				got, err := engine.CheckContext(ctx, sys, p, opts)
				if err != nil {
					t.Fatalf("%s on %s: engine error: %v", p.Name(), sys.Name, err)
				}
				assertSameResult(t, p.Name(), got, want[sys][i])
			}
		}
		var bases []int
		o.Manifest().Spans.Walk(func(sp *obs.SpanNode) {
			if sp.Name == "mc.explore" && sp.Attrs["index"] == "derived" {
				b, err := strconv.Atoi(sp.Attrs["base_states"])
				if err != nil {
					t.Fatal(err)
				}
				bases = append(bases, b)
			}
		})
		derived := 0
		for _, sys := range systems {
			if sys != base {
				derived++
			}
		}
		if len(bases) != derived {
			t.Fatalf("%d derived mc.explore spans, want %d", len(bases), derived)
		}
		return o.Metrics(), bases
	}

	// Partial: an adversary rule fires from the initial state, so the
	// first check builds one level of the composed model's graph, and
	// each refinement, on an engine of its own, derives from that level.
	adv := mc.NeverFires{PropName: "adv", Match: func(name string) bool { return strings.HasPrefix(name, "adv:") }}
	for _, sys := range refinements {
		reg, bases := run(adv, []*ts.System{sys})
		if bases[0] >= g.NumStates() {
			t.Errorf("%s derived from a base of %d states, want part of the composed model's %d", sys.Name, bases[0], g.NumStates())
		}
		if got := reg.Counter("mc.explorations_derived").Value(); got != 1 {
			t.Errorf("partial base: mc.explorations_derived = %d, want 1", got)
		}
	}

	// Complete: base_states is the base's state count when the
	// derivation started, the whole composed model's here.
	all := mc.Invariant{PropName: "all", Holds: ts.True{}}
	reg, bases := run(all, append([]*ts.System{base}, refinements...))
	for _, b := range bases {
		if b != g.NumStates() {
			t.Errorf("a refinement derived from a base of %d states, want the composed model's %d", b, g.NumStates())
		}
	}
	for name, want := range map[string]int64{"mc.explorations": n + 1, "mc.explorations_derived": n} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("complete base: %s = %d, want %d", name, got, want)
		}
	}
}

// TestResponseTruncatesLikeSequential pins where a response check's
// budget runs out. A check is truncated when its lasso search has
// discovered more product nodes than the budget by the time it
// concludes, or when it needs the row of a state that the graph built
// under the budget does not have: the graph stops expanding levels once
// it holds more states than the budget. Each case finds the smallest
// budget under which the sequential checker concludes, and checks the
// engine against it there and one below, where both truncate: the
// result, StatesExplored, the trace, and a budget error exactly when
// the check truncates.
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
	// boundary is the smallest budget under which the sequential checker
	// concludes p on sys; a larger budget only lets a search go further.
	boundary := func(sys *ts.System, p mc.Property, hi int) int {
		t.Helper()
		if mc.CheckSequential(sys, p, mc.Options{MaxStates: hi}).Truncated {
			t.Fatalf("%s does not conclude under budget %d", p.Name(), hi)
		}
		lo := 1
		for lo < hi {
			mid := (lo + hi) / 2
			if mc.CheckSequential(sys, p, mc.Options{MaxStates: mid}).Truncated {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// The search: over states a, b and c, go and trig both lead from a
	// to b, then fin and back return to a; the product reaches b and c
	// both pending and idle. With the goal fin the property holds over
	// 4 product nodes; with the goal go the pending region closes a
	// lasso, found once the BFS has discovered 6. Every budget from 3
	// holds the graph, so the search's nodes are the boundary.
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
		if b := boundary(sys, p, tc.nodes); b != tc.nodes {
			t.Fatalf("%s: concludes from budget %d, want its %d nodes", p.Name(), b, tc.nodes)
		}
		check(p.Name(), mc.NewEngine(), ctx, sys, p, tc.nodes-1, true)
		check(p.Name(), mc.NewEngine(), ctx, sys, p, tc.nodes, false)
	}

	// The graph: on the composed model, both clauses bind checks that
	// conclude with fewer states than the model has. S17's search
	// concludes within the nodes it discovers, which are its boundary;
	// S22's lasso search reads rows far deeper than its BFS reaches, so
	// it concludes only once the budget lets the graph expand the
	// deepest level it reads.
	sys = composedSystem(t)
	g, err := mc.ExploreGraph(ctx, sys, mc.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	props := map[string]mc.Response{}
	for _, r := range catalogueResponses(t) {
		props[r.Name()] = r
	}
	for _, tc := range []struct {
		name     string
		rowBound bool
	}{{"S17", false}, {"S22", true}} {
		p := props[tc.name]
		full, err := mc.NewEngine().CheckContext(ctx, sys, p, mc.Options{Workers: 2})
		if err != nil || full.Counterexample == nil {
			t.Fatalf("%s: %+v, error %v; want a counterexample", p.Name(), full, err)
		}
		b := boundary(sys, p, g.NumStates())
		if (b > full.StatesExplored) != tc.rowBound || b >= g.NumStates() {
			t.Fatalf("%s concludes from budget %d, with %d nodes over %d states: want the %s boundary, within the model",
				p.Name(), b, full.StatesExplored, g.NumStates(), map[bool]string{false: "nodes'", true: "rows'"}[tc.rowBound])
		}
		check(p.Name(), mc.NewEngine(), ctx, sys, p, b-1, true)
		check(p.Name(), mc.NewEngine(), ctx, sys, p, b, false)
	}

	// Derived: a guard-replay refinement of the composed model, derived
	// from the base graph each engine holds complete. The check grows
	// the refined graph as it reads, and its boundary is the refined
	// graph's own.
	p := props["S22"]
	refined := mc.GuardReplay(t, sys.Clone(), "service_accept")
	rb := boundary(refined, p, 2*g.NumStates())
	for _, tc := range []struct {
		max       int
		truncated bool
	}{{rb - 1, true}, {rb, false}} {
		engine := mc.NewEngine()
		all := mc.Invariant{PropName: "all", Holds: ts.True{}}
		if _, err := engine.CheckContext(ctx, sys, all, mc.Options{Workers: 2}); err != nil {
			t.Fatalf("the base graph: %v", err)
		}
		o := obs.New()
		check(p.Name()+" on the refinement", engine, obs.NewContext(ctx, o), refined, p, tc.max, tc.truncated)
		if got := o.Metrics().Counter("mc.explorations_derived").Value(); got != 1 {
			t.Errorf("refinement under budget %d: mc.explorations_derived = %d, want 1", tc.max, got)
		}
	}
}

// TestResponseCheckAllocBudget pins that a response check's working
// memory is reused, not allocated per check: once one check has run on
// an engine, checking a response property again on the same graph
// allocates less than one byte per state of the srsLTE profile's model
// (at least 50,000), on the model's own graph and on the graph of a
// guard-replay refinement, derived from it: the per-state bits come
// from the engine's free list.
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
	engine := mc.NewEngine()
	for _, p := range catalogueResponses(t) {
		for _, sys := range []*ts.System{sys, refined} {
			if _, err := engine.CheckContext(ctx, sys, p, mc.Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := engine.CheckContext(ctx, sys, p, mc.Options{Workers: 2})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocated := after.TotalAlloc - before.TotalAlloc
			per := float64(allocated) / float64(states)
			t.Logf("%s on %s: %d product nodes, %d bytes allocated (%.3f B/state)",
				p.Name(), sys.Name, res.StatesExplored, allocated, per)
			if per >= 1 {
				t.Errorf("%s on %s: a repeated response check allocated %d bytes, %.2f per state; want less than 1",
					p.Name(), sys.Name, allocated, per)
			}
		}
	}
}

// TestPartialDerivationAllocs: a derivation of the srsLTE model's
// guard-replay refinement that stops after one level allocates a fixed
// number of bytes, whatever the size of its base: the first arena and
// edge segments and a few pages, from a base of one level as from the
// complete graph of more than 50,000 states. The bound-sized tables it
// replaced took 8 bytes per slot of the derivation's bound.
func TestPartialDerivationAllocs(t *testing.T) {
	m, err := report.BuildModel(ue.ProfileSRS)
	if err != nil {
		t.Fatal(err)
	}
	sys := m.Composed.System
	refined := mc.GuardReplay(t, sys.Clone(), "service_accept")
	for _, levels := range []int{1, -1} {
		allocated, bound, baseStates := mc.DeriveOneLevel(t, sys, refined, levels)
		t.Logf("one level derived from a base of %d states: %d bytes allocated, bound %d", baseStates, allocated, bound)
		if levels < 0 && baseStates < 50000 {
			t.Fatalf("the srsLTE model has %d states, want at least 50,000", baseStates)
		}
		if allocated > bound {
			t.Errorf("one level derived from a base of %d states allocated %d bytes, want at most %d", baseStates, allocated, bound)
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
