package mc

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"prochecker/internal/core/threat"
	"prochecker/internal/ltemodels"
	"prochecker/internal/obs"
	"prochecker/internal/spec"
	"prochecker/internal/ts"
)

// explore compiles sys and builds its graph from scratch, as the engine
// does on a miss with no base to derive from.
func explore(ctx context.Context, sys *ts.System, opts Options) (*StateGraph, error) {
	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	return buildGraph(ctx, sys, rules, opts)
}

// planDerivation reports whether the target (compiled rules, variables,
// initial state) derives from base, and how: the engine's checks, on a
// base that is already complete.
func planDerivation(base *StateGraph, rules *ts.RuleSet, vars []ts.Var, init ts.State) (*derivation, bool) {
	kept, ok := extendsBase(base, rules, vars, init)
	if !ok {
		return nil, false
	}
	return planFrom(base, kept, rules, vars, init)
}

// buildGraph explores the system to completion in one go, as one
// "mc.explore" span: the graph a lazily grown build of sys equals once
// complete.
func buildGraph(ctx context.Context, sys *ts.System, rules *ts.RuleSet, opts Options) (*StateGraph, error) {
	e, err := startBuild(ctx, sys, rules, opts)
	if err != nil {
		return nil, err
	}
	return e.finish(ctx)
}

// deriveGraph derives sys's complete graph from d's base graph in one
// go: the graph a lazily grown derivation equals once complete.
func deriveGraph(ctx context.Context, sys *ts.System, rules *ts.RuleSet, d *derivation, opts Options) (*StateGraph, error) {
	e, err := startDerive(ctx, sys, rules, d, nil, opts)
	if err != nil {
		return nil, err
	}
	return e.finish(ctx)
}

// finish runs the build to completion and ends its span.
func (e *levelExplorer) finish(ctx context.Context) (*StateGraph, error) {
	for !e.g.complete {
		if err := e.advance(ctx); err != nil {
			e.endExplore(nil, err)
			return nil, err
		}
	}
	e.endExplore(e.g, nil)
	return e.g, nil
}

// values copies the array out.
func (p *int32Pages) values() []int32 {
	out := make([]int32, p.len())
	for i := range out {
		out[i] = p.at(int32(i))
	}
	return out
}

// residualGuards reports whether any of sys's guards leaves the
// conjunctive Eq/Neq/In fragment the guard bitsets lower, which rules
// out deriving its graph or deriving from it.
func residualGuards(sys *ts.System) bool {
	var residual func(ts.Cond) bool
	residual = func(c ts.Cond) bool {
		switch cc := c.(type) {
		case nil, ts.True, ts.Eq, ts.Neq, ts.In:
			return false
		case ts.And:
			return slices.ContainsFunc(cc, residual)
		}
		return true
	}
	return slices.ContainsFunc(sys.Rules(), func(r ts.Rule) bool { return residual(r.Guard) })
}

// sameGraph fails unless got and want agree on every state's bytes, the
// parent tree, the adjacency row for row and truncation. Rows are
// compared, not off: a derived build reserves room for whole base rows,
// so its rows may skip to a new edge segment at other ids.
func sameGraph(t *testing.T, mode string, got, want *StateGraph) {
	t.Helper()
	switch {
	case got.NumStates() != want.NumStates() || got.Truncated != want.Truncated:
		t.Fatalf("%s: %d states truncated=%v, want %d truncated=%v",
			mode, got.NumStates(), got.Truncated, want.NumStates(), want.Truncated)
	case got.expanded() != want.expanded():
		t.Fatalf("%s: %d states expanded, want %d", mode, got.expanded(), want.expanded())
	case !slices.Equal(got.parentState.values(), want.parentState.values()) || !slices.Equal(got.parentRule.values(), want.parentRule.values()):
		t.Fatalf("%s: parent tree differs", mode)
	}
	for id := int32(0); int(id) < want.expanded(); id++ {
		if g, w := got.row(id), want.row(id); !slices.Equal(g, w) {
			t.Fatalf("%s: row %d is %v, want %v", mode, id, g, w)
		}
	}
	for id := int32(0); int(id) < want.NumStates(); id++ {
		if g, w := got.StateAt(id), want.StateAt(id); !slices.Equal(g, w) {
			t.Fatalf("%s: state %d is %v, want %v", mode, id, g, w)
		}
	}
}

// deriveMatchesExplore derives sys's graph from base, complete and under
// a budget that truncates it mid-way, and compares each with the graph
// buildGraph explores. It reports whether sys derives from base at all.
func deriveMatchesExplore(t *testing.T, base *StateGraph, sys *ts.System) bool {
	t.Helper()
	ctx := context.Background()
	rules, err := sys.CompileRules()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := planDerivation(base, rules, sys.Vars(), sys.InitialState())
	if !ok {
		return false
	}
	full, err := explore(ctx, sys, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Workers: 4}, {Workers: 4, MaxStates: max(1, full.NumStates()/2)}} {
		want, err := explore(ctx, sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := deriveGraph(ctx, sys, rules, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, "derived", got, want)
	}
	return true
}

// derivationBase is a small three-variable system whose guards are all
// in the lowered fragment: a counts 0..3 and wraps through b, which
// moves c around, and idle loops everywhere.
func derivationBase(t *testing.T, lead ...string) *ts.System {
	t.Helper()
	sys := ts.NewSystem("derive")
	for _, v := range lead {
		if err := sys.AddVar(v, "0", "1"); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []ts.Var{{Name: "a", Domain: []string{"0", "1", "2", "3"}}, {Name: "b", Domain: []string{"0", "1"}}, {Name: "c", Domain: []string{"p", "q", "r"}}} {
		if err := sys.AddVar(v.Name, v.Domain...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []ts.Rule{
		{Name: "inc0", Guard: ts.Eq{Var: "a", Value: "0"}, Assigns: []ts.Assign{{Var: "a", Value: "1"}}},
		{Name: "inc1", Guard: ts.Eq{Var: "a", Value: "1"}, Assigns: []ts.Assign{{Var: "a", Value: "2"}}},
		{Name: "inc2", Guard: ts.In{Var: "a", Values: []string{"2"}}, Assigns: []ts.Assign{{Var: "a", Value: "3"}}},
		{Name: "wrap", Guard: ts.And{ts.Eq{Var: "a", Value: "3"}, ts.Eq{Var: "b", Value: "0"}}, Assigns: []ts.Assign{{Var: "a", Value: "0"}, {Var: "b", Value: "1"}}},
		{Name: "flip", Guard: ts.Eq{Var: "b", Value: "1"}, Assigns: []ts.Assign{{Var: "b", Value: "0"}, {Var: "c", Value: "q"}}},
		{Name: "cq", Guard: ts.Eq{Var: "c", Value: "q"}, Assigns: []ts.Assign{{Var: "c", Value: "r"}}},
		{Name: "cr", Guard: ts.And{ts.Eq{Var: "c", Value: "r"}, ts.Neq{Var: "a", Value: "1"}}, Assigns: []ts.Assign{{Var: "c", Value: "p"}}},
		{Name: "idle", Guard: ts.True{}},
	} {
		if err := sys.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestDerivationStructuralCheck pins which refinements of a cached graph
// derive and which fall back to exploration. Accepted targets must
// derive graphs equal to the explored ones; every target, accepted or
// not, must get CheckSequential's results from an engine holding the
// base graph, and be served by derivation exactly when accepted.
func TestDerivationStructuralCheck(t *testing.T) {
	mapRule := func(name string, f func(*ts.Rule)) func(*testing.T, *ts.System) *ts.System {
		return func(t *testing.T, sys *ts.System) *ts.System {
			sys.MapRules(func(r ts.Rule) ts.Rule {
				if r.Name == name {
					f(&r)
				}
				return r
			})
			return sys
		}
	}
	addVar := func(t *testing.T, sys *ts.System, name string, domain ...string) {
		t.Helper()
		if err := sys.AddVar(name, domain...); err != nil {
			t.Fatal(err)
		}
	}
	guardReplay := func(t *testing.T, sys *ts.System) *ts.System {
		addVar(t, sys, "seen", "0", "1")
		sys.MapRules(func(r ts.Rule) ts.Rule {
			switch r.Name {
			case "flip":
				r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: "seen", Value: "1"})
			case "cr":
				r.Guard = ts.And{r.Guard, ts.Eq{Var: "seen", Value: "1"}}
			}
			return r
		})
		return sys
	}
	prune := func(t *testing.T, sys *ts.System) *ts.System {
		if !sys.RemoveRule("inc2") {
			t.Fatal("no rule inc2")
		}
		return sys
	}
	for _, tc := range []struct {
		name   string
		target func(*testing.T, *ts.System) *ts.System
		derive bool
	}{
		{"guard replay", guardReplay, true},
		{"pruned rule", prune, true},
		{"replay and prune", func(t *testing.T, sys *ts.System) *ts.System { return prune(t, guardReplay(t, sys)) }, true},
		{"two new variables", func(t *testing.T, sys *ts.System) *ts.System {
			addVar(t, sys, "seen", "0", "1")
			addVar(t, sys, "mode", "x", "y", "z")
			if err := sys.SetInit("mode", "y"); err != nil {
				t.Fatal(err)
			}
			sys.MapRules(func(r ts.Rule) ts.Rule {
				switch r.Name {
				case "inc0":
					r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: "mode", Value: "z"})
				case "flip":
					r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: "seen", Value: "1"})
				case "cq":
					r.Guard = ts.And{r.Guard, ts.Neq{Var: "mode", Value: "y"}}
				case "cr":
					r.Guard = ts.And{r.Guard, ts.In{Var: "seen", Values: []string{"1"}}}
				}
				return r
			})
			return sys
		}, true},
		{"changed old literal", mapRule("inc1", func(r *ts.Rule) { r.Guard = ts.Eq{Var: "a", Value: "2"} }), false},
		{"changed old assignment", mapRule("flip", func(r *ts.Rule) { r.Assigns = []ts.Assign{{Var: "b", Value: "0"}, {Var: "c", Value: "r"}} }), false},
		{"renamed rule", mapRule("cq", func(r *ts.Rule) { r.Name = "cq2" }), false},
		{"reordered rules", func(t *testing.T, sys *ts.System) *ts.System {
			r, _ := sys.RuleByName("inc0")
			sys.RemoveRule("inc0")
			if err := sys.AddRule(r); err != nil {
				t.Fatal(err)
			}
			return sys
		}, false},
		{"variable inserted first", func(t *testing.T, _ *ts.System) *ts.System { return derivationBase(t, "lead") }, false},
		{"changed domain", func(t *testing.T, sys *ts.System) *ts.System {
			out := ts.NewSystem(sys.Name)
			for _, v := range sys.Vars() {
				dom := v.Domain
				if v.Name == "c" {
					dom = []string{"p", "q", "r", "s"}
				}
				addVar(t, out, v.Name, dom...)
			}
			for _, r := range sys.Rules() {
				if err := out.AddRule(r); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}, false},
		{"changed old initial value", func(t *testing.T, sys *ts.System) *ts.System {
			if err := sys.SetInit("b", "1"); err != nil {
				t.Fatal(err)
			}
			return sys
		}, false},
		{"or guard", mapRule("cq", func(r *ts.Rule) { r.Guard = ts.Or{r.Guard, ts.Eq{Var: "a", Value: "3"}} }), false},
		{"not guard", mapRule("cq", func(r *ts.Rule) { r.Guard = ts.Not{C: ts.Neq{Var: "c", Value: "q"}} }), false},
		// A residual guard's rows are all ones, like idle's old ones.
		{"or guard on an unguarded rule", func(t *testing.T, sys *ts.System) *ts.System {
			addVar(t, sys, "seen", "0", "1")
			return mapRule("idle", func(r *ts.Rule) { r.Guard = ts.Or{ts.Eq{Var: "seen", Value: "1"}, ts.Eq{Var: "a", Value: "3"}} })(t, sys)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := derivationBase(t)
			target := tc.target(t, base.Clone())
			g, err := explore(context.Background(), base, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := deriveMatchesExplore(t, g, target); got != tc.derive {
				t.Fatalf("derives = %v, want %v", got, tc.derive)
			}

			engine := NewEngine()
			props := []Property{
				Invariant{PropName: "inv", Holds: ts.Neq{Var: "c", Value: "p"}},
				NeverFires{PropName: "never", Match: func(n string) bool { return n == "cr" }},
				Response{PropName: "resp", Trigger: func(n string) bool { return n == "flip" }, Goal: func(n string) bool { return n == "cr" }},
			}
			if _, err := engine.CheckContext(context.Background(), base, props[0], Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			o := obs.New()
			ctx := obs.NewContext(context.Background(), o)
			for _, p := range props {
				got, err := engine.CheckContext(ctx, target, p, Options{Workers: 2})
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				want := CheckSequential(target, p, Options{})
				if got.Verified != want.Verified || got.StatesExplored != want.StatesExplored ||
					!reflect.DeepEqual(got.Counterexample, want.Counterexample) {
					t.Fatalf("%s: engine %+v, sequential %+v", p.Name(), got, want)
				}
			}
			reg := o.Metrics()
			wantDerived := int64(0)
			if tc.derive {
				wantDerived = 1
			}
			if builds, derived := reg.Counter("mc.explorations").Value(), reg.Counter("mc.explorations_derived").Value(); builds != 1 || derived != wantDerived {
				t.Fatalf("target served by %d builds, %d derived; want 1 build, %d derived", builds, derived, wantDerived)
			}
		})
	}
}

// composedModel builds the threat-instrumented LTEInspector model the
// catalogue properties are written against.
func composedModel(t *testing.T) *ts.System {
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

// guardReplay applies the CEGAR loop's guard-replay refinement for msg
// to sys in place: an observation bit set by every rule that puts a
// genuine msg on a channel, and required by the adversary's replays of
// it. Such a refinement derives from sys's graph.
func guardReplay(t *testing.T, sys *ts.System, msg string) *ts.System {
	t.Helper()
	obsVar := "obs_" + msg
	if err := sys.AddVar(obsVar, "0", "1"); err != nil {
		t.Fatal(err)
	}
	genuine := threat.Slot(spec.MessageName(msg), threat.OriginGenuine)
	sys.MapRules(func(r ts.Rule) ts.Rule {
		for _, a := range r.Assigns {
			if a.Value == genuine && (a.Var == threat.VarDL || a.Var == threat.VarUL) {
				r.Assigns = append(slices.Clone(r.Assigns), ts.Assign{Var: obsVar, Value: "1"})
				break
			}
		}
		if r.Tags[threat.TagActor] == "adv" && r.Tags[threat.TagKind] == "replay" && r.Tags[threat.TagMsg] == msg {
			r.Guard = ts.And{r.Guard, ts.Eq{Var: obsVar, Value: "1"}}
		}
		return r
	})
	return sys
}

// TestDerivedBuildAllocBudget pins what a derived build allocates
// against what the graph it builds keeps: edge segments are written
// once, and the slot table and the per-state arrays grow in fixed pages
// as states are met, so deriving a guard-replay refinement of the
// composed model from its cached base allocates at most 1.3× the
// resident bytes of the result (edge segments, the arena, and the
// pages of off, the parent tree and the build's slot tables).
func TestDerivedBuildAllocBudget(t *testing.T) {
	ctx := context.Background()
	base := composedModel(t)
	bg, err := explore(ctx, base, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys := guardReplay(t, base.Clone(), "service_accept")
	rules, err := sys.CompileRules()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := planDerivation(bg, rules, sys.Vars(), sys.InitialState())
	if !ok {
		t.Fatal("the guard-replay refinement does not derive from the composed model's graph")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := startDerive(ctx, sys, rules, d, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The slot tables are dropped once the graph is complete; the level
	// that completes it interns nothing, so they are at their largest
	// just before it.
	var tables int64
	for !e.g.complete {
		tables = e.slotOf.memBytes() + e.slots.memBytes()
		if err := e.advance(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	g := e.g
	if len(g.segs) < 3 {
		t.Fatalf("derived graph fills %d edge segments, want at least 3 to cross segment boundaries", len(g.segs))
	}
	resident := g.edgeBytes() + g.off.memBytes() + g.parentState.memBytes() + g.parentRule.memBytes() +
		tables + g.arena.memBytes()
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	ratio := float64(allocated) / float64(resident)
	t.Logf("derived %d states: allocated %d bytes for %d resident (%.2f×)", g.NumStates(), allocated, resident, ratio)
	if ratio > 1.3 {
		t.Fatalf("derived build allocated %d bytes, %.2f× its %d resident bytes; want at most 1.3×", allocated, ratio, resident)
	}
}

// deriveOneLevel builds levels levels of base's graph (all of them when
// levels is negative), derives one level of refined's graph from it,
// and returns the bytes the derivation allocated, the fixed bound they
// must stay under whatever the base's size (the arena's and the
// adjacency's first segments, and eight pages for off, the parent tree
// and the slot tables), and the base's state count.
func deriveOneLevel(t *testing.T, base, refined *ts.System, levels int) (allocated, bound int64, baseStates int) {
	t.Helper()
	ctx := context.Background()
	brules, err := base.CompileRules()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := startBuild(ctx, base, brules, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i != levels && !eb.g.complete; i++ {
		if err := eb.advance(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rules, err := refined.CompileRules()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := planDerivation(eb.g.view(), rules, refined.Vars(), refined.InitialState())
	if !ok {
		t.Fatal("the refinement does not derive from the base")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := startDerive(ctx, refined, rules, d, lazyBuild(eb), Options{Workers: 2})
	if err == nil {
		err = e.advance(ctx)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if e.g.levels != 1 || e.g.complete {
		t.Fatalf("derived %d levels (complete %v), want one level of a larger graph", e.g.levels, e.g.complete)
	}
	bound = e.g.arena.memBytes() + e.g.edgeBytes() + 8*pageLen*4
	return int64(after.TotalAlloc - before.TotalAlloc), bound, eb.g.NumStates()
}
