package mc

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"prochecker/internal/obs"
	"prochecker/internal/ts"
)

// samePrefix fails unless the view v is a prefix of the complete graph
// full: the same bytes for every state it holds, the same parent tree,
// and the same row for every state it has expanded.
func samePrefix(t *testing.T, mode string, v, full *StateGraph) {
	t.Helper()
	n, x := v.NumStates(), v.expanded()
	switch {
	case n > full.NumStates() || x > full.expanded() || x > n:
		t.Fatalf("%s: view of %d states (%d expanded) is no prefix of %d states (%d expanded)",
			mode, n, x, full.NumStates(), full.expanded())
	case !slices.Equal(v.parentState, full.parentState[:n]) || !slices.Equal(v.parentRule, full.parentRule[:n]):
		t.Fatalf("%s: parent tree of the %d-state view differs", mode, n)
	}
	for id := int32(0); int(id) < x; id++ {
		if g, w := v.row(id), full.row(id); !slices.Equal(g, w) {
			t.Fatalf("%s: row %d of the view is %v, want %v", mode, id, g, w)
		}
	}
	for id := int32(0); int(id) < n; id++ {
		if g, w := v.StateAt(id), full.StateAt(id); !slices.Equal(g, w) {
			t.Fatalf("%s: state %d of the view is %v, want %v", mode, id, g, w)
		}
	}
}

// growByLevels advances e one level at a time until its graph is
// complete. Every view published on the way must be a prefix of full,
// and still be that prefix once the build is complete (later levels
// write only past it); the last must equal full.
func growByLevels(t *testing.T, mode string, e *levelExplorer, full *StateGraph) {
	t.Helper()
	var views []*StateGraph
	for {
		v := e.g.view()
		samePrefix(t, mode, v, full)
		views = append(views, v)
		if v.complete {
			break
		}
		if err := e.advance(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := e.g.levels; got != v.levels+1 && !e.g.complete {
			t.Fatalf("%s: one advance went from level %d to %d", mode, v.levels, got)
		}
	}
	for _, v := range views {
		samePrefix(t, mode+" after completion", v, full)
	}
	if len(views) < 3 {
		t.Fatalf("%s: complete after %d views, want a build of several levels", mode, len(views))
	}
	sameGraph(t, mode, views[len(views)-1], full)
}

// TestLazyGrowthMatchesBuildGraph grows explored and derived graphs one
// level at a time, complete and under a budget that truncates them, and
// asserts that each published view is a prefix of buildGraph's graph
// and the last equals it: rows, parent tree and state bytes.
func TestLazyGrowthMatchesBuildGraph(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		sys  func(t *testing.T) *ts.System
	}{
		{"random", func(t *testing.T) *ts.System { return randomSystem(t, 6, 4, 60) }},
		{"chain", func(t *testing.T) *ts.System { return odometer(t, 12) }},
		{"hashed", func(t *testing.T) *ts.System {
			sys := randomSystem(t, 5, 3, 40)
			padWide(t, sys)
			return sys
		}},
		{"derivation base", func(t *testing.T) *ts.System { return derivationBase(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys(t)
			rules, err := sys.CompileRules()
			if err != nil {
				t.Fatal(err)
			}
			fp := systemFingerprint(sys)
			complete, err := buildGraph(ctx, sys, rules, fp, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{Workers: 2}, {Workers: 2, MaxStates: complete.NumStates() / 2}} {
				mode := "explored, budget " + strconv.Itoa(opts.maxStates())
				full, err := buildGraph(ctx, sys, rules, fp, opts)
				if err != nil {
					t.Fatal(err)
				}
				e, err := startBuild(ctx, sys, rules, fp, opts)
				if err != nil {
					t.Fatal(err)
				}
				growByLevels(t, mode, e, full)
			}

			refined := sys.Clone()
			if _, ok := refined.RuleByName("r0"); ok {
				refine(t, refined)
			} else {
				guardLead(t, refined)
			}
			rrules, err := refined.CompileRules()
			if err != nil {
				t.Fatal(err)
			}
			d, ok := planDerivation(complete, rrules, refined.Vars(), refined.InitialState())
			if !ok {
				if residualGuards(refined) {
					return // residual guards rule derivation out
				}
				t.Fatal("the refinement does not derive from its base graph")
			}
			rfp := systemFingerprint(refined)
			whole, err := explore(ctx, refined, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{Workers: 2}, {Workers: 2, MaxStates: whole.NumStates() / 2}} {
				mode := "derived, budget " + strconv.Itoa(opts.maxStates())
				full, err := explore(ctx, refined, opts)
				if err != nil {
					t.Fatal(err)
				}
				e, err := startDerive(ctx, refined, rrules, d, rfp, opts)
				if err != nil {
					t.Fatal(err)
				}
				growByLevels(t, mode, e, full)
			}
		})
	}
}

// guardLead refines a system without rules r0..r2 the way the CEGAR
// loop does: a monitor variable set by the first rule and required by
// the second.
func guardLead(t *testing.T, sys *ts.System) {
	t.Helper()
	if err := sys.AddVar("seen", "0", "1"); err != nil {
		t.Fatal(err)
	}
	first, second := sys.Rules()[0].Name, sys.Rules()[1].Name
	sys.MapRules(func(r ts.Rule) ts.Rule {
		switch r.Name {
		case first:
			r.Assigns = append(slices.Clone(r.Assigns), ts.Assign{Var: "seen", Value: "1"})
		case second:
			r.Guard = ts.And{r.Guard, ts.Eq{Var: "seen", Value: "1"}}
		}
		return r
	})
}

// spansNamed lists the spans of o's tree with the given name, in start
// order.
func spansNamed(o *obs.Observer, name string) []*obs.SpanNode {
	var out []*obs.SpanNode
	o.Manifest().Spans.Walk(func(n *obs.SpanNode) {
		if n.Name == name {
			out = append(out, n)
		}
	})
	return out
}

// TestEarlyExitBuildsOnlyWhatChecksNeed: an invariant violated deep in
// a long chain builds the graph only down to the violation, and leaves
// it partial; a response check on the same graph then completes it
// under an mc.extend span of its own, without a new exploration, and
// the run's totals count each state once.
func TestEarlyExitBuildsOnlyWhatChecksNeed(t *testing.T) {
	const k = 20
	sys := odometer(t, k) // one state per level: state i is lo=i%k, hi=i/k
	inv := Invariant{PropName: "inv", Holds: ts.Neq{Var: "hi", Value: "d3"}}
	resp := Response{PropName: "resp", Trigger: func(n string) bool { return n == "lod0" }, Goal: func(n string) bool { return n == "carryd0" }}
	engine := NewEngine()
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	reg := o.Metrics()

	res, src, err := engine.CheckSourced(ctx, sys, inv, Options{Workers: 1})
	if err != nil || src != GraphBuilt {
		t.Fatalf("invariant: source %q, error %v", src, err)
	}
	const violation = 3 * k // the first state with hi=d3
	if want := CheckSequential(sys, inv, Options{}); res.StatesExplored != want.StatesExplored || want.StatesExplored != violation+1 {
		t.Fatalf("invariant: %d states explored, sequential %d, want %d", res.StatesExplored, want.StatesExplored, violation+1)
	}
	explores := spansNamed(o, "mc.explore")
	if len(explores) != 1 {
		t.Fatalf("%d mc.explore spans, want 1", len(explores))
	}
	// State i is interned by the i-th level, and scanned once that level
	// is published.
	if a := explores[0].Attrs; a["complete"] != "false" || a["levels"] != strconv.Itoa(violation) || a["states"] != strconv.Itoa(violation+1) {
		t.Fatalf("mc.explore attrs %v, want an incomplete build of %d levels and %d states", a, violation, violation+1)
	}
	if got := reg.Counter("mc.graphs_partial").Value(); got != 1 {
		t.Fatalf("mc.graphs_partial = %d after the invariant, want 1", got)
	}

	res, src, err = engine.CheckSourced(ctx, sys, resp, Options{Workers: 1})
	if err != nil || src != GraphHit {
		t.Fatalf("response: source %q, error %v", src, err)
	}
	if want := CheckSequential(sys, resp, Options{}); res.Verified != want.Verified || res.StatesExplored != want.StatesExplored {
		t.Fatalf("response: verified=%v states=%d, sequential verified=%v states=%d",
			res.Verified, res.StatesExplored, want.Verified, want.StatesExplored)
	}
	extends := spansNamed(o, "mc.extend")
	if len(extends) != 1 {
		t.Fatalf("%d mc.extend spans, want 1", len(extends))
	}
	if a := extends[0].Attrs; a["complete"] != "true" || a["levels"] != strconv.Itoa(k*k-violation) || a["states"] != strconv.Itoa(k*k-violation-1) {
		t.Fatalf("mc.extend attrs %v, want %d levels and %d states added to a complete graph", a, k*k-violation, k*k-violation-1)
	}
	for name, want := range map[string]int64{
		"mc.graphs_partial":   0,
		"mc.explorations":     1,
		"mc.states_explored":  k * k,
		"mc.graph_cache_hits": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestPartialBuildResumesFromSnapshot: a build an invariant check left
// partial has checkpointed its completed levels; a later build resumes
// from that snapshot and completes the graph with the ids a fresh
// build assigns.
func TestPartialBuildResumesFromSnapshot(t *testing.T) {
	const k = 20
	sys := odometer(t, k)
	inv := Invariant{PropName: "inv", Holds: ts.Neq{Var: "hi", Value: "d3"}}
	dir := t.TempDir()
	if _, err := NewEngine().CheckContext(context.Background(), sys, inv, Options{Workers: 1, SnapshotDir: dir}); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	resumed, err := explore(obs.NewContext(context.Background(), o), sys, Options{Workers: 1, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if lvl := o.Metrics().Gauge("mc.resume_level").Value(); lvl != 3*k {
		t.Fatalf("resumed from level %d, want the partial build's %d", lvl, 3*k)
	}
	fresh, err := explore(context.Background(), sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "resumed partial build", resumed, fresh)
	if resumed.NumStates() != k*k {
		t.Fatalf("resumed build holds %d states, want %d", resumed.NumStates(), k*k)
	}
}
