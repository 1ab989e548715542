package cegar

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// catalogueLikeProps builds a small mixed batch: a property that needs a
// refinement, one that verifies outright, and one with an attack.
func catalogueLikeProps() []mc.Property {
	return []mc.Property{
		mc.NeverFires{
			PropName: "refined-forgery",
			Match:    ruleContains("ue:recv:authentication_request@inject"),
		},
		mc.NeverFires{
			PropName: "trivially-verified",
			Match:    func(string) bool { return false },
		},
		mc.NeverFires{
			PropName: "replay-attack",
			Match:    ruleContains("ue:recv:authentication_request@replay"),
		},
	}
}

// TestVerifyAllParallelMatchesSequential: the batch under a worker pool
// returns the same outcomes, in the same order, as the sequential walk.
func TestVerifyAllParallelMatchesSequential(t *testing.T) {
	c := composed(t, false)
	props := catalogueLikeProps()
	seq, err := VerifyAllContext(context.Background(), c, props, Config{PreCapture: true, Workers: 1})
	if err != nil {
		t.Fatalf("sequential VerifyAllContext: %v", err)
	}
	par, err := VerifyAllContext(context.Background(), c, props, Config{PreCapture: true, Workers: 4})
	if err != nil {
		t.Fatalf("parallel VerifyAllContext: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel outcomes diverge:\n  sequential %+v\n  parallel   %+v", seq, par)
	}
	if len(par) != len(props) {
		t.Fatalf("completed %d of %d properties", len(par), len(props))
	}
	for i, p := range props {
		if par[i].Property != p.Name() {
			t.Errorf("outcome %d is %s, want %s (ordering lost)", i, par[i].Property, p.Name())
		}
	}
}

// TestVerifyAllSharedExploration: with lazy clone-on-refine, the first
// iteration of every property discharges on one cached graph.
func TestVerifyAllSharedExploration(t *testing.T) {
	c := composed(t, false)
	props := []mc.Property{
		mc.NeverFires{PropName: "a", Match: func(string) bool { return false }},
		mc.NeverFires{PropName: "b", Match: func(string) bool { return false }},
		mc.NeverFires{PropName: "c", Match: func(string) bool { return false }},
	}
	engine := mc.NewEngine()
	for _, p := range props {
		if _, err := engine.CheckContext(context.Background(), c.System, p, mc.Options{}); err != nil {
			t.Fatalf("CheckContext: %v", err)
		}
	}
	if hits, builds := engine.CacheStats(); builds != 1 || hits != len(props)-1 {
		t.Fatalf("hits=%d builds=%d, want %d/1: properties did not share one exploration",
			hits, builds, len(props)-1)
	}
}

// TestVerifyContextBudgetExhausted: a starved state budget surfaces as
// the typed resilience error with the Unknown verdict attached.
func TestVerifyContextBudgetExhausted(t *testing.T) {
	c := composed(t, false)
	prop := mc.NeverFires{PropName: "p", Match: func(string) bool { return false }}
	out, err := VerifyContext(context.Background(), c, prop, Config{
		PreCapture: true,
		MC:         mc.Options{MaxStates: 3},
	})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if !out.Unknown {
		t.Errorf("budget-exhausted outcome not marked Unknown: %+v", out)
	}

	// The batch API keeps the inconclusive outcome and surfaces the error.
	outs, err := VerifyAllContext(context.Background(), c, []mc.Property{prop}, Config{
		PreCapture: true,
		MC:         mc.Options{MaxStates: 3},
	})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("batch: want ErrBudgetExhausted, got %v", err)
	}
	if len(outs) != 1 || !outs[0].Unknown {
		t.Errorf("batch outcomes = %+v, want one Unknown", outs)
	}
	if resilience.ExitCode(err) != resilience.ExitBudgetExhausted {
		t.Errorf("exit code %d, want %d", resilience.ExitCode(err), resilience.ExitBudgetExhausted)
	}
}

// TestRefinedClonesShareOneGraph: two properties that apply the same
// refinements refine separate clones of the composed system, and the
// second one's refined iterations are served the graphs the first one
// built. Every cegar.iteration span says where its graph came from.
func TestRefinedClonesShareOneGraph(t *testing.T) {
	c := composed(t, false)
	match := ruleContains("ue:recv:authentication_request@inject")
	props := []mc.Property{
		mc.NeverFires{PropName: "first", Match: match},
		mc.NeverFires{PropName: "second", Match: match},
	}
	o := obs.New()
	outs, err := VerifyAllContext(obs.NewContext(context.Background(), o), c, props, Config{PreCapture: true, Workers: 1})
	if err != nil {
		t.Fatalf("VerifyAllContext: %v", err)
	}
	if len(outs[1].Refinements) == 0 || !reflect.DeepEqual(outs[0].Refinements, outs[1].Refinements) {
		t.Fatalf("the two properties must apply the same refinements: %+v vs %+v", outs[0].Refinements, outs[1].Refinements)
	}

	m := o.Manifest()
	var sources [][]string
	m.Spans.Walk(func(n *obs.SpanNode) {
		switch n.Name {
		case "cegar.verify":
			sources = append(sources, nil)
		case "cegar.iteration":
			last := len(sources) - 1
			sources[last] = append(sources[last], n.Attrs["graph"])
		}
	})
	if len(sources) != 2 {
		t.Fatalf("want two cegar.verify spans, got %d", len(sources))
	}
	for _, src := range sources[0] {
		if src != string(mc.GraphBuilt) && src != string(mc.GraphHit) && src != string(mc.GraphShared) {
			t.Errorf("first property: iteration graph source %q", src)
		}
	}
	// The second property's first iteration hits the composed system's
	// own graph; each refined clone shares the first property's graph.
	want := []string{string(mc.GraphHit)}
	for range outs[1].Refinements {
		want = append(want, string(mc.GraphShared))
	}
	if !reflect.DeepEqual(sources[1], want) {
		t.Errorf("second property's iteration graph sources %v, want %v", sources[1], want)
	}
	shared, _ := m.Metrics["mc.graph_cache_shared"].(int64)
	hits, _ := m.Metrics["mc.graph_cache_hits"].(int64)
	if shared < int64(len(outs[1].Refinements)) || shared > hits {
		t.Errorf("mc.graph_cache_shared=%d, mc.graph_cache_hits=%d: want shared >= %d and a subset of hits",
			shared, hits, len(outs[1].Refinements))
	}
}
