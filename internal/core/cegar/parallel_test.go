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
	if hits, builds, _ := engine.CacheCounters(); builds != 1 || hits != len(props)-1 {
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
	ctx := obs.NewContext(context.Background(), o)
	outs := make([]Outcome, len(props))
	for i, p := range props {
		out, err := VerifyContext(ctx, c, p, Config{PreCapture: true, MC: mc.Options{Workers: 1}})
		if err != nil {
			t.Fatalf("VerifyContext(%s): %v", p.Name(), err)
		}
		outs[i] = out
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
