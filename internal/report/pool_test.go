package report

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prochecker/internal/core/props"
	"prochecker/internal/core/threat"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// lteModel composes the LTEInspector UE model with the MME: small enough
// that every model-checked property runs the full CEGAR loop quickly.
func lteModel(t *testing.T) *Model {
	t.Helper()
	c, err := threat.Compose(threat.Config{
		Name: "pool-test",
		UE:   ltemodels.LTEInspectorUE(),
		MME:  ltemodels.MME(),
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return &Model{Composed: c}
}

// mcProperty wraps a model-checking property as a catalogue entry.
func mcProperty(p mc.Property) props.Property {
	return props.Property{ID: p.Name(), Kind: props.KindMC, MC: func() mc.Property { return p }}
}

// poolEvaluator is a fresh evaluator (empty verdict cache) with the
// given model-checker options.
func poolEvaluator(m *Model, opts mc.Options) *Evaluator {
	e := NewEvaluator(m)
	e.SetMC(opts)
	return e
}

func ruleContains(substr string) func(string) bool {
	return func(name string) bool { return strings.Contains(name, substr) }
}

// catalogueLikeProps builds a small mixed batch: a property that needs a
// refinement, one that verifies outright, and one with an attack.
func catalogueLikeProps() []props.Property {
	return []props.Property{
		mcProperty(mc.NeverFires{
			PropName: "refined-forgery",
			Match:    ruleContains("ue:recv:authentication_request@inject"),
		}),
		mcProperty(mc.NeverFires{
			PropName: "trivially-verified",
			Match:    func(string) bool { return false },
		}),
		mcProperty(mc.NeverFires{
			PropName: "replay-attack",
			Match:    ruleContains("ue:recv:authentication_request@replay"),
		}),
	}
}

// TestEvaluateAllParallelMatchesSequential: the batch under a worker pool
// returns the same verdicts, in the same order, as the sequential walk.
func TestEvaluateAllParallelMatchesSequential(t *testing.T) {
	m := lteModel(t)
	list := catalogueLikeProps()
	run := func(workers int) []Verdict {
		t.Helper()
		vs, err := poolEvaluator(m, mc.Options{Workers: workers, NoVacuityPrune: true}).
			EvaluateAllContext(context.Background(), list)
		if err != nil {
			t.Fatalf("EvaluateAllContext with %d worker(s): %v", workers, err)
		}
		for i := range vs {
			vs[i].Duration = 0 // wall time, the one field two runs never share
		}
		return vs
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel verdicts diverge:\n  sequential %+v\n  parallel   %+v", seq, par)
	}
	if len(par) != len(list) {
		t.Fatalf("completed %d of %d properties", len(par), len(list))
	}
	for i, p := range list {
		if par[i].PropertyID != p.ID {
			t.Errorf("verdict %d is %s, want %s (ordering lost)", i, par[i].PropertyID, p.ID)
		}
	}
}

// TestEvaluateAllOrdering: verdicts come back in list order.
func TestEvaluateAllOrdering(t *testing.T) {
	list := []props.Property{
		mcProperty(mc.NeverFires{PropName: "a", Match: func(string) bool { return false }}),
		mcProperty(mc.NeverFires{PropName: "b", Match: func(string) bool { return false }}),
	}
	vs, err := NewEvaluator(lteModel(t)).EvaluateAllContext(context.Background(), list)
	if err != nil {
		t.Fatalf("EvaluateAllContext: %v", err)
	}
	if len(vs) != 2 || vs[0].PropertyID != "a" || vs[1].PropertyID != "b" {
		t.Errorf("EvaluateAllContext = %+v", vs)
	}
}

func TestEvaluateAllContextCollectsAndStops(t *testing.T) {
	m := lteModel(t)
	// A trivially-true invariant: verifies in one iteration when live,
	// and the cancelled context must stop the pool before it starts.
	prop := mcProperty(mc.Invariant{PropName: "ctx-test", Holds: ts.And{}})

	// Live context: the property verifies and the batch succeeds.
	vs, err := NewEvaluator(m).EvaluateAllContext(context.Background(), []props.Property{prop})
	if err != nil {
		t.Fatalf("EvaluateAllContext: %v", err)
	}
	if len(vs) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(vs))
	}

	// Cancelled context: prompt return, no verdicts, typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs, err = NewEvaluator(m).EvaluateAllContext(ctx, []props.Property{prop, prop})
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if len(vs) != 0 {
		t.Errorf("cancelled catalogue produced %d verdicts", len(vs))
	}
}

// TestEvaluateAllBudgetExhausted: the pool keeps a budget-exhausted
// property's inconclusive verdict and surfaces the typed error.
func TestEvaluateAllBudgetExhausted(t *testing.T) {
	prop := mcProperty(mc.NeverFires{PropName: "p", Match: func(string) bool { return false }})
	e := poolEvaluator(lteModel(t), mc.Options{MaxStates: 3, NoVacuityPrune: true})
	vs, err := e.EvaluateAllContext(context.Background(), []props.Property{prop})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if len(vs) != 1 || verdictWord(vs[0]) != "inconclusive" {
		t.Errorf("verdicts = %+v, want one inconclusive", vs)
	}
	if resilience.ExitCode(err) != resilience.ExitBudgetExhausted {
		t.Errorf("exit code %d, want %d", resilience.ExitCode(err), resilience.ExitBudgetExhausted)
	}
}

// odometers numbers the odometer systems, so no two share a structure
// and the process-wide graph cache never serves one the graph built for
// another (as it would under -count).
var odometers atomic.Int64

// odometer builds a two-digit base-k counter: one long chain of k*k
// states, one per BFS level, so its exploration takes long enough to be
// cancelled mid-run.
func odometer(t *testing.T, k int) *ts.System {
	t.Helper()
	sys := ts.NewSystem(fmt.Sprintf("odometer-%d", odometers.Add(1)))
	digits := make([]string, k)
	for i := range digits {
		digits[i] = fmt.Sprintf("d%d", i)
	}
	for _, v := range []string{"lo", "hi"} {
		if err := sys.AddVar(v, digits...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < k; i++ {
		for _, r := range []ts.Rule{
			{
				Name:    "lo" + digits[i],
				Guard:   ts.Eq{Var: "lo", Value: digits[i]},
				Assigns: []ts.Assign{{Var: "lo", Value: digits[i+1]}},
			},
			{
				Name:    "carry" + digits[i],
				Guard:   ts.And{ts.Eq{Var: "lo", Value: digits[k-1]}, ts.Eq{Var: "hi", Value: digits[i]}},
				Assigns: []ts.Assign{{Var: "lo", Value: digits[0]}, {Var: "hi", Value: digits[i+1]}},
			},
		} {
			if err := sys.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys
}

// waitEval polls the evaluator's state until cond holds.
func waitEval(t *testing.T, e *Evaluator, what string, cond func(inflight, waiting int) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		e.mu.Lock()
		inflight, waiting := len(e.inflight), e.waiting
		e.mu.Unlock()
		if cond(inflight, waiting) {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWaiterEvaluatesAfterCancelledRun: a caller that finds the property
// in flight and waits on it gets a verdict of its own when the running
// caller is cancelled, instead of that caller's cancellation.
func TestWaiterEvaluatesAfterCancelledRun(t *testing.T) {
	const k = 160
	m := &Model{Composed: &threat.Composed{System: odometer(t, k)}}
	e := poolEvaluator(m, mc.Options{Workers: 1, NoVacuityPrune: true})
	prop := mcProperty(mc.NeverFires{PropName: "never", Match: func(string) bool { return false }})

	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		_, err := e.EvaluateContext(runCtx, prop)
		runErr <- err
	}()
	waitEval(t, e, "the first run to start", func(inflight, _ int) bool { return inflight == 1 })

	type outcome struct {
		v   Verdict
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		v, err := e.EvaluateContext(context.Background(), prop)
		waiter <- outcome{v, err}
	}()
	waitEval(t, e, "the waiter to join the run", func(_, waiting int) bool { return waiting == 1 })
	cancel()

	if err := <-runErr; !resilience.Cancelled(err) {
		t.Fatalf("first run: want a cancellation, got %v", err)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter with a live context failed: %v", got.err)
	}
	if !got.v.Verified || got.v.States != k*k {
		t.Fatalf("waiter: verified=%v states=%d, want verified over %d states", got.v.Verified, got.v.States, k*k)
	}
}
