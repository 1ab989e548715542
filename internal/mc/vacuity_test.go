// Soundness tests for vacuity pre-pruning: every property mc.Vacuous
// flags must be one the full exploration verifies, since the catalogue
// pool skips exploring it.
package mc_test

import (
	"context"
	"testing"

	"prochecker/internal/mc"
	"prochecker/internal/ts"
)

// TestVacuityPruneDifferential explores every catalogue property the
// pre-pass would prune on the base model and asserts it verifies.
func TestVacuityPruneDifferential(t *testing.T) {
	sys := composedSystem(t)
	list := catalogueMC(t)
	reach := mc.StaticReach(sys)
	engine := mc.NewEngine()

	nVacuous := 0
	for _, p := range list {
		vac, witness := mc.Vacuous(reach, sys, p)
		if !vac {
			continue
		}
		nVacuous++
		if witness == "" {
			t.Errorf("%s: vacuous without a static witness", p.Name())
		}
		res, err := engine.CheckContext(context.Background(), sys, p, mc.Options{Workers: 4})
		if err != nil || !res.Verified || res.Counterexample != nil {
			t.Errorf("%s: flagged vacuous but the full run did not verify it (err=%v, cex=%v)",
				p.Name(), err, res.Counterexample != nil)
		}
	}
	if nVacuous == 0 {
		t.Fatal("catalogue has no statically-vacuous property on the base model; the pruner discharges nothing")
	}
	t.Logf("vacuity pruning discharges %d of %d catalogue properties", nVacuous, len(list))
}

// TestVacuousOnUnits exercises the Vacuous oracle's edges on a tiny
// system: unfireable triggers prune, fireable ones do not, invariants
// never do.
func TestVacuousOnUnits(t *testing.T) {
	sys := ts.NewSystem("unit")
	if err := sys.AddVar("x", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRule(ts.Rule{Name: "step", Guard: ts.Eq{Var: "x", Value: "a"}, Assigns: []ts.Assign{{Var: "x", Value: "b"}}}); err != nil {
		t.Fatal(err)
	}
	// x=c is never assigned: dead's guard is statically unsatisfiable.
	if err := sys.AddRule(ts.Rule{Name: "dead", Guard: ts.Eq{Var: "x", Value: "c"}}); err != nil {
		t.Fatal(err)
	}
	reach := mc.StaticReach(sys)

	if v, w := mc.Vacuous(reach, sys, mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "dead" }}); !v || w == "" {
		t.Errorf("never-fires over a dead rule: vacuous=%v witness=%q", v, w)
	}
	if v, _ := mc.Vacuous(reach, sys, mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "step" }}); v {
		t.Error("never-fires over a live rule must not be vacuous")
	}
	if v, _ := mc.Vacuous(reach, sys, mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "absent" }}); !v {
		t.Error("never-fires matching no rule at all is vacuous")
	}
	if v, w := mc.Vacuous(reach, sys, mc.Response{
		PropName: "r",
		Trigger:  func(n string) bool { return n == "dead" },
		Goal:     func(n string) bool { return n == "step" },
	}); !v || w == "" {
		t.Errorf("response with a dead trigger: vacuous=%v witness=%q", v, w)
	}
	if v, _ := mc.Vacuous(reach, sys, mc.Invariant{PropName: "i", Holds: ts.True{}}); v {
		t.Error("invariants must never be vacuous")
	}
	if v, _ := mc.Vacuous(reach, sys, mc.NeverFires{PropName: "nil-match"}); v {
		t.Error("a nil matcher must not be treated as vacuous")
	}

	// Soundness on the units: exploring the dead-rule property verifies
	// it, and the live one still gets its counterexample.
	if res := mc.Check(sys, mc.NeverFires{PropName: "dead-prop", Match: func(n string) bool { return n == "dead" }}, mc.Options{}); !res.Verified {
		t.Errorf("full run of a vacuous property must verify: %+v", res)
	}
	if res := mc.Check(sys, mc.NeverFires{PropName: "live-prop", Match: func(n string) bool { return n == "step" }}, mc.Options{}); res.Verified || res.Counterexample == nil {
		t.Errorf("live-prop = %+v, want real counterexample", res)
	}
}
