package cegar

import (
	"strings"
	"testing"

	"prochecker/internal/core/fsmodel"
	"prochecker/internal/core/threat"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/spec"
	"prochecker/internal/sqn"
)

func composed(t *testing.T, supervise bool) *threat.Composed {
	t.Helper()
	c, err := threat.Compose(threat.Config{
		Name:                 "cegar-test",
		UE:                   ltemodels.LTEInspectorUE(),
		MME:                  ltemodels.MME(),
		SuperviseGUTIRealloc: supervise,
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return c
}

func ruleContains(substrs ...string) func(string) bool {
	return func(name string) bool {
		for _, s := range substrs {
			if !strings.Contains(name, s) {
				return false
			}
		}
		return true
	}
}

// TestForgeryRefinedAway is the canonical CEGAR round trip: the abstract
// model lets the adversary inject an authentication_request, the CPV
// refutes the forgery (it needs K), the rule is pruned, and the property
// verifies.
func TestForgeryRefinedAway(t *testing.T) {
	c := composed(t, false)
	prop := mc.NeverFires{
		PropName: "ue-never-processes-forged-auth-request",
		Match:    ruleContains("ue:recv:authentication_request@inject"),
	}
	out, err := Verify(c, prop, Config{PreCapture: true})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !out.Verified {
		t.Fatalf("property not verified: %+v", out)
	}
	if len(out.Refinements) == 0 {
		t.Fatal("no refinement recorded; the CEGAR loop never engaged")
	}
	found := false
	for _, r := range out.Refinements {
		if r.Kind == PruneRule && strings.Contains(r.Rule, "inject") &&
			strings.Contains(r.Rule, "authentication_request") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a pruned forged-auth rule, got %+v", out.Refinements)
	}
	if out.Iterations < 2 {
		t.Errorf("iterations = %d, want >= 2 (refine then verify)", out.Iterations)
	}
}

// TestReplayAttackSurvivesValidation: replaying a previously observed
// attach_request is cryptographically fine, so the counterexample must be
// reported as a real attack — after the lazy observation refinement has
// forced the trace to contain the capture first.
func TestReplayAttackSurvivesValidation(t *testing.T) {
	c := composed(t, false)
	prop := mc.NeverFires{
		PropName: "mme-never-processes-replayed-attach-request",
		Match:    ruleContains("mme:recv:attach_request@replay"),
	}
	out, err := Verify(c, prop, Config{PreCapture: false})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if out.Verified {
		t.Fatal("replay attack missed")
	}
	if out.Attack == nil {
		t.Fatal("no attack trace")
	}
	// The lazy refinement must have fired: a replay before any genuine
	// attach_request is spurious.
	sawObsRefinement := false
	for _, r := range out.Refinements {
		if r.Kind == GuardReplayOnObservation && string(r.Msg) == "attach_request" {
			sawObsRefinement = true
		}
	}
	if !sawObsRefinement {
		t.Errorf("expected GuardReplayOnObservation refinement, got %+v", out.Refinements)
	}
	// In the final attack, a genuine attach_request precedes the replay.
	names := out.Attack.RuleNames()
	genuineIdx, replayIdx := -1, -1
	for i, n := range names {
		if strings.Contains(n, "ue:internal") && strings.Contains(n, "attach_request") && genuineIdx < 0 {
			genuineIdx = i
		}
		if strings.Contains(n, "adv:replay") && strings.Contains(n, "attach_request") {
			replayIdx = i
		}
	}
	if genuineIdx < 0 || replayIdx < 0 || genuineIdx > replayIdx {
		t.Errorf("attack does not capture before replaying:\n%s", out.Attack)
	}
	if len(out.AttackFeasibility) == 0 {
		t.Error("attack lacks feasibility explanations")
	}
}

// TestP1StyleReplayWithPreCapture: with the cross-session capture phase,
// replaying an authentication_request needs no in-trace observation.
func TestP1StyleReplayWithPreCapture(t *testing.T) {
	c := composed(t, false)
	prop := mc.NeverFires{
		PropName: "ue-never-processes-replayed-auth-request",
		Match:    ruleContains("ue:recv:authentication_request@replay"),
	}
	out, err := Verify(c, prop, Config{PreCapture: true})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if out.Verified {
		t.Fatal("P1-style replay missed")
	}
	if len(out.Refinements) != 0 {
		t.Errorf("pre-captured replay should need no refinement, got %+v", out.Refinements)
	}
}

// TestP3SelectiveDenial: the GUTI reallocation response property is
// violated by a drop-everything adversary; drops are always feasible so
// the first counterexample is already an attack.
func TestP3SelectiveDenial(t *testing.T) {
	c := composed(t, true)
	prop := mc.Response{
		PropName: "guti-reallocation-completes",
		Trigger:  ruleContains("mme:guti_realloc:start"),
		Goal:     ruleContains("mme:recv:guti_reallocation_complete"),
	}
	out, err := Verify(c, prop, Config{PreCapture: true})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if out.Verified {
		t.Fatal("P3 selective denial missed")
	}
	hasDrop := false
	for _, n := range out.Attack.RuleNames() {
		if strings.Contains(n, "adv:drop") {
			hasDrop = true
		}
	}
	if !hasDrop {
		t.Errorf("P3 attack trace lacks drops:\n%s", out.Attack)
	}
}

// TestFreshnessLimitClosesP1: when the deployed USIM enforces the Annex C
// limit L, the stale-SQN acceptance is refuted and the replayed-challenge
// *acceptance* property holds. This needs a UE model with SQN predicates,
// so we build a minimal one.
func TestFreshnessLimitClosesP1(t *testing.T) {
	ueModel := minimalSQNUE(t)
	c, err := threat.Compose(threat.Config{
		UE:  ueModel,
		MME: ltemodels.MME(),
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	prop := mc.NeverFires{
		PropName: "ue-never-accepts-stale-sqn",
		Match:    ruleContains("ue:recv:authentication_request@replay", "sqn_in_range=1"),
	}

	// Without L: attack (the COTS reality).
	out, err := Verify(c, prop, Config{PreCapture: true})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if out.Verified {
		t.Fatal("stale SQN acceptance missed with L disabled")
	}

	// With L enforced: the CPV refutes the stale acceptance and the
	// property verifies.
	out2, err := Verify(c, prop, Config{
		PreCapture: true,
		SQN:        sqn.Config{INDBits: sqn.DefaultINDBits, FreshnessLimit: 2},
	})
	if err != nil {
		t.Fatalf("Verify with L: %v", err)
	}
	if !out2.Verified {
		t.Fatalf("property should verify with freshness limit: %+v", out2)
	}
	pruned := false
	for _, r := range out2.Refinements {
		if r.Kind == PruneRule && strings.Contains(r.Reason, "freshness limit") {
			pruned = true
		}
	}
	if !pruned {
		t.Errorf("expected stale-SQN prune refinement, got %+v", out2.Refinements)
	}
}

// minimalSQNUE builds a tiny UE model whose authentication transition
// carries the sqn_in_range predicate, like the automatically extracted
// models do.
func minimalSQNUE(t *testing.T) *fsmodel.FSM {
	t.Helper()
	m := fsmodel.New("UE/minimal-sqn", fsmodel.State(spec.EMMDeregistered))
	m.AddTransition(fsmodel.Transition{
		From: fsmodel.State(spec.EMMRegisteredInitiated),
		To:   fsmodel.State(spec.EMMRegisteredInitiated),
		Cond: fsmodel.Condition{
			Message: spec.AuthRequest,
			Predicates: []fsmodel.Predicate{
				{Var: "mac_valid", Value: "1"},
				{Var: "sqn_in_range", Value: "1"},
			},
		},
		Actions: []spec.MessageName{spec.AuthResponse},
	})
	m.AddTransition(fsmodel.Transition{
		From: fsmodel.State(spec.EMMRegisteredInitiated),
		To:   fsmodel.State(spec.EMMRegisteredInitiated),
		Cond: fsmodel.Condition{
			Message: spec.AuthRequest,
			Predicates: []fsmodel.Predicate{
				{Var: "mac_valid", Value: "1"},
				{Var: "sqn_in_range", Value: "0"},
			},
		},
		Actions: []spec.MessageName{spec.AuthSyncFailure},
	})
	return m
}

func TestVerifyNilComposed(t *testing.T) {
	if _, err := Verify(nil, mc.Invariant{PropName: "x"}, Config{}); err == nil {
		t.Error("nil composed accepted")
	}
}
