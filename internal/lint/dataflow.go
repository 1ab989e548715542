// The PC1xx family: flow-sensitive passes built on the static dataflow
// layer. Where PC001–PC008 are per-state structural checks, these run
// the security-context fixpoint, the identity-taint pass and the
// abstract reachability analysis from internal/dataflow over the model
// and report what the flows — not the individual transitions — imply.
package lint

import (
	"fmt"

	"prochecker/internal/core/props"
	"prochecker/internal/dataflow"
	"prochecker/internal/mc"
)

func init() {
	Register(plaintextIdentityPass{})
	Register(preAuthAcceptancePass{})
	Register(staleCountWindowPass{})
	Register(vacuousPropertyPass{})
}

// analysisGraph assembles the dataflow graph for the target: the FSM
// plus the composition's UE-internal transitions.
func analysisGraph(t *Target) *dataflow.Graph {
	return dataflow.NewGraph(t.FSM, internalTransitions(t))
}

// --- PC101: plaintext identity exposure ---

type plaintextIdentityPass struct{}

func (plaintextIdentityPass) Info() Info {
	return Info{
		Code:     "PC101",
		Title:    "plaintext identity exposure after security establishment",
		Severity: SeverityWarn,
		Doc: "The security-context must-analysis proves every path into a " +
			"state has already established a full NAS security context, " +
			"yet a transition out of that state moves identity material " +
			"(the IMSI in an identity_response, a key-derived RES in an " +
			"authentication_response, a GUTI applied from a plaintext " +
			"reallocation) across a plaintext channel slot in reply to a " +
			"trigger that is not authenticated-fresh. An adversary can " +
			"provoke the emission and harvest the identity — the paper's " +
			"information-leak class. The pre-security bootstrap (identity " +
			"and AKA exchanges before any context exists) is not flagged.",
		Fix: "after security activation, the handler should require " +
			"integrity-protected, fresh triggers before emitting identity " +
			"material, or cipher the response",
	}
}

func (p plaintextIdentityPass) Run(t *Target) []Diagnostic {
	base := analyzerBase{p.Info()}
	if t.FSM == nil || t.FSM.Initial == "" {
		return nil
	}
	g := analysisGraph(t)
	exposures := dataflow.Exposures(g, dataflow.Context(g))
	var out []Diagnostic
	for _, e := range exposures {
		out = append(out, base.diag(
			Ref{State: string(e.T.From), Message: string(e.T.Cond.Message), Transition: e.T.Key()},
			fmt.Sprintf("%s crosses plaintext %s at %s although the context is %s",
				e.Material, e.Channel, e.T.From, e.Level),
			e.Why))
	}
	return out
}

// --- PC102: pre-authentication acceptance of protected-only messages ---

type preAuthAcceptancePass struct{}

func (preAuthAcceptancePass) Info() Info {
	return Info{
		Code:     "PC102",
		Title:    "protected-only message accepted where no context can exist",
		Severity: SeverityWarn,
		Doc: "The security-context may-analysis proves no path can equip a " +
			"state with any security context, yet a transition there " +
			"accepts a protected-only message and leaves the deregistered " +
			"family on its strength. The UE cannot have verified the " +
			"message's integrity, so the acceptance trusts an unverifiable " +
			"claim — unlike PC008's per-transition predicate check, this " +
			"is a flow argument: no execution reaches the state with keys " +
			"in hand. Discards, rejects and deregistration teardown are " +
			"not flagged.",
		Fix: "before security activation the handler should discard " +
			"protected-only messages (null_action, no state change)",
	}
}

func (p preAuthAcceptancePass) Run(t *Target) []Diagnostic {
	base := analyzerBase{p.Info()}
	if t.FSM == nil || t.FSM.Initial == "" {
		return nil
	}
	g := analysisGraph(t)
	var out []Diagnostic
	for _, tr := range dataflow.PreAuthAcceptances(g, dataflow.Context(g)) {
		out = append(out, base.diag(
			Ref{State: string(tr.From), Message: string(tr.Cond.Message), Transition: tr.Key()},
			fmt.Sprintf("protected-only %s is accepted at %s, a state no path can secure", tr.Cond.Message, tr.From),
			fmt.Sprintf("the acceptance moves the UE to %s without a verifiable security context", tr.To)))
	}
	return out
}

// --- PC103: stale-count acceptance window ---

type staleCountWindowPass struct{}

func (staleCountWindowPass) Info() Info {
	return Info{
		Code:     "PC103",
		Title:    "stale-count acceptance window",
		Severity: SeverityWarn,
		Doc: "A transition processes a message whose NAS COUNT is stale " +
			"(count_fresh=0) instead of discarding it, and the taint " +
			"analysis computes the window of states whose security context " +
			"may since derive from replayed material. Every transition in " +
			"the window extends the replay surface; the window closes only " +
			"at a fresh count-checked acceptance or deregistration.",
		Fix: "discard messages with stale NAS COUNT; if the acceptance is " +
			"intentional, bound the window by re-running AKA",
	}
}

func (p staleCountWindowPass) Run(t *Target) []Diagnostic {
	base := analyzerBase{p.Info()}
	if t.FSM == nil || t.FSM.Initial == "" {
		return nil
	}
	w := dataflow.Stale(analysisGraph(t))
	var out []Diagnostic
	for _, tr := range w.Acceptances {
		out = append(out, base.diag(
			Ref{State: string(tr.From), Message: string(tr.Cond.Message), Transition: tr.Key()},
			fmt.Sprintf("stale-count %s is accepted in %s, opening a replay-derived context window", tr.Cond.Message, tr.From),
			"window covers "+w.WindowString()))
	}
	return out
}

// --- PC104: vacuous property ---

type vacuousPropertyPass struct{}

func (vacuousPropertyPass) Info() Info {
	return Info{
		Code:     "PC104",
		Title:    "vacuous property: trigger statically unreachable",
		Severity: SeverityInfo,
		Doc: "A catalogue property's trigger matches no rule the abstract " +
			"reachability fixpoint can fire in the threat-composed system, " +
			"so the property holds without exploration. The verdict is " +
			"sound — the abstraction over-approximates fireability — but a " +
			"vacuously-holding property exercises nothing: the model " +
			"checker's vacuity pruning skips it, and a property that is " +
			"vacuous on every profile may be mis-stated.",
		Fix: "confirm the trigger's rule-name pattern matches the composed " +
			"system's vocabulary (-smv prints it)",
	}
}

func (p vacuousPropertyPass) Run(t *Target) []Diagnostic {
	base := analyzerBase{p.Info()}
	if t.Composed == nil || t.Composed.System == nil {
		return nil
	}
	sys := t.Composed.System
	reach := mc.StaticReach(sys)
	var out []Diagnostic
	for _, prop := range props.Catalogue() {
		if prop.Kind != props.KindMC {
			continue
		}
		if vac, witness := mc.Vacuous(reach, sys, prop.MC()); vac {
			out = append(out, base.diag(Ref{},
				fmt.Sprintf("property %s holds vacuously on this model", prop.ID),
				witness))
		}
	}
	return out
}
