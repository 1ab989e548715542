// Package cegar implements ProChecker's verification loop (Section IV-B):
// the counterexample-guided abstraction refinement between the symbolic
// model checker and the cryptographic protocol verifier. The model
// checker runs over the threat-instrumented model, which abstracts all
// cryptographic constructs; every counterexample's adversary steps are
// validated against the Dolev-Yao theory by the CPV, spurious steps are
// refined away by pruning the offending adversary rule, and the loop
// continues until the property verifies or a realizable counterexample —
// an attack — is found.
//
// The loop verifies one property per call. Checking a whole catalogue
// is report.Evaluator's job: its pool fans the properties out over
// mc.Options.Workers goroutines, which also bound each exploration.
package cegar

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"prochecker/internal/core/threat"
	"prochecker/internal/cpv"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/spec"
	"prochecker/internal/sqn"
	"prochecker/internal/ts"
)

// DefaultMaxIterations bounds the refinement loop; in practice two or
// three iterations suffice.
const DefaultMaxIterations = 32

// Config parameterises one verification run.
type Config struct {
	// PreCapture grants the adversary a cross-session capture phase
	// (Figure 4's phase 1). On in the paper's threat model.
	PreCapture bool
	// SQN describes the deployed Annex C scheme; the freshness limit L
	// decides whether a stale-but-in-range replayed SQN is feasible.
	// The zero value means sqn.DefaultConfig() (L disabled — the COTS
	// reality).
	SQN sqn.Config
	// MaxIterations bounds the refinement loop.
	MaxIterations int
	// MC tunes the model checker, including its exploration worker pool.
	MC mc.Options
}

func (c Config) maxIterations() int {
	if c.MaxIterations > 0 {
		return c.MaxIterations
	}
	return DefaultMaxIterations
}

func (c Config) sqnConfig() sqn.Config {
	if c.SQN == (sqn.Config{}) {
		return sqn.DefaultConfig()
	}
	return c.SQN
}

// RefinementKind selects how a spurious step is refined away.
type RefinementKind uint8

// Refinement kinds.
const (
	// PruneRule removes the rule entirely — exact when the step is
	// infeasible in every context (forging a protected message, stale
	// SQN under an enforced freshness limit).
	PruneRule RefinementKind = iota + 1
	// GuardReplayOnObservation is the lazy-abstraction refinement for
	// replays attempted before anything was captured: an observation bit
	// for the message is added to the model, set whenever a genuine
	// instance crosses a channel, and the replay rule is guarded on it.
	GuardReplayOnObservation
)

// Refinement records one refinement step of the loop.
type Refinement struct {
	Kind   RefinementKind
	Rule   string
	Msg    spec.MessageName
	Reason string
}

// Outcome is the verdict of the CEGAR loop on one property.
type Outcome struct {
	Property string
	// Verified is true when the property holds on the refined model.
	Verified bool
	// Attack is the realizable counterexample when Verified is false.
	Attack *mc.Trace
	// AttackFeasibility explains why each adversary step of the attack is
	// possible.
	AttackFeasibility []string
	// Iterations counts model-checker runs.
	Iterations int
	// Refinements lists the spurious adversary rules pruned.
	Refinements []Refinement
	// StatesExplored is the last model-checking run's exploration size.
	StatesExplored int
	// Unknown marks runs that hit the exploration or iteration bound.
	Unknown bool
}

// Verify runs the MC ⇄ CPV loop for one property on a composed model.
func Verify(composed *threat.Composed, prop mc.Property, cfg Config) (Outcome, error) {
	return VerifyContext(context.Background(), composed, prop, cfg)
}

// VerifyContext is Verify with cancellation: the refinement loop checks
// ctx before every model-checker run and, when cancelled, returns the
// partial outcome so far together with an error wrapping
// resilience.ErrCancelled — a distinct ending from the Unknown verdict
// the iteration/exploration bounds produce.
//
// Each run is one "cegar.verify" span with one "cegar.iteration" child
// per refinement-loop pass (each wrapping the model-checker run and,
// when a counterexample needs validating, a "cpv.validate" child; its
// graph attribute says whether the pass built, hit or shared the
// reachability graph), and
// the loop's totals land in the cegar.* registry counters.
func VerifyContext(ctx context.Context, composed *threat.Composed, prop mc.Property, cfg Config) (Outcome, error) {
	ctx, span := obs.Start(ctx, "cegar.verify", obs.A("property", prop.Name()))
	out, err := verifyContext(ctx, composed, prop, cfg)
	if reg := obs.FromContext(ctx).Metrics(); reg != nil {
		reg.Counter("cegar.iterations").Add(int64(out.Iterations))
		reg.Counter("cegar.refinements").Add(int64(len(out.Refinements)))
		reg.Counter("cegar.spurious_counterexamples").Add(int64(len(out.Refinements)))
		if out.Attack != nil {
			reg.Counter("cegar.attacks").Inc()
		}
	}
	span.SetAttr("iterations", strconv.Itoa(out.Iterations))
	span.SetAttr("refinements", strconv.Itoa(len(out.Refinements)))
	span.SetAttr("verdict", verdictLabel(out))
	span.EndErr(err)
	return out, err
}

// verdictLabel names an outcome for span attributes.
func verdictLabel(out Outcome) string {
	switch {
	case out.Attack != nil:
		return "attack"
	case out.Verified:
		return "verified"
	default:
		return "inconclusive"
	}
}

func verifyContext(ctx context.Context, composed *threat.Composed, prop mc.Property, cfg Config) (Outcome, error) {
	if composed == nil || composed.System == nil {
		return Outcome{}, fmt.Errorf("cegar: nil composed model")
	}
	// The composed system is used read-only until the first refinement
	// actually mutates it; cloning lazily lets every property's first
	// iteration share one cached reachability graph; the engine's
	// structural lookup lets clones that apply the same refinements
	// share one graph as well.
	sys := composed.System
	owned := false
	out := Outcome{Property: prop.Name()}

	for out.Iterations < cfg.maxIterations() {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("cegar: verifying %s after %d iteration(s): %w",
				prop.Name(), out.Iterations, resilience.ErrCancelled)
		}
		out.Iterations++
		iterCtx, iterSpan := obs.Start(ctx, "cegar.iteration", obs.A("n", strconv.Itoa(out.Iterations)))
		res, src, err := mc.CheckSourced(iterCtx, sys, prop, cfg.MC)
		if src != "" {
			iterSpan.SetAttr("graph", string(src))
		}
		out.StatesExplored = res.StatesExplored
		if err != nil {
			iterSpan.EndErr(err)
			if resilience.Cancelled(err) {
				return out, fmt.Errorf("cegar: verifying %s after %d iteration(s): %w",
					prop.Name(), out.Iterations, resilience.ErrCancelled)
			}
			if errors.Is(err, resilience.ErrBudgetExhausted) {
				// The bounded exploration could not settle the property;
				// record the inconclusive verdict and surface the typed
				// budget error instead of a silent Unknown.
				out.Unknown = true
			}
			return out, err
		}
		if res.Truncated {
			out.Unknown = true
			iterSpan.End()
			return out, nil
		}
		if res.Verified {
			out.Verified = true
			iterSpan.End()
			return out, nil
		}
		if res.Counterexample == nil {
			// The checker rejected the property without evidence (e.g. a
			// condition referencing an unknown variable); refining blindly
			// would loop forever.
			err := fmt.Errorf("cegar: %s: model checker returned neither verdict nor counterexample", prop.Name())
			iterSpan.EndErr(err)
			return out, err
		}
		// Re-check the counterexample against the caller's system before
		// the CPV reasons about it: a trace the interpreted semantics
		// cannot replay is a checker fault, not a verdict.
		if err := mc.Certify(sys, prop, res); err != nil {
			err = fmt.Errorf("cegar: internal error: %w", err)
			iterSpan.EndErr(err)
			return out, err
		}
		_, cpvSpan := obs.Start(iterCtx, "cpv.validate", obs.A("steps", strconv.Itoa(len(res.Counterexample.Steps))))
		spurious, refinement, feasibility := validate(res.Counterexample, cfg)
		cpvSpan.SetAttr("spurious", strconv.FormatBool(spurious))
		cpvSpan.End()
		if !spurious {
			out.Attack = res.Counterexample
			out.AttackFeasibility = feasibility
			iterSpan.End()
			return out, nil
		}
		if !owned {
			sys = sys.Clone()
			owned = true
		}
		if err := applyRefinement(sys, refinement); err != nil {
			iterSpan.EndErr(err)
			return out, err
		}
		out.Refinements = append(out.Refinements, refinement)
		iterSpan.SetAttr("refined", refinement.Rule)
		iterSpan.End()
	}
	out.Unknown = true
	return out, nil
}

// validate replays the counterexample through the CPV: it accumulates
// intruder knowledge from every genuine message crossing a public channel
// and checks each adversary step's feasibility. It returns the first
// spurious step as a refinement, or the per-step feasibility explanations
// when the whole trace is realizable.
func validate(trace *mc.Trace, cfg Config) (spurious bool, ref Refinement, feasibility []string) {
	verifier := cpv.NewNASVerifier(cfg.PreCapture)
	staleSQNFeasible := cfg.sqnConfig().FreshnessLimit == 0

	prev := trace.Initial
	for _, step := range trace.Steps {
		// Knowledge accumulation: any channel transitioning to a
		// X@genuine value means a genuine message crossed the air.
		for _, ch := range []string{threat.VarDL, threat.VarUL} {
			after := step.After[ch]
			if after != prev[ch] {
				if m, origin, ok := threat.ParseSlot(after); ok && origin == threat.OriginGenuine {
					verifier.ObserveGenuine(m)
				}
			}
		}

		switch step.Tags[threat.TagActor] {
		case "adv":
			action := cpv.Action{
				Kind:    cpv.ActionKind(step.Tags[threat.TagKind]),
				Message: spec.MessageName(step.Tags[threat.TagMsg]),
			}
			f := verifier.Feasible(action)
			if !f.Feasible {
				kind := PruneRule
				if action.Kind == cpv.ActReplay {
					// Replays are context sensitive: infeasible now, but
					// feasible once the message has been observed. Refine
					// lazily instead of pruning.
					kind = GuardReplayOnObservation
				}
				return true, Refinement{Kind: kind, Rule: step.Rule, Msg: action.Message, Reason: f.Reason}, nil
			}
			feasibility = append(feasibility, fmt.Sprintf("%s(%s): %s", action.Kind, action.Message, f.Reason))
		case "ue", "mme":
			// A transition justified by a stale-yet-in-range SQN is only
			// feasible when the Annex C freshness limit L is absent
			// (Section VII-A); otherwise the USIM would reject it.
			if step.Tags[threat.TagSQNOld] == "1" {
				if !staleSQNFeasible {
					return true, Refinement{
						Kind:   PruneRule,
						Rule:   step.Rule,
						Reason: "stale SQN acceptance impossible: the deployed USIM enforces the Annex C freshness limit L",
					}, nil
				}
				feasibility = append(feasibility,
					fmt.Sprintf("stale SQN accepted: the %d-slot SQN array has no freshness limit", uint64(1)<<cfg.sqnConfig().INDBits))
			}
		}
		prev = step.After
	}
	return false, Refinement{}, feasibility
}

// applyRefinement edits the working system to rule the spurious step out.
func applyRefinement(sys *ts.System, ref Refinement) error {
	switch ref.Kind {
	case PruneRule:
		if !sys.RemoveRule(ref.Rule) {
			return fmt.Errorf("cegar: refinement loop stuck on rule %s", ref.Rule)
		}
		return nil
	case GuardReplayOnObservation:
		obsVar := "obs_" + string(ref.Msg)
		if err := sys.AddVar(obsVar, "0", "1"); err != nil {
			// Already refined for this message yet the same spurious step
			// recurred: the loop cannot make progress.
			return fmt.Errorf("cegar: refinement loop stuck on replay of %s: %w", ref.Msg, err)
		}
		genuineDL := threat.Slot(ref.Msg, threat.OriginGenuine)
		sys.MapRules(func(r ts.Rule) ts.Rule {
			// Every rule that puts a genuine instance on a channel now
			// also records the observation.
			for _, a := range r.Assigns {
				if a.Value == genuineDL && (a.Var == threat.VarDL || a.Var == threat.VarUL) {
					r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: obsVar, Value: "1"})
					break
				}
			}
			// The replay rules for this message require the observation.
			if r.Tags[threat.TagActor] == "adv" && r.Tags[threat.TagKind] == "replay" && r.Tags[threat.TagMsg] == string(ref.Msg) {
				r.Guard = ts.And{r.Guard, ts.Eq{Var: obsVar, Value: "1"}}
			}
			return r
		})
		return nil
	default:
		return fmt.Errorf("cegar: unknown refinement kind %d", ref.Kind)
	}
}
