// Package prochecker is an automated security and privacy analysis
// framework for 4G LTE protocol implementations, reproducing the system
// of Karim, Hussain and Bertino (ICDCS 2021).
//
// The pipeline mirrors the paper's architecture (Figure 2):
//
//  1. the implementation under test runs its functional conformance test
//     suite with source-level instrumentation, producing an
//     information-rich execution log;
//  2. the model extractor (Algorithm 1) lifts the log into a semantic
//     finite-state machine;
//  3. the adversarial model instrumentor composes the extracted UE
//     machine with a network-side model over public channels under a
//     Dolev-Yao adversary;
//  4. a symbolic model checker and a cryptographic protocol verifier
//     cooperate in a CEGAR loop to verify 62 security and privacy
//     properties, reporting realizable counterexamples as attacks;
//  5. attacks are validated end to end against the live implementation
//     on an in-process testbed.
//
// Basic use:
//
//	a, err := prochecker.Analyze(prochecker.SRSLTE)
//	...
//	res, err := a.CheckProperty("S06") // the P1 property
//	if res.AttackFound { fmt.Println(res.Detail) }
package prochecker

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prochecker/internal/channel"
	"prochecker/internal/conformance"
	"prochecker/internal/core/props"
	"prochecker/internal/lint"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/report"
	"prochecker/internal/resilience"
	"prochecker/internal/testbed"
	"prochecker/internal/ue"
)

// Implementation selects which 4G LTE stack behaviour profile to analyse.
type Implementation string

// The three implementations the paper evaluates. Conformant stands in
// for the closed-source commercial stack.
const (
	Conformant Implementation = "conformant"
	SRSLTE     Implementation = "srsLTE"
	OAI        Implementation = "OAI"
)

// Implementations lists all supported profiles.
func Implementations() []Implementation {
	return []Implementation{Conformant, SRSLTE, OAI}
}

// ParseImplementation resolves a user-supplied implementation name onto
// the canonical Implementation, matching case-insensitively ("srslte",
// "SRSLTE" and "srsLTE" all resolve to SRSLTE). Unknown names error
// with the valid set listed.
func ParseImplementation(name string) (Implementation, error) {
	for _, impl := range Implementations() {
		if strings.EqualFold(name, string(impl)) {
			return impl, nil
		}
	}
	valid := make([]string, 0, len(Implementations()))
	for _, impl := range Implementations() {
		valid = append(valid, string(impl))
	}
	return "", fmt.Errorf("prochecker: unknown implementation %q (want one of %s)",
		name, strings.Join(valid, " | "))
}

func (i Implementation) profile() (ue.Profile, error) {
	switch i {
	case Conformant:
		return ue.ProfileConformant, nil
	case SRSLTE:
		return ue.ProfileSRS, nil
	case OAI:
		return ue.ProfileOAI, nil
	default:
		return 0, fmt.Errorf("prochecker: unknown implementation %q", i)
	}
}

// PropertyInfo describes one catalogue property.
type PropertyInfo struct {
	ID     string
	Class  string // "security" or "privacy"
	Kind   string
	Text   string
	Source string
	// CommonLTEInspector is non-empty for the 14 Table II properties.
	CommonLTEInspector string
}

// Properties lists the full 62-property catalogue.
func Properties() []PropertyInfo {
	var out []PropertyInfo
	for _, p := range props.Catalogue() {
		out = append(out, PropertyInfo{
			ID:                 p.ID,
			Class:              string(p.Class),
			Kind:               string(p.Kind),
			Text:               p.Text,
			Source:             p.Source,
			CommonLTEInspector: p.CommonLTEInspector,
		})
	}
	return out
}

// PropertyResult is one property's verdict on one implementation.
type PropertyResult struct {
	ID          string
	Class       string
	Text        string
	Verified    bool
	AttackFound bool
	// Vacuous marks a model-checked property discharged by the static
	// vacuity pre-pass: the verdict is Verified without exploration
	// because no rule matching its trigger is statically fireable.
	Vacuous  bool
	Detail   string
	Duration time.Duration
	// AttackTrace lists the counterexample steps for model-checked
	// attacks (empty otherwise).
	AttackTrace []string
}

// Analysis is a built pipeline for one implementation: extracted model,
// threat composition and cached verdicts.
type Analysis struct {
	impl   Implementation
	model  *report.Model
	eval   *report.Evaluator
	mcOpts mc.Options
	faults channel.FaultConfig
	obsv   *obs.Observer
}

// Option tunes an Analysis at construction time.
type Option func(*Analysis)

// WithWorkers bounds the property-level parallelism of CheckAll and the
// model checker's exploration pool. 0 (the default) means
// runtime.GOMAXPROCS(0); 1 forces a fully sequential run.
func WithWorkers(n int) Option {
	return func(a *Analysis) { a.mcOpts.Workers = n }
}

// WithFaults runs the conformance suite that feeds model extraction
// under the given seeded fault-injection adversary, so the analysed
// model reflects the implementation's behaviour on a hostile link. The
// zero config (the default) keeps the link benign. Two analyses with
// equal configs extract byte-identical models — fault runs are
// reproducible per seed.
func WithFaults(cfg channel.FaultConfig) Option {
	return func(a *Analysis) { a.faults = cfg }
}

// WithObserver attaches an observability recorder: every pipeline phase
// (conformance run, extraction, composition, each property check, CEGAR
// iterations, model-checker explorations, testbed replays) records spans
// and metrics on it, available afterwards as o.Manifest() or live over
// obs.Serve. A nil observer — the default — disables instrumentation at
// the cost of one pointer check per phase.
func WithObserver(o *obs.Observer) Option {
	return func(a *Analysis) { a.obsv = o }
}

// Observer returns the recorder attached with WithObserver (nil when
// observability is off).
func (a *Analysis) Observer() *obs.Observer { return a.obsv }

// obsContext threads the analysis observer into ctx unless the caller
// already carries one (e.g. nested calls from an instrumented phase).
func (a *Analysis) obsContext(ctx context.Context) context.Context {
	if a.obsv == nil || obs.FromContext(ctx) != nil {
		return ctx
	}
	return obs.NewContext(ctx, a.obsv)
}

// Analyze runs the extraction pipeline (conformance suite ->
// instrumentation log -> Algorithm 1 -> threat composition) for the
// given implementation.
func Analyze(impl Implementation, opts ...Option) (*Analysis, error) {
	return AnalyzeContext(context.Background(), impl, opts...)
}

// AnalyzeContext is Analyze with cancellation/deadline support threaded
// through the conformance run. A cancelled build returns an error
// wrapping resilience.ErrCancelled (see ErrCancelled).
func AnalyzeContext(ctx context.Context, impl Implementation, opts ...Option) (*Analysis, error) {
	profile, err := impl.profile()
	if err != nil {
		return nil, err
	}
	a := &Analysis{impl: impl}
	for _, opt := range opts {
		opt(a)
	}
	ctx, span := obs.Start(a.obsContext(ctx), "analyze", obs.A("impl", string(impl)))
	runOpts := conformance.RunOptions{}
	if a.faults.Enabled() {
		span.SetAttr("faults", a.faults.String())
		runOpts.Adversary = a.faults.AdversaryFactory()
	}
	m, err := report.BuildModelOptions(ctx, profile, runOpts)
	span.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("prochecker: %w", err)
	}
	a.model = m
	a.eval = report.NewEvaluator(m)
	a.eval.SetMC(a.mcOpts)
	return a, nil
}

// ErrCancelled marks analyses cut short by context cancellation or
// deadline — a distinct ending from an inconclusive (bound-hit) verdict.
// Test with errors.Is.
var ErrCancelled = resilience.ErrCancelled

// Implementation returns the analysed profile.
func (a *Analysis) Implementation() Implementation { return a.impl }

// ModelSize reports the extracted FSM's dimensions (states, conditions,
// actions, transitions).
func (a *Analysis) ModelSize() (states, conditions, actions, transitions int) {
	return a.model.FSM.Size()
}

// FSMDOT renders the extracted FSM in Graphviz format.
func (a *Analysis) FSMDOT() string { return a.model.FSM.DOT() }

// SMV renders the threat-instrumented model in nuXmv-style syntax, like
// the paper's model generator.
func (a *Analysis) SMV() string { return a.model.Composed.System.SMV() }

// Coverage summarises the NAS-layer coverage the conformance run
// achieved.
func (a *Analysis) Coverage() string { return a.model.Suite.Coverage.String() }

// Log renders the information-rich execution log the model was extracted
// from.
func (a *Analysis) Log() string { return a.model.Suite.Log.Render() }

// LintReport returns the static pre-check diagnostics computed while the
// model was built: the PC0xx findings over the extracted FSM and the
// threat composition.
func (a *Analysis) LintReport() *lint.Report { return a.model.Lint }

// LintGate enforces a severity policy on the lint report: it returns an
// error wrapping resilience.ErrModelLint (CLI exit code 6) when any
// diagnostic is at or above min, and nil otherwise. Callers that should
// not check a malformed model — CI, campaign gating — run it between
// Analyze and the first property check.
func (a *Analysis) LintGate(min lint.Severity) error {
	diags := a.LintReport().AtLeast(min)
	if len(diags) == 0 {
		return nil
	}
	gated := (&lint.Report{Diagnostics: diags}).Codes()
	return fmt.Errorf("prochecker: model lint reported %d diagnostic(s) at or above %s (%s): %w",
		len(diags), min, strings.Join(gated, ","), resilience.ErrModelLint)
}

// CheckProperty verifies one catalogue property by ID.
func (a *Analysis) CheckProperty(id string) (PropertyResult, error) {
	return a.CheckPropertyContext(context.Background(), id)
}

// CheckPropertyContext is CheckProperty with cancellation threaded into
// the CEGAR loop and the live equivalence scenarios.
func (a *Analysis) CheckPropertyContext(ctx context.Context, id string) (PropertyResult, error) {
	p, ok := props.ByID(id)
	if !ok {
		return PropertyResult{}, fmt.Errorf("prochecker: unknown property %q", id)
	}
	v, err := a.eval.EvaluateContext(a.obsContext(ctx), p)
	if err != nil {
		return PropertyResult{}, fmt.Errorf("prochecker: %w", err)
	}
	return propertyResult(p, v), nil
}

// propertyResult maps an evaluator verdict onto the public result.
func propertyResult(p props.Property, v report.Verdict) PropertyResult {
	return PropertyResult{
		ID:          p.ID,
		Class:       string(p.Class),
		Text:        p.Text,
		Verified:    v.Verified,
		AttackFound: v.Detected,
		Vacuous:     v.Vacuous,
		Detail:      v.Detail,
		Duration:    v.Duration,
	}
}

// CheckAll verifies the complete 62-property catalogue with graceful
// degradation: a property whose evaluation errors no longer truncates
// the run — its failure is collected, the remaining properties still
// run, and every completed PropertyResult is returned alongside the
// aggregated error (a resilience.ErrorList when several failed).
func (a *Analysis) CheckAll() ([]PropertyResult, error) {
	return a.CheckAllContext(context.Background())
}

// CheckAllContext is CheckAll with cancellation: the catalogue walk
// stops promptly once ctx is done, returning the results completed so
// far together with an error wrapping ErrCancelled. Properties are
// evaluated over a bounded worker pool (WithWorkers, default
// GOMAXPROCS); completed results come back in catalogue order, same as
// a sequential walk.
func (a *Analysis) CheckAllContext(ctx context.Context) ([]PropertyResult, error) {
	catalogue := props.Catalogue()
	ctx, span := obs.Start(a.obsContext(ctx), "check.catalogue",
		obs.A("properties", fmt.Sprint(len(catalogue))))
	verdicts, err := a.eval.EvaluateAllContext(ctx, catalogue)
	out := make([]PropertyResult, 0, len(verdicts))
	for _, v := range verdicts {
		p, _ := props.ByID(v.PropertyID)
		out = append(out, propertyResult(p, v))
	}
	// Annotate each failure as CheckPropertyContext would.
	var errs resilience.Collector
	if list, ok := err.(resilience.ErrorList); ok {
		for _, e := range list {
			errs.Add(fmt.Errorf("prochecker: %w", e))
		}
	} else if err != nil {
		errs.Add(fmt.Errorf("prochecker: %w", err))
	}
	span.SetAttr("completed", fmt.Sprint(len(out)))
	span.EndErr(errs.Err())
	return out, errs.Err()
}

// AttackMatrix regenerates Table I for the given implementations (all
// three when none are named), returning the rendered matrix.
func AttackMatrix(impls ...Implementation) (string, error) {
	if len(impls) == 0 {
		impls = Implementations()
	}
	profiles := make([]ue.Profile, 0, len(impls))
	for _, i := range impls {
		p, err := i.profile()
		if err != nil {
			return "", err
		}
		profiles = append(profiles, p)
	}
	rows, err := report.TableI(profiles)
	if err != nil {
		return "", fmt.Errorf("prochecker: %w", err)
	}
	return report.RenderTableI(rows, profiles), nil
}

// P1Validation reports the end-to-end testbed validation of the
// service-disruption attack.
type P1Validation = testbed.P1Result

// ValidateP1 replays the Figure 4 attack against the live
// implementation.
func ValidateP1(impl Implementation) (P1Validation, error) {
	p, err := impl.profile()
	if err != nil {
		return P1Validation{}, err
	}
	res, err := testbed.ValidateP1(p)
	if err != nil {
		return P1Validation{}, fmt.Errorf("prochecker: %w", err)
	}
	return res, nil
}

// P3Validation reports the selective-denial testbed validation.
type P3Validation = testbed.P3Result

// ValidateP3 replays the selective security-procedure denial against the
// live implementation.
func ValidateP3(impl Implementation) (P3Validation, error) {
	p, err := impl.profile()
	if err != nil {
		return P3Validation{}, err
	}
	res, err := testbed.ValidateP3(p)
	if err != nil {
		return P3Validation{}, fmt.Errorf("prochecker: %w", err)
	}
	return res, nil
}
