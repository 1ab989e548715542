// Package report assembles the paper's evaluation artifacts from the
// library's components: the attack-detection matrix (Table I), the
// LTEInspector-common property list (Table II), the per-property
// verification timings (Figure 8), the RQ2 refinement comparison
// (Section VII-B and Figure 7), NAS coverage, and the SQN staleness
// analysis of Section VII-A.
package report

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"prochecker/internal/conformance"
	"prochecker/internal/core/cegar"
	"prochecker/internal/core/extract"
	"prochecker/internal/core/fsmodel"
	"prochecker/internal/core/props"
	"prochecker/internal/core/threat"
	"prochecker/internal/dataflow"
	"prochecker/internal/lint"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/spec"
	"prochecker/internal/ue"
)

// Model bundles everything built for one implementation profile.
type Model struct {
	Profile  ue.Profile
	Suite    *conformance.Report
	FSM      *fsmodel.FSM
	Stats    extract.Stats
	Composed *threat.Composed
	// Lint is the static pre-check report over FSM and Composed, run as
	// part of the build so every consumer (CLI gate, manifest, job
	// records) reads one shared verdict.
	Lint *lint.Report
}

// BuildModel runs the full extraction pipeline for one profile:
// conformance suite -> information-rich log -> Algorithm 1 -> threat
// composition with the community MME model.
func BuildModel(profile ue.Profile) (*Model, error) {
	return BuildModelContext(context.Background(), profile)
}

// BuildModelContext is BuildModel with cancellation threaded through the
// conformance run; a cancelled build returns an error wrapping
// resilience.ErrCancelled.
func BuildModelContext(ctx context.Context, profile ue.Profile) (*Model, error) {
	return BuildModelOptions(ctx, profile, conformance.RunOptions{})
}

// BuildModelOptions is BuildModelContext with control over the
// conformance run — in particular its link adversary, so a model can be
// extracted from a suite perturbed by seeded fault injection (the batch
// service's fault-matrix campaigns ride on this). The build is one
// "pipeline.build_model" span with the conformance run (which spans
// itself), the log dissection/extraction and the threat composition as
// children.
func BuildModelOptions(ctx context.Context, profile ue.Profile, runOpts conformance.RunOptions) (m *Model, err error) {
	ctx, span := obs.Start(ctx, "pipeline.build_model", obs.A("profile", profile.String()))
	defer func() { span.EndErr(err) }()

	suite, err := conformance.RunSuiteContext(ctx, profile, true, runOpts)
	if err != nil {
		return nil, fmt.Errorf("report: running conformance suite: %w", err)
	}

	_, exSpan := obs.Start(ctx, "extract.model")
	sig := spec.UESignatures(ue.StyleFor(profile))
	fsm, stats, err := extract.ModelWithStats(suite.Log, sig, extract.Options{Name: "UE/" + profile.String()})
	if err != nil {
		exSpan.EndErr(err)
		return nil, fmt.Errorf("report: extracting model: %w", err)
	}
	states, conds, actions, transitions := fsm.Size()
	exSpan.SetAttr("states", fmt.Sprint(states))
	exSpan.SetAttr("transitions", fmt.Sprint(transitions))
	exSpan.End()
	if reg := obs.FromContext(ctx).Metrics(); reg != nil {
		reg.Counter("extract.models").Inc()
		reg.Gauge("extract.fsm_states").Set(int64(states))
		reg.Gauge("extract.fsm_conditions").Set(int64(conds))
		reg.Gauge("extract.fsm_actions").Set(int64(actions))
		reg.Gauge("extract.fsm_transitions").Set(int64(transitions))
	}

	_, thSpan := obs.Start(ctx, "threat.compose")
	composed, err := threat.Compose(threat.Config{
		Name:                 "IMP/" + profile.String(),
		UE:                   fsm,
		MME:                  ltemodels.MME(),
		SuperviseGUTIRealloc: true,
	})
	if err != nil {
		thSpan.EndErr(err)
		return nil, fmt.Errorf("report: composing threat model: %w", err)
	}
	thSpan.End()
	lintRep := lintModel(ctx, fsm, composed)
	return &Model{Profile: profile, Suite: suite, FSM: fsm, Stats: stats, Composed: composed, Lint: lintRep}, nil
}

// lintModel runs the static pre-check phase over a freshly built model,
// recording its own span and the lint.* metrics. Diagnostics never fail
// the build — gating on them is the caller's policy (Analysis.LintGate,
// the CLI's -lint mode, ci.sh).
func lintModel(ctx context.Context, fsm *fsmodel.FSM, composed *threat.Composed) *lint.Report {
	_, span := obs.Start(ctx, "lint.model")
	rep := lint.Run(&lint.Target{FSM: fsm, Composed: composed})
	errs, warns, infos := rep.Counts()
	span.SetAttr("errors", fmt.Sprint(errs))
	span.SetAttr("warnings", fmt.Sprint(warns))
	span.SetAttr("infos", fmt.Sprint(infos))
	span.End()
	if reg := obs.FromContext(ctx).Metrics(); reg != nil {
		reg.Counter("lint.runs").Inc()
		reg.Gauge("lint.diagnostics").Set(int64(len(rep.Diagnostics)))
		reg.Gauge("lint.errors").Set(int64(errs))
		reg.Gauge("lint.warnings").Set(int64(warns))
		reg.Gauge("lint.infos").Set(int64(infos))
	}
	return rep
}

// BuildESMModel runs the per-layer pipeline for the session-management
// layer: the same conformance log, dissected with the ESM signatures,
// composed with the hand-built network-side ESM machine.
func BuildESMModel(profile ue.Profile) (*Model, error) {
	suite, err := conformance.RunSuite(profile, true)
	if err != nil {
		return nil, fmt.Errorf("report: running conformance suite: %w", err)
	}
	sig := spec.ESMSignatures(ue.StyleFor(profile))
	fsm, stats, err := extract.ModelWithStats(suite.Log, sig, extract.Options{
		Name:    "UE-ESM/" + profile.String(),
		Initial: fsmodel.State(spec.BearerInactive),
	})
	if err != nil {
		return nil, fmt.Errorf("report: extracting ESM model: %w", err)
	}
	composed, err := threat.Compose(threat.Config{
		Name:       "IMP-ESM/" + profile.String(),
		UE:         fsm,
		MME:        ltemodels.MMEESM(),
		UEInternal: ltemodels.UEESMInternal(),
	})
	if err != nil {
		return nil, fmt.Errorf("report: composing ESM threat model: %w", err)
	}
	lintRep := lintModel(context.Background(), fsm, composed)
	return &Model{Profile: profile, Suite: suite, FSM: fsm, Stats: stats, Composed: composed, Lint: lintRep}, nil
}

// ESMVerdicts evaluates the session-management property extension on one
// profile.
func ESMVerdicts(profile ue.Profile) ([]Verdict, error) {
	m, err := BuildESMModel(profile)
	if err != nil {
		return nil, err
	}
	ev := NewEvaluator(m)
	var out []Verdict
	for _, p := range props.ESMCatalogue() {
		v, err := ev.Evaluate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Verdict is one property's outcome on one implementation.
type Verdict struct {
	PropertyID string
	Verified   bool
	Detected   bool
	Detail     string
	Duration   time.Duration
	States     int
	Iterations int
	// Vacuous marks a model-checked property discharged by the static
	// vacuity pre-pass: its trigger matches no statically-fireable rule,
	// so it verified without exploration (States stays zero).
	Vacuous bool
}

// Evaluator runs properties against a built model, caching outcomes.
// It is safe for concurrent use: concurrent evaluations of distinct
// properties proceed in parallel, while concurrent evaluations of the
// same property are collapsed into one run. Its EvaluateAllContext is
// the pipeline's one catalogue pool: Analysis.CheckAll, full-catalogue
// jobs and VerifyAllProperties all fan the catalogue out through it.
type Evaluator struct {
	model *Model
	cfg   cegar.Config

	mu       sync.Mutex
	cache    map[string]Verdict
	inflight map[string]*evalCall
	waiting  int // callers blocked on an in-flight evaluation; tests synchronise on it
	// reach caches the static reachability fixpoint per system
	// generation for the vacuity pre-check.
	reach    *dataflow.RuleReach
	reachGen uint64
}

// evalCall is one in-flight property evaluation; done is closed when the
// verdict (or error) is available.
type evalCall struct {
	done chan struct{}
	v    Verdict
	err  error
}

// NewEvaluator builds an evaluator with the paper's threat configuration
// (pre-capture phase enabled, COTS SQN scheme without freshness limit).
func NewEvaluator(m *Model) *Evaluator {
	return &Evaluator{
		model:    m,
		cfg:      cegar.Config{PreCapture: true},
		cache:    make(map[string]Verdict),
		inflight: make(map[string]*evalCall),
	}
}

// SetMC tunes the model checker: state budget, worker pool and
// snapshot/resume directory. opts.Workers (0 = GOMAXPROCS) also bounds
// EvaluateAllContext's property pool. Call it before evaluations start;
// it is not synchronised with them.
func (e *Evaluator) SetMC(opts mc.Options) {
	e.cfg.MC = opts
}

// Evaluate runs one catalogue property.
func (e *Evaluator) Evaluate(p props.Property) (Verdict, error) {
	return e.EvaluateContext(context.Background(), p)
}

// EvaluateContext is Evaluate with cancellation threaded into the CEGAR
// loop and the live equivalence scenarios. Cancelled evaluations are
// not cached, so a later call with a live context re-runs the property;
// a caller that was waiting on a cancelled run of the same property
// evaluates it itself when its own context is live.
func (e *Evaluator) EvaluateContext(ctx context.Context, p props.Property) (Verdict, error) {
	e.mu.Lock()
	for {
		if v, ok := e.cache[p.ID]; ok {
			e.mu.Unlock()
			return v, nil
		}
		c, ok := e.inflight[p.ID]
		if !ok {
			break
		}
		e.waiting++
		e.mu.Unlock()
		done := false
		select {
		case <-c.done:
			done = true
		case <-ctx.Done():
		}
		e.mu.Lock()
		e.waiting--
		switch {
		case !done:
			e.mu.Unlock()
			return Verdict{}, fmt.Errorf("report: verifying %s: %w", p.ID, resilience.ErrCancelled)
		case !resilience.Cancelled(c.err) || ctx.Err() != nil:
			e.mu.Unlock()
			return c.v, c.err
		}
		// The run this caller waited on was cancelled by its own caller;
		// this caller's context is live, so it evaluates the property.
	}
	c := &evalCall{done: make(chan struct{})}
	e.inflight[p.ID] = c
	e.mu.Unlock()

	c.v, c.err = e.evaluate(ctx, p)

	e.mu.Lock()
	delete(e.inflight, p.ID)
	if c.err == nil {
		e.cache[p.ID] = c.v
	}
	e.mu.Unlock()
	close(c.done)
	return c.v, c.err
}

// evaluate runs one property uncached. Each evaluation is one
// "property.evaluate" span and feeds the per-property latency
// histogram; evaluations running concurrently in the EvaluateAllContext
// pool become sibling spans under the caller's span.
func (e *Evaluator) evaluate(ctx context.Context, p props.Property) (_ Verdict, err error) {
	start := time.Now()
	ctx, span := obs.Start(ctx, "property.evaluate", obs.A("property", p.ID), obs.A("kind", string(p.Kind)))
	defer func() { span.EndErr(err) }()
	defer func() {
		if reg := obs.FromContext(ctx).Metrics(); reg != nil {
			ms := obs.DurMS(time.Since(start))
			reg.Counter("report.properties_checked").Inc()
			reg.Histogram("report.property_check_ms", nil).Observe(ms)
			reg.Gauge("report.check_ms." + p.ID).Set(int64(ms))
		}
	}()
	var v Verdict
	v.PropertyID = p.ID
	switch p.Kind {
	case props.KindMC:
		if vac, witness := e.vacuityCheck(p); vac {
			v.Verified = true
			v.Vacuous = true
			v.Detail = "vacuously holds: " + witness
			v.Duration = time.Since(start)
			span.SetAttr("verdict", verdictWord(v))
			if reg := obs.FromContext(ctx).Metrics(); reg != nil {
				reg.Counter("mc.vacuity_pruned").Inc()
			}
			return v, nil
		}
		out, verr := cegar.VerifyContext(ctx, e.model.Composed, p.MC(), e.cfg)
		if verr != nil {
			err = fmt.Errorf("report: verifying %s: %w", p.ID, verr)
			if !out.Unknown {
				return Verdict{}, err
			}
			// A budget-exhausted run keeps its inconclusive verdict.
		}
		v.Verified = out.Verified
		v.Detected = out.Attack != nil
		v.States = out.StatesExplored
		v.Iterations = out.Iterations
		switch {
		case out.Attack != nil:
			v.Detail = fmt.Sprintf("attack in %d step(s) after %d iteration(s)", len(out.Attack.Steps), out.Iterations)
		case out.Unknown:
			v.Detail = "inconclusive (bound hit)"
		default:
			v.Detail = fmt.Sprintf("verified over %d states", out.StatesExplored)
		}
	case props.KindEquivalence:
		res, err := props.EvaluateEquivalenceContext(ctx, *p.Equivalence, e.model.Profile)
		if err != nil {
			return Verdict{}, fmt.Errorf("report: equivalence %s: %w", p.ID, err)
		}
		v.Verified = res.Verified
		v.Detected = !res.Verified
		v.Detail = res.Detail
	case props.KindKnowledge:
		res := props.EvaluateKnowledge(*p.Knowledge)
		v.Verified = res.Verified
		v.Detected = !res.Verified
		v.Detail = res.Detail
	default:
		return Verdict{}, fmt.Errorf("report: property %s has unknown kind %q", p.ID, p.Kind)
	}
	v.Duration = time.Since(start)
	span.SetAttr("verdict", verdictWord(v))
	if v.Detected {
		if reg := obs.FromContext(ctx).Metrics(); reg != nil {
			reg.Counter("report.attacks_found").Inc()
		}
	}
	return v, err
}

// vacuityCheck runs the static vacuity pre-pass for a model-checked
// property on the composed base system, caching the abstract
// reachability fixpoint per system generation.
func (e *Evaluator) vacuityCheck(p props.Property) (bool, string) {
	sys := e.model.Composed.System
	gen := sys.Generation()
	e.mu.Lock()
	if e.reach == nil || e.reachGen != gen {
		e.reach = mc.StaticReach(sys)
		e.reachGen = gen
	}
	reach := e.reach
	e.mu.Unlock()
	return mc.Vacuous(reach, sys, p.MC())
}

// verdictWord collapses a verdict to the manifest vocabulary.
func verdictWord(v Verdict) string {
	switch {
	case v.Detected:
		return "attack"
	case v.Vacuous:
		return "vacuously-holds"
	case v.Verified:
		return "verified"
	default:
		return "inconclusive"
	}
}

// EvaluateAllContext evaluates the properties over a bounded worker pool
// (mc.Options.Workers from SetMC, default GOMAXPROCS) with graceful
// degradation: a property whose evaluation fails does not stop the
// others. It returns the completed verdicts in list order — the same
// verdicts a sequential walk returns — alongside the aggregated error
// (a resilience.ErrorList when several failed). A budget-exhausted
// property counts as completed: its inconclusive verdict is kept and
// its error collected. Once ctx is done no further property starts, and
// the error gains one entry wrapping resilience.ErrCancelled that says
// how many properties completed.
func (e *Evaluator) EvaluateAllContext(ctx context.Context, list []props.Property) ([]Verdict, error) {
	verdicts := make([]Verdict, len(list))
	errs := make([]error, len(list))
	ran := resilience.FanOut(ctx, len(list), e.cfg.MC.Workers, func(i int) {
		verdicts[i], errs[i] = e.EvaluateContext(ctx, list[i])
	})

	out := verdicts[:0]
	var failed resilience.Collector
	for i, err := range errs {
		switch {
		case !ran[i] || resilience.Cancelled(err):
			// Accounted for by the single catalogue-stopped entry below.
		case err == nil || errors.Is(err, resilience.ErrBudgetExhausted):
			out = append(out, verdicts[i])
			failed.Add(err)
		default:
			failed.Add(err)
		}
	}
	if ctx.Err() != nil {
		failed.Add(fmt.Errorf("catalogue stopped after %d of %d properties: %w",
			len(out), len(list), resilience.ErrCancelled))
	}
	return out, failed.Err()
}

// AttackInfo is one Table I row's metadata.
type AttackInfo struct {
	ID          string
	Name        string
	PropType    string // Security / Privacy / Security-Privacy
	Implication string
	VulnType    string // Standards / Implementation
	New         bool
}

// TableIAttacks lists the 23 Table I rows in paper order.
func TableIAttacks() []AttackInfo {
	return []AttackInfo{
		{props.AttackP1, "(P1) Service disruption using authentication_request", "Security", "Service disruption", "Standards", true},
		{props.AttackP2, "(P2) Linkability using authentication_response", "Privacy", "Location privacy leakage", "Standards", true},
		{props.AttackP3, "(P3) Selective service dropping", "Security", "Surreptitious service disruption", "Standards", true},
		{props.AttackI1, "(I1) Broken replay protection with all protected messages", "Security", "Broken replay protection", "Implementation", true},
		{props.AttackI2, "(I2) Broken integrity, confidentiality with all protected messages", "Security-Privacy", "Integrity, encryption broken", "Implementation", true},
		{props.AttackI3, "(I3) Counter-reset with replayed authentication_request", "Security", "Breaks replay protection", "Implementation", true},
		{props.AttackI4, "(I4) Security bypass with reject messages", "Security", "Security bypass", "Implementation", true},
		{props.AttackI5, "(I5) Privacy leakage with identity request", "Privacy", "IMSI leaking", "Implementation", true},
		{props.AttackI6, "(I6) Linkability with security_mode_command", "Privacy", "Location tracking", "Implementation", true},
		{props.AttackAuthSyncDoS, "Authentication sync. failure [2]", "Security", "Denial of Service", "Standards", false},
		{props.AttackKickOff, "Stealthy kicking-off [2]", "Security", "Detaching victim surreptitiously", "Standards", false},
		{props.AttackPanic, "Panic attack [2]", "Security", "Creating artificial chaos", "Standards", false},
		{props.AttackTMSILink, "Linkability using TMSI_reallocation [26]", "Privacy", "Location privacy leak", "Standards", false},
		{props.AttackIMSIPaging, "Linkability IMSI to GUTI using paging_request [25]", "Privacy", "Location privacy leak", "Standards", false},
		{props.AttackSyncFailLink, "Linkability using auth_sync_failure [25]", "Privacy", "Location privacy leak", "Standards", false},
		{props.AttackAuthRelay, "Authentication relay [2]", "Security-Privacy", "DoS, location history poisoning", "Standards", false},
		{props.AttackNumb, "Numb attack [2]", "Security", "Prolonged DoS, battery depletion", "Standards", false},
		{props.AttackTAUDowngrade, "Downgrade using tracking_area_reject [6]", "Security", "DoS", "Standards", false},
		{props.AttackDenialAll, "Denial of all services [6]", "Security", "DoS", "Standards", false},
		{props.AttackPagingHijack, "Paging hijacking [2]", "Security", "Stealthy DoS, panic", "Standards", false},
		{props.AttackDetachDown, "Detach/Downgrade [2]", "Security", "DoS, battery depletion", "Standards", false},
		{props.AttackServiceDenial, "Service Denial [2]", "Security", "DoS", "Standards", false},
		{props.AttackGUTILink, "Linkability (GUTI/TMSI) [2]", "Privacy", "Location Tracking", "Standards", false},
	}
}

// Detection is one Table I cell.
type Detection struct {
	Detected bool
	Via      string // property ID that witnessed the attack
}

// AttackRow is one assembled Table I row.
type AttackRow struct {
	AttackInfo
	PerProfile map[ue.Profile]Detection
}

// TableI runs the full detection matrix: for every attack and profile,
// the attack's detecting properties are evaluated until one reports a
// realizable counterexample. The per-profile pipelines are independent
// and run concurrently.
func TableI(profiles []ue.Profile) ([]AttackRow, error) {
	type profileResult struct {
		detections map[string]Detection // attack ID -> cell
		err        error
	}
	results := make([]profileResult, len(profiles))
	var wg sync.WaitGroup
	for i, profile := range profiles {
		wg.Add(1)
		go func(i int, profile ue.Profile) {
			defer wg.Done()
			m, err := BuildModel(profile)
			if err != nil {
				results[i].err = err
				return
			}
			eval := NewEvaluator(m)
			detections := make(map[string]Detection)
			for _, info := range TableIAttacks() {
				for _, prop := range props.Detecting(info.ID) {
					v, err := eval.Evaluate(prop)
					if err != nil {
						results[i].err = err
						return
					}
					if v.Detected {
						detections[info.ID] = Detection{Detected: true, Via: prop.ID}
						break
					}
				}
			}
			results[i].detections = detections
		}(i, profile)
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	var rows []AttackRow
	for _, info := range TableIAttacks() {
		row := AttackRow{AttackInfo: info, PerProfile: make(map[ue.Profile]Detection, len(profiles))}
		for i, profile := range profiles {
			row.PerProfile[profile] = results[i].detections[info.ID]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTableI renders the matrix in the paper's layout (● detected,
// ○ not detected).
func RenderTableI(rows []AttackRow, profiles []ue.Profile) string {
	var b strings.Builder
	b.WriteString("TABLE I: Attacks detected by ProChecker\n\n")
	fmt.Fprintf(&b, "%-68s %-10s %-15s", "Attack", "Type", "Vulnerability")
	for _, p := range profiles {
		fmt.Fprintf(&b, " %-12s", p)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 96+13*len(profiles)) + "\n")
	section := true
	for _, r := range rows {
		if section && !r.New {
			b.WriteString(strings.Repeat("-", 40) + " previous attacks " + strings.Repeat("-", 40) + "\n")
			section = false
		}
		fmt.Fprintf(&b, "%-68s %-10s %-15s", r.Name, r.PropType, r.VulnType)
		for _, p := range profiles {
			d := r.PerProfile[p]
			mark := "○"
			if d.Detected {
				mark = "● (" + d.Via + ")"
			}
			fmt.Fprintf(&b, " %-12s", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderTableII renders the LTEInspector-common property list.
func RenderTableII() string {
	var b strings.Builder
	b.WriteString("TABLE II: Common properties of ProChecker and LTEInspector\n\n")
	for i, p := range props.CommonWithLTEInspector() {
		fmt.Fprintf(&b, "%2d. [%s] %s\n    %s\n", i+1, p.ID, p.CommonLTEInspector, p.Text)
	}
	return b.String()
}

// TimingRow is one Figure 8 data point.
type TimingRow struct {
	Index      int
	PropertyID string
	Pro        time.Duration
	LTE        time.Duration
	ProStates  int
	LTEStates  int
}

// LTEInspectorModel composes the LTEInspector UE and MME models under
// the threat model: Figure 8's LTEᵘ.
func LTEInspectorModel() (*threat.Composed, error) {
	return threat.Compose(threat.Config{
		Name:                 "IMP/LTEInspector",
		UE:                   ltemodels.LTEInspectorUE(),
		MME:                  ltemodels.MME(),
		UEInternal:           []fsmodel.Transition{},
		SuperviseGUTIRealloc: true,
	})
}

// Figure8 verifies the 14 common properties on the extracted model of the
// given profile (Proᵘ) and on the LTEInspector model (LTEᵘ), recording
// execution times — the RQ3 scalability experiment. A row's state
// counts are what each property's last check explored: states for an
// invariant, product nodes its lasso search discovered for a response
// property. They measure search effort, not model size.
func Figure8(profile ue.Profile) ([]TimingRow, error) {
	pro, err := BuildModel(profile)
	if err != nil {
		return nil, err
	}
	lte, err := LTEInspectorModel()
	if err != nil {
		return nil, err
	}
	cfg := cegar.Config{PreCapture: true}
	var rows []TimingRow
	for i, p := range props.CommonWithLTEInspector() {
		row := TimingRow{Index: i + 1, PropertyID: p.ID}

		start := time.Now()
		proOut, err := cegar.Verify(pro.Composed, p.MC(), cfg)
		if err != nil {
			return nil, fmt.Errorf("report: fig8 %s on Pro: %w", p.ID, err)
		}
		row.Pro = time.Since(start)
		row.ProStates = proOut.StatesExplored

		start = time.Now()
		lteOut, err := cegar.Verify(lte, p.MC(), cfg)
		if err != nil {
			return nil, fmt.Errorf("report: fig8 %s on LTE: %w", p.ID, err)
		}
		row.LTE = time.Since(start)
		row.LTEStates = lteOut.StatesExplored
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure8 renders the timing comparison as an ASCII chart.
func RenderFigure8(rows []TimingRow) string {
	var b strings.Builder
	b.WriteString("FIGURE 8: Execution time of the common properties (ProChecker vs LTEInspector model)\n\n")
	var maxDur time.Duration
	for _, r := range rows {
		if r.Pro > maxDur {
			maxDur = r.Pro
		}
		if r.LTE > maxDur {
			maxDur = r.LTE
		}
	}
	if maxDur == 0 {
		maxDur = time.Millisecond
	}
	const width = 40
	bar := func(d time.Duration) string {
		n := int(int64(d) * width / int64(maxDur))
		return strings.Repeat("#", n)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%2d %-4s Pro %-40s %8.1fms (%d explored)\n", r.Index, r.PropertyID, bar(r.Pro), float64(r.Pro.Microseconds())/1000, r.ProStates)
		fmt.Fprintf(&b, "        LTE %-40s %8.1fms (%d explored)\n", bar(r.LTE), float64(r.LTE.Microseconds())/1000, r.LTEStates)
	}
	var proTotal, lteTotal time.Duration
	for _, r := range rows {
		proTotal += r.Pro
		lteTotal += r.LTE
	}
	ratio := float64(proTotal) / float64(lteTotal)
	fmt.Fprintf(&b, "\ntotal: ProChecker %v, LTEInspector %v (ratio %.2fx)\n", proTotal.Round(time.Millisecond), lteTotal.Round(time.Millisecond), ratio)
	return b.String()
}

// RefinementResult packages the RQ2 comparison.
type RefinementResult struct {
	Report  *fsmodel.Report
	Profile ue.Profile
	// CoarseSize / RefinedSize are (states, conditions, actions,
	// transitions) of each model.
	CoarseSize  [4]int
	RefinedSize [4]int
}

// Refinement runs the RQ2 comparison: the extracted model of the profile
// (plus the composition's internal transitions, which LTEInspector's
// model also contains) against the LTEInspector UE model.
func Refinement(profile ue.Profile) (*RefinementResult, error) {
	m, err := BuildModel(profile)
	if err != nil {
		return nil, err
	}
	refined := m.FSM.Clone()
	for _, tr := range threat.DefaultUEInternal() {
		refined.AddTransition(tr)
	}
	coarse := ltemodels.LTEInspectorUE()
	rep := fsmodel.CheckRefinement(coarse, refined, ltemodels.UEStateMapping())
	res := &RefinementResult{Report: rep, Profile: profile}
	s, c, a, t := coarse.Size()
	res.CoarseSize = [4]int{s, c, a, t}
	s, c, a, t = refined.Size()
	res.RefinedSize = [4]int{s, c, a, t}
	return res, nil
}

// RenderRefinement renders the RQ2 report including the Figure 7 mapping
// examples.
func RenderRefinement(res *RefinementResult) string {
	var b strings.Builder
	rep := res.Report
	fmt.Fprintf(&b, "RQ2: Refinement of LTEInspector's model by the extracted %s model\n\n", res.Profile)
	fmt.Fprintf(&b, "LTEInspector model: %d states, %d conditions, %d actions, %d transitions\n",
		res.CoarseSize[0], res.CoarseSize[1], res.CoarseSize[2], res.CoarseSize[3])
	fmt.Fprintf(&b, "ProChecker model:   %d states, %d conditions, %d actions, %d transitions\n\n",
		res.RefinedSize[0], res.RefinedSize[1], res.RefinedSize[2], res.RefinedSize[3])
	fmt.Fprintf(&b, "refines: %v\n", rep.Refines())
	counts := rep.CountByKind()
	fmt.Fprintf(&b, "transition mappings: %d direct, %d stricter-condition, %d split-via-new-states\n",
		counts[fsmodel.MappedDirect], counts[fsmodel.MappedStricter], counts[fsmodel.MappedSplit])
	fmt.Fprintf(&b, "new states: %v\n", rep.NewStates)
	fmt.Fprintf(&b, "new condition messages: %v\n", rep.NewConditionMessages)
	fmt.Fprintf(&b, "new predicates: %v\n\n", rep.NewPredicates)
	b.WriteString("Figure 7-style mapping examples:\n")
	shown := 0
	for _, m := range rep.Mappings {
		if m.Kind == fsmodel.MappedDirect || shown >= 4 {
			continue
		}
		fmt.Fprintf(&b, "  (%s)\n    LTE: %s\n", m.Kind, m.Coarse)
		for _, r := range m.Refined {
			fmt.Fprintf(&b, "    Pro: %s\n", r)
		}
		shown++
	}
	if problems := rep.Problems(); len(problems) > 0 {
		b.WriteString("\nproblems:\n")
		for _, p := range problems {
			b.WriteString("  " + p + "\n")
		}
	}
	return b.String()
}

// RenderCoverage renders the per-profile NAS coverage, base suite vs the
// suite extended with the paper's added test cases.
func RenderCoverage() (string, error) {
	var b strings.Builder
	b.WriteString("NAS-layer coverage by conformance suite (Section VI)\n\n")
	for _, p := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI} {
		full, err := conformance.RunSuite(p, true)
		if err != nil {
			return "", err
		}
		base, err := conformance.RunSuite(p, false)
		if err != nil {
			return "", err
		}
		added := len(conformance.SuiteFor(p, true)) - len(conformance.SuiteFor(p, false))
		fmt.Fprintf(&b, "%-12s base suite: %s\n", p.String()+":", base.Coverage)
		fmt.Fprintf(&b, "%-12s +%d cases:  %s\n", "", added, full.Coverage)
		if misses := full.Coverage.MissingTestHints(); len(misses) > 0 {
			sort.Strings(misses)
			fmt.Fprintf(&b, "%-12s missing-test hints: %d (e.g. %s)\n", "", len(misses), misses[0])
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// RenderDeviations diffs each open-source profile's extracted model
// against the conformant one, surfacing the implementation deviations
// (the I1-I6 behaviour) directly from the models — before any property
// is even checked.
func RenderDeviations() (string, error) {
	reference, err := BuildModel(ue.ProfileConformant)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Implementation deviations by FSM diff (subject vs conformant reference)\n\n")
	for _, p := range []ue.Profile{ue.ProfileSRS, ue.ProfileOAI} {
		subject, err := BuildModel(p)
		if err != nil {
			return "", err
		}
		rep := fsmodel.Deviations(subject.FSM, reference.FSM)
		b.WriteString(rep.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// VerifyAllProperties evaluates the complete 62-property catalogue on one
// profile, returning verdicts in catalogue order.
func VerifyAllProperties(profile ue.Profile) ([]Verdict, error) {
	m, err := BuildModel(profile)
	if err != nil {
		return nil, err
	}
	ev := NewEvaluator(m)
	return ev.EvaluateAllContext(context.Background(), props.Catalogue())
}

// RenderVerdicts summarises a full catalogue run.
func RenderVerdicts(profile ue.Profile, verdicts []Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Property verdicts for %s (%d properties)\n\n", profile, len(verdicts))
	detected := 0
	for _, v := range verdicts {
		mark := "verified"
		if v.Detected {
			mark = "ATTACK"
			detected++
		} else if !v.Verified {
			mark = "inconclusive"
		}
		fmt.Fprintf(&b, "  %-4s %-12s %s\n", v.PropertyID, mark, v.Detail)
	}
	fmt.Fprintf(&b, "\n%d/%d properties violated (attacks)\n", detected, len(verdicts))
	return b.String()
}
