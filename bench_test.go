// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablations of
// the design choices called out there. Run with:
//
//	go test -bench=. -benchmem
//
// The headline series is BenchmarkFigure8: per-property verification time
// on the model extracted by ProChecker versus the hand-built LTEInspector
// model — the paper's RQ3 result is that the richer extracted model costs
// only a fraction more.
package prochecker

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"prochecker/internal/channel"
	"prochecker/internal/conformance"
	"prochecker/internal/core/cegar"
	"prochecker/internal/core/extract"
	"prochecker/internal/core/fsmodel"
	"prochecker/internal/core/props"
	"prochecker/internal/core/threat"
	"prochecker/internal/cpv"
	"prochecker/internal/instrument"
	"prochecker/internal/learner"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/report"
	"prochecker/internal/spec"
	"prochecker/internal/sqn"
	"prochecker/internal/testbed"
	"prochecker/internal/ts"
	"prochecker/internal/ue"
)

// --- shared fixtures (built once, outside the timers) ---

var benchModels = map[ue.Profile]*report.Model{}

func benchModel(b *testing.B, p ue.Profile) *report.Model {
	b.Helper()
	if m, ok := benchModels[p]; ok {
		return m
	}
	m, err := report.BuildModel(p)
	if err != nil {
		b.Fatalf("BuildModel(%s): %v", p, err)
	}
	benchModels[p] = m
	return m
}

func benchLTEComposed(b *testing.B) *threat.Composed {
	b.Helper()
	c, err := threat.Compose(threat.Config{
		Name:                 "IMP/LTEInspector",
		UE:                   ltemodels.LTEInspectorUE(),
		MME:                  ltemodels.MME(),
		UEInternal:           []fsmodel.Transition{},
		SuperviseGUTIRealloc: true,
	})
	if err != nil {
		b.Fatalf("Compose: %v", err)
	}
	return c
}

// --- Table I: attack detection (one bench per representative attack) ---

func benchDetect(b *testing.B, profile ue.Profile, propID string, wantAttack bool) {
	b.Helper()
	m := benchModel(b, profile)
	p, ok := props.ByID(propID)
	if !ok {
		b.Fatalf("unknown property %s", propID)
	}
	cfg := cegar.Config{PreCapture: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := cegar.Verify(m.Composed, p.MC(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if (out.Attack != nil) != wantAttack {
			b.Fatalf("%s on %s: attack=%v, want %v", propID, profile, out.Attack != nil, wantAttack)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	cases := []struct {
		attack  string
		profile ue.Profile
		propID  string
		detect  bool
	}{
		{"P1", ue.ProfileConformant, "S06", true},
		{"P3", ue.ProfileConformant, "S19", true},
		{"I1_srs", ue.ProfileSRS, "S08", true},
		{"I1_conformant_clean", ue.ProfileConformant, "S08", false},
		{"I2_oai", ue.ProfileOAI, "S09", true},
		{"I3_srs", ue.ProfileSRS, "S07", true},
		{"I4_srs", ue.ProfileSRS, "S16", true},
		{"numb", ue.ProfileConformant, "S27", true},
		{"paging_hijack", ue.ProfileConformant, "S29", true},
	}
	for _, tc := range cases {
		b.Run(tc.attack, func(b *testing.B) {
			benchDetect(b, tc.profile, tc.propID, tc.detect)
		})
	}
	b.Run("P2_equivalence", func(b *testing.B) {
		q := props.EquivalenceQuery{Scenario: props.ScenarioAuthResponseLinkability}
		for i := 0; i < b.N; i++ {
			res, err := props.EvaluateEquivalence(q, ue.ProfileConformant)
			if err != nil {
				b.Fatal(err)
			}
			if res.Verified {
				b.Fatal("P2 missed")
			}
		}
	})
	b.Run("I5_knowledge", func(b *testing.B) {
		p, _ := props.ByID("V13")
		for i := 0; i < b.N; i++ {
			if res := props.EvaluateKnowledge(*p.Knowledge); res.Verified {
				b.Fatal("V13 verdict flipped")
			}
		}
	})
}

// --- Table II: catalogue assembly ---

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		common := props.CommonWithLTEInspector()
		if len(common) != 14 {
			b.Fatalf("common = %d", len(common))
		}
	}
}

// --- Figure 1: the NAS procedure flows ---

func BenchmarkFigure1AttachFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := conformance.NewEnv(ue.ProfileConformant, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Attach(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: instrument -> extract (the running example) ---

func BenchmarkFigure3Instrument(b *testing.B) {
	src := `package toy

var emm_state = "UE_REGISTERED_INIT"

func recv_attach_accept(mac []byte) bool {
	mac_valid := len(mac) > 0
	if !mac_valid {
		return false
	}
	send_attach_complete()
	emm_state = "UE_REGISTERED"
	return true
}

func send_attach_complete() {}
`
	for i := 0; i < b.N; i++ {
		if _, _, err := instrument.File(src, instrument.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: the P1 attack end-to-end on the testbed ---

func BenchmarkFigure4P1Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.ValidateP1(ue.ProfileConformant)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Succeeded() {
			b.Fatal("P1 failed")
		}
	}
}

// --- Figure 5: the SQN array analysis ---

func BenchmarkFigure5SQNScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := sqn.StaleReplayDemo(sqn.DefaultConfig(), 31)
		if err != nil {
			b.Fatal(err)
		}
		if n != 31 {
			b.Fatalf("accepted = %d", n)
		}
	}
}

// --- Figure 6: the P2 linkability experiment ---

func BenchmarkFigure6Linkability(b *testing.B) {
	q := props.EquivalenceQuery{Scenario: props.ScenarioAuthResponseLinkability}
	for i := 0; i < b.N; i++ {
		res, err := props.EvaluateEquivalence(q, ue.ProfileConformant)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified {
			b.Fatal("linkability missed")
		}
	}
}

// --- Figure 7 / RQ2: refinement checking ---

func BenchmarkFigure7Refinement(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	refined := m.FSM.Clone()
	for _, tr := range threat.DefaultUEInternal() {
		refined.AddTransition(tr)
	}
	coarse := ltemodels.LTEInspectorUE()
	mapping := ltemodels.UEStateMapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := fsmodel.CheckRefinement(coarse, refined, mapping)
		if !rep.Refines() {
			b.Fatalf("refinement rejected: %v", rep.Problems())
		}
	}
}

// --- Figure 8 / RQ3: the 14 common properties on both models ---

func BenchmarkFigure8(b *testing.B) {
	pro := benchModel(b, ue.ProfileConformant)
	lte := benchLTEComposed(b)
	cfg := cegar.Config{PreCapture: true}
	for i, p := range props.CommonWithLTEInspector() {
		prop := p
		b.Run(fmt.Sprintf("%02d_%s/ProChecker", i+1, prop.ID), func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if _, err := cegar.Verify(pro.Composed, prop.MC(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%02d_%s/LTEInspector", i+1, prop.ID), func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if _, err := cegar.Verify(lte, prop.MC(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Extractor scalability (Section VI: ~5 min for the largest log) ---

func BenchmarkExtractorConformanceLog(b *testing.B) {
	rep, err := conformance.RunSuite(ue.ProfileConformant, true)
	if err != nil {
		b.Fatal(err)
	}
	sig := spec.UESignatures(spec.StyleClosed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.Model(rep.Log, sig, extract.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractorLargeLog(b *testing.B) {
	sig := spec.UESignatures(spec.StyleClosed)
	for _, blocks := range []int{1_000, 10_000, 100_000} {
		log := extract.SyntheticLog(blocks)
		b.Run(fmt.Sprintf("blocks_%d", blocks), func(b *testing.B) {
			b.ReportMetric(float64(len(log)), "records")
			for i := 0; i < b.N; i++ {
				if _, err := extract.Model(log, sig, extract.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- CPV micro-benchmarks ---

func BenchmarkCPVDeduction(b *testing.B) {
	v := cpv.NewNASVerifier(true)
	for _, m := range spec.DownlinkMessages() {
		v.ObserveGenuine(m)
	}
	target := cpv.MessageTerm(spec.GUTIRealloCommand)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.Knowledge().Derivable(target) {
			b.Fatal("observed term not derivable")
		}
	}
}

// --- Ablations (DESIGN.md section 5) ---

// AblationLazyObservation compares the lazy CEGAR observation refinement
// against eager per-message observation bits: same verdicts, very
// different state spaces.
func BenchmarkAblationLazyObservation(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	eager, err := threat.Compose(threat.Config{
		Name:                 "IMP/eager",
		UE:                   m.FSM,
		MME:                  ltemodels.MME(),
		SuperviseGUTIRealloc: true,
		EagerObservationBits: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := props.ByID("S31") // replayed attach_request: exercises the observation machinery
	cfg := cegar.Config{PreCapture: true}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := cegar.Verify(m.Composed, p.MC(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.StatesExplored), "states")
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := cegar.Verify(eager, p.MC(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.StatesExplored), "states")
		}
	})
}

// AblationPredicateFilter compares extraction with the condition-variable
// vocabulary filter against admitting every local variable: the filter is
// what keeps the model semantic instead of drowning in scratch locals.
func BenchmarkAblationPredicateFilter(b *testing.B) {
	log := extract.SyntheticLog(10_000)
	sig := spec.UESignatures(spec.StyleClosed)
	b.Run("vocabulary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsm, err := extract.Model(log, sig, extract.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_, c, _, tr := fsm.Size()
			b.ReportMetric(float64(c), "conditions")
			b.ReportMetric(float64(tr), "transitions")
		}
	})
	b.Run("all_locals", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsm, err := extract.Model(log, sig, extract.Options{
				PredicateFilter: func(string) bool { return true },
			})
			if err != nil {
				b.Fatal(err)
			}
			_, c, _, tr := fsm.Size()
			b.ReportMetric(float64(c), "conditions")
			b.ReportMetric(float64(tr), "transitions")
		}
	})
}

// AblationCompiledRules compares the model checker's guard bitsets and
// compiled-rule closures against interpreted guard evaluation.
func BenchmarkAblationCompiledRules(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	init := sys.InitialState()
	b.Run("compiled", func(b *testing.B) {
		rs, err := sys.CompileRules()
		if err != nil {
			b.Fatal(err)
		}
		rules := rs.Rules
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for ri := range rules {
				if rules[ri].Enabled(init) {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no enabled rules")
			}
		}
	})
	b.Run("bitset", func(b *testing.B) {
		rs, err := sys.CompileRules()
		if err != nil {
			b.Fatal(err)
		}
		mask := make([]uint64, rs.Words())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs.EnabledSet(init, mask)
			n := 0
			for _, w := range mask {
				n += bits.OnesCount64(w)
			}
			if n == 0 {
				b.Fatal("no enabled rules")
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(sys.Successors(init)) == 0 {
				b.Fatal("no successors")
			}
		}
	})
}

// AblationWhiteBoxVsBlackBox compares Algorithm 1's white-box extraction
// against the active-automata-learning baseline the paper argues against:
// same implementation, orders of magnitude apart in queries, and the
// black-box machine has opaque states without predicates.
func BenchmarkAblationWhiteBoxVsBlackBox(b *testing.B) {
	b.Run("whitebox_extraction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := conformance.RunSuite(ue.ProfileConformant, true)
			if err != nil {
				b.Fatal(err)
			}
			fsm, err := extract.Model(rep.Log, spec.UESignatures(spec.StyleClosed), extract.Options{})
			if err != nil {
				b.Fatal(err)
			}
			s, _, _, tr := fsm.Size()
			b.ReportMetric(float64(len(conformance.Cases())), "queries")
			b.ReportMetric(float64(s), "states")
			b.ReportMetric(float64(tr), "transitions")
		}
	})
	b.Run("blackbox_lstar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, stats, err := learner.Learn(
				learner.NewUESUL(ue.ProfileConformant),
				learner.DefaultAlphabet(),
				learner.Options{TestDepth: 2, MaxRounds: 24},
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.MembershipQueries), "queries")
			b.ReportMetric(float64(m.NumStates), "states")
			b.ReportMetric(float64(stats.InputSymbolsSent), "inputs")
		}
	})
}

// --- End-to-end pipeline benchmark ---

func BenchmarkPipelineExtractAndCompose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.BuildModel(ue.ProfileSRS); err != nil {
			b.Fatal(err)
		}
	}
}

// Exercise an assortment of mc property kinds on the composed system to
// keep the checker's three algorithms covered by benchmarks.
func BenchmarkModelChecker(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	b.Run("invariant_full_exploration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := mc.Check(sys, mc.Invariant{PropName: "explore", Holds: ts.True{}}, mc.Options{})
			if !res.Verified {
				b.Fatal("exploration failed")
			}
		}
	})
	b.Run("never_fires_violated", func(b *testing.B) {
		p := mc.NeverFires{PropName: "nf", Match: func(n string) bool {
			return n == "mme:guti_realloc:start"
		}}
		for i := 0; i < b.N; i++ {
			res := mc.Check(sys, p, mc.Options{})
			if res.Verified {
				b.Fatal("expected violation")
			}
		}
	})
}

// catalogueMCProperties collects the model-checked subset of the
// 62-property catalogue — the workload of the BENCH_mc.json series.
func catalogueMCProperties(b *testing.B) []mc.Property {
	b.Helper()
	var out []mc.Property
	for _, p := range props.Catalogue() {
		if p.Kind == props.KindMC {
			out = append(out, p.MC())
		}
	}
	if len(out) == 0 {
		b.Fatal("no model-checked catalogue properties")
	}
	return out
}

// BenchmarkCheckAllSequential is the pre-shared-frontier baseline: one
// fresh exploration per property, strictly in order.
func BenchmarkCheckAllSequential(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	list := catalogueMCProperties(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := mc.CheckAllSequential(sys, list, mc.Options{})
		if len(results) != len(list) {
			b.Fatalf("completed %d of %d", len(results), len(list))
		}
	}
}

// BenchmarkCheckAllParallel is the shared-frontier engine on the same
// workload. A fresh engine per iteration means every iteration pays for
// exactly one graph build plus the per-property passes — the honest
// comparison against the baseline's N explorations.
func BenchmarkCheckAllParallel(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	list := catalogueMCProperties(b)
	b.ResetTimer()
	var hits, misses, evictions int
	for i := 0; i < b.N; i++ {
		engine := mc.NewEngine()
		// NoVacuityPrune keeps this the engine-vs-sequential comparison
		// it has always been; the pruner has its own BENCH_sa series.
		results, err := engine.CheckAllContext(context.Background(), sys, list, mc.Options{NoVacuityPrune: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(list) {
			b.Fatalf("completed %d of %d", len(results), len(list))
		}
		h, m, e := engine.CacheCounters()
		hits, misses, evictions = hits+h, misses+m, evictions+e
	}
	b.ReportMetric(float64(hits)/float64(b.N), "cache-hits/op")
	b.ReportMetric(float64(misses)/float64(b.N), "cache-misses/op")
	b.ReportMetric(float64(evictions)/float64(b.N), "cache-evictions/op")
}

// BenchmarkCheckAllParallelWithSubscriber is BenchmarkCheckAllParallel
// with the live observability plane attached: an event bus on the
// context (so per-level exploration progress publishes) and one
// subscriber consuming at full speed, the SSE-streaming steady state.
// ci.sh gates the overhead versus the bare run at 5% in BENCH_obs.json.
func BenchmarkCheckAllParallelWithSubscriber(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	list := catalogueMCProperties(b)

	bus := obs.NewBus(obs.DefaultBusCapacity, nil)
	o := obs.New(obs.WithBus(bus))
	ctx := obs.NewContext(context.Background(), o)
	ctx = obs.WithScope(ctx, "j-bench")
	subCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := bus.Subscribe(bus.Seq() + 1)
	defer sub.Close()
	consumed := make(chan int64, 1)
	go func() {
		var n int64
		for {
			if _, err := sub.Next(subCtx); err != nil {
				consumed <- n
				return
			}
			n++
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := mc.NewEngine()
		results, err := engine.CheckAllContext(ctx, sys, list, mc.Options{NoVacuityPrune: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(list) {
			b.Fatalf("completed %d of %d", len(results), len(list))
		}
	}
	b.StopTimer()
	cancel()
	n := <-consumed
	if b.N > 0 && n == 0 && bus.Seq() > 0 {
		b.Fatal("subscriber consumed no events despite publishes")
	}
	b.ReportMetric(float64(bus.Seq())/float64(b.N), "events/op")
}

// --- BENCH_sa.json series: static vacuity pre-pruning ---

// benchVacuityCatalogue runs the full MC catalogue over the plain
// LTEInspector composition (no GUTI-realloc supervision — the same
// system the mc differential tests pin) on a warm engine: the graph
// cache is primed before the timer, so both variants measure the
// steady-state per-catalogue cost and the delta is exactly what the
// static pre-pass saves in property passes. This is the workload where
// vacuity bites hardest — the hand-built vocabulary leaves most of the
// model-checked catalogue with statically-unfireable triggers.
func benchVacuityCatalogue(b *testing.B, opts mc.Options) {
	c, err := threat.Compose(threat.Config{
		Name: "IMP/LTEInspector-plain",
		UE:   ltemodels.LTEInspectorUE(),
		MME:  ltemodels.MME(),
	})
	if err != nil {
		b.Fatalf("Compose: %v", err)
	}
	sys := c.System
	list := catalogueMCProperties(b)
	engine := mc.NewEngine()
	if _, err := engine.CheckAllContext(context.Background(), sys, list, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	pruned := 0
	for i := 0; i < b.N; i++ {
		results, err := engine.CheckAllContext(context.Background(), sys, list, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(list) {
			b.Fatalf("completed %d of %d", len(results), len(list))
		}
		pruned = 0
		for _, r := range results {
			if r.Vacuous {
				pruned++
			}
		}
	}
	b.ReportMetric(float64(pruned), "pruned/op")
}

// BenchmarkCheckAllVacuityUnpruned is the escape-hatch run: every
// catalogue property is explored. Workers is pinned to 1 in both
// variants so the measured wall time equals the total property-pass
// work — with a parallel pool the pruner's savings hide in scheduler
// slack and the comparison measures load balancing instead.
func BenchmarkCheckAllVacuityUnpruned(b *testing.B) {
	benchVacuityCatalogue(b, mc.Options{Workers: 1, NoVacuityPrune: true})
}

// BenchmarkCheckAllVacuityPruned is the default pipeline: the abstract
// reachability pre-pass discharges statically-vacuous properties before
// the checker spends passes on them. ci.sh gates the speedup versus the
// unpruned run at 1.15x in BENCH_sa.json.
func BenchmarkCheckAllVacuityPruned(b *testing.B) {
	benchVacuityCatalogue(b, mc.Options{Workers: 1})
}

// BenchmarkCEGARVerifyAll times the full MC ⇄ CPV loop over the same
// property set through the catalogue pool, where unrefined properties
// share one cached exploration via lazy clone-on-refine. The vacuity
// pre-pass is off so every property runs the loop.
func BenchmarkCEGARVerifyAll(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	var list []props.Property
	for _, p := range props.Catalogue() {
		if p.Kind == props.KindMC {
			list = append(list, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := report.NewEvaluator(m)
		ev.SetMC(mc.Options{NoVacuityPrune: true})
		verdicts, err := ev.EvaluateAllContext(context.Background(), list)
		if err != nil {
			b.Fatal(err)
		}
		if len(verdicts) != len(list) {
			b.Fatalf("completed %d of %d", len(verdicts), len(list))
		}
	}
}

// --- BENCH_dist.json series: arena exploration ---

// benchExploreOnce runs one full state-space exploration (a trivially
// true invariant, so nothing short-circuits) under the given options
// and returns states explored plus peak resident state bytes from the
// run's private metrics registry.
func benchExploreOnce(b *testing.B, sys *ts.System, opts mc.Options) (states, resident int64) {
	b.Helper()
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	res, err := mc.NewEngine().CheckContext(ctx, sys,
		mc.Invariant{PropName: "explore", Holds: ts.True{}}, opts)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Verified {
		b.Fatal("exploration failed")
	}
	return int64(res.StatesExplored), o.Metrics().Gauge("mc.peak_resident_state_bytes").Value()
}

// BenchmarkExplore times a full in-memory exploration of the composed
// model, reporting throughput and the arena's resident footprint per
// state. Compare bytes/state against BenchmarkStateBytesMapBaseline for
// the storage-layer win.
func BenchmarkExplore(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	var states, resident int64
	for i := 0; i < b.N; i++ {
		states, resident = benchExploreOnce(b, sys, mc.Options{Workers: 4})
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
	b.ReportMetric(float64(resident)/float64(states), "bytes/state")
}

// baselineSink keeps the baseline representation live across the
// second MemStats read so the allocator cannot reclaim it mid-measure.
var baselineSink struct {
	stripes [64]map[string]int32
	states  []ts.State
}

// BenchmarkStateBytesMapBaseline measures the storage layer this PR
// replaced — a 64-stripe string-keyed visited map plus a []ts.State
// clone per interned state — by BFS-exploring the same composed model
// and reading the live-heap delta per state. The arena representation
// (BenchmarkExplore's bytes/state) stores each state once, in
// place, with a 12-byte open-addressing slot instead of a map entry
// plus a second string copy of the state bytes.
func BenchmarkStateBytesMapBaseline(b *testing.B) {
	m := benchModel(b, ue.ProfileConformant)
	sys := m.Composed.System
	var perState float64
	for i := 0; i < b.N; i++ {
		baselineSink.stripes = [64]map[string]int32{}
		baselineSink.states = nil
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)

		stripes := [64]map[string]int32{}
		for k := range stripes {
			stripes[k] = make(map[string]int32)
		}
		stripe := func(s ts.State) uint64 {
			h := uint64(14695981039346656037)
			for _, v := range s {
				h = (h ^ uint64(v)) * 1099511628211
			}
			return h & 63
		}
		var states []ts.State
		intern := func(s ts.State) (int32, bool) {
			mp := stripes[stripe(s)]
			if id, ok := mp[string(s)]; ok {
				return id, false
			}
			id := int32(len(states))
			states = append(states, s.Clone())
			mp[s.Key()] = id
			return id, true
		}
		intern(sys.InitialState())
		for head := 0; head < len(states); head++ {
			for _, succ := range sys.Successors(states[head]) {
				intern(succ.State)
			}
		}

		baselineSink.stripes = stripes
		baselineSink.states = states
		runtime.GC()
		runtime.ReadMemStats(&m1)
		perState = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(len(states))
	}
	b.ReportMetric(perState, "bytes/state")
}

// BenchmarkConformanceFaults measures the hardened conformance path
// under the seeded drop+corrupt adversary mix — the BENCH_faults.json
// baseline series. The run must complete every case (faults surface as
// per-case failures, never as suite aborts), so the benchmark also
// guards the no-crash contract while timing it.
func BenchmarkConformanceFaults(b *testing.B) {
	cfg := channel.FaultConfig{Seed: 42, Drop: 0.10, Corrupt: 0.10}
	suiteLen := len(conformance.SuiteFor(ue.ProfileSRS, true))
	for i := 0; i < b.N; i++ {
		rep, err := conformance.RunSuiteContext(context.Background(), ue.ProfileSRS, true,
			conformance.RunOptions{Adversary: cfg.AdversaryFactory()})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != suiteLen {
			b.Fatalf("suite ran %d of %d cases", len(rep.Results), suiteLen)
		}
	}
}

// BenchmarkConformanceBenign is the control series: the same suite on a
// clean link, isolating the fault decorators' overhead.
func BenchmarkConformanceBenign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := conformance.RunSuiteContext(context.Background(), ue.ProfileSRS, true, conformance.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Passed() != len(rep.Results) {
			b.Fatalf("benign suite failed %d case(s)", len(rep.Results)-rep.Passed())
		}
	}
}
