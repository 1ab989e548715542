package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"prochecker/internal/channel"
	"prochecker/internal/conformance"
	"prochecker/internal/core/cegar"
	"prochecker/internal/core/extract"
	"prochecker/internal/core/props"
	"prochecker/internal/core/threat"
	"prochecker/internal/lint"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/spec"
	"prochecker/internal/ts"
	"prochecker/internal/ue"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Op     string  `json:"op"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	SelfMS float64 `json:"self_ms"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name, op string, parent int) int {
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now, End: now})
	return len(t.spans)
}

// end closes a span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return now - t.spans[id-1].Start
}

// finish returns the spans with their self times filled in: a span's
// duration minus the part of its interval its children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i, s := range spans {
		spans[i].SelfMS = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return spans
}

// covered measures the union of the intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, cur := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerOf names the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums the self time of every layer's spans.
func selfByLayer(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.SelfMS
	}
	return out
}

// layerStats accumulates per-call times and totals of traced work.
type layerStats struct {
	mu     sync.Mutex
	times  map[string][]float64
	counts map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{times: make(map[string][]float64), counts: make(map[string]float64)}
}

func (l *layerStats) sample(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.times[name] = append(l.times[name], v)
}

func (l *layerStats) add(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[name] += v
}

// built is one cell's analysis model, as the probes need it.
type built struct {
	profile  ue.Profile
	composed *threat.Composed
	vacuous  map[string]bool
}

// cell is one unit of analysis work: a profile analysed under a fault
// spec and seed, checking a property selection.
type cell struct {
	profile string
	faults  string
	seed    int64
	sel     selection
}

func (c cell) label() string {
	if c.faults == "" {
		return c.profile
	}
	return c.profile + "+" + c.faults
}

func profileOf(name string) (ue.Profile, error) {
	switch name {
	case conformant:
		return ue.ProfileConformant, nil
	case srsLTE:
		return ue.ProfileSRS, nil
	case oai:
		return ue.ProfileOAI, nil
	}
	return 0, fmt.Errorf("unknown profile %q", name)
}

// tracedCell runs one cell through the same layer calls as
// prochecker.AnalyzeContext followed by the catalogue pool, with a span
// around every call into a layer: conformance, extract, threat, lint,
// dataflow (vacuity pre-pass), then the pool (report) whose workers call
// cegar (which drives mc and cpv) or props.
func tracedCell(ctx context.Context, tr *tracer, ls *layerStats, op string, c cell) (*built, []verdict, error) {
	profile, err := profileOf(c.profile)
	if err != nil {
		return nil, nil, err
	}
	root := tr.start("op", op, 0)
	defer tr.end(root)

	runOpts := conformance.RunOptions{}
	if c.faults != "" {
		fc, err := channel.ParseFaultSpec(c.faults, c.seed)
		if err != nil {
			return nil, nil, err
		}
		if fc.Enabled() {
			runOpts.Adversary = fc.AdversaryFactory()
		}
	}
	sp := tr.start("conformance.suite", op, root)
	suite, err := conformance.RunSuiteContext(ctx, profile, true, runOpts)
	ls.sample("conformance.suite_ms", tr.end(sp))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: conformance: %w", op, err)
	}
	ls.add("conformance.cases", float64(len(suite.Results)))
	ls.add("conformance.case_failures", float64(len(suite.Results)-suite.Passed()))

	sp = tr.start("extract.model", op, root)
	fsm, _, err := extract.ModelWithStats(suite.Log, spec.UESignatures(ue.StyleFor(profile)),
		extract.Options{Name: "UE/" + profile.String()})
	ls.sample("extract.model_ms", tr.end(sp))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: extract: %w", op, err)
	}
	_, _, _, transitions := fsm.Size()
	ls.add("extract.fsm_transitions", float64(transitions))

	sp = tr.start("threat.compose", op, root)
	composed, err := threat.Compose(threat.Config{
		Name: "IMP/" + profile.String(), UE: fsm, MME: ltemodels.MME(), SuperviseGUTIRealloc: true,
	})
	ls.sample("threat.compose_ms", tr.end(sp))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: threat: %w", op, err)
	}

	sp = tr.start("lint.run", op, root)
	rep := lint.Run(&lint.Target{FSM: fsm, Composed: composed})
	ls.sample("lint.run_ms", tr.end(sp))
	ls.add("lint.diagnostics", float64(len(rep.Diagnostics)))

	b := &built{profile: profile, composed: composed, vacuous: make(map[string]bool)}
	sys := composed.System
	sp = tr.start("dataflow.vacuity", op, root)
	reach := mc.StaticReach(sys)
	mcProps := 0
	for _, p := range props.Catalogue() {
		if p.Kind != props.KindMC {
			continue
		}
		mcProps++
		if v, _ := mc.Vacuous(reach, sys, p.MC()); v {
			b.vacuous[p.ID] = true
		}
	}
	ls.sample("dataflow.vacuity_ms", tr.end(sp))
	ls.add("dataflow.pruned", float64(len(b.vacuous)))
	ls.add("dataflow.mc_properties", float64(mcProps))

	verdicts, err := tracedPool(ctx, tr, ls, op, root, b, c.sel.ids)
	return b, verdicts, err
}

// tracedPool evaluates the selection over a pool of GOMAXPROCS workers,
// as (*prochecker.Analysis).CheckAllContext does, in one report.pool
// span. It also records the mc.DefaultEngine cache-counter delta across
// the pool: explorations run and graph-cache hits.
func tracedPool(ctx context.Context, tr *tracer, ls *layerStats, op string, parent int, b *built, ids []string) ([]verdict, error) {
	list := make([]props.Property, 0, len(ids))
	for _, id := range ids {
		p, ok := props.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown property %q", id)
		}
		list = append(list, p)
	}
	workers := min(runtime.GOMAXPROCS(0), len(list))
	hits0, misses0, _ := mc.DefaultEngine.CacheCounters()
	sp := tr.start("report.pool", op, parent)
	verdicts := make([]verdict, len(list))
	errs := make([]error, len(list))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				verdicts[i], errs[i] = tracedProperty(ctx, tr, ls, op, sp, b, list[i])
			}
		}()
	}
	for i := range list {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := tr.end(sp)
	hits1, misses1, _ := mc.DefaultEngine.CacheCounters()
	ls.sample("report.pool_ms", wall)
	ls.add("report.pool_worker_ms", wall*float64(workers))
	ls.add("mc.explorations", float64(misses1-misses0))
	ls.add("mc.graph_cache_hits", float64(hits1-hits0))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return verdicts, nil
}

// tracedProperty evaluates one property as report.Evaluator does:
// vacuous model-checked properties hold without exploration, the others
// go through the MC-CPV CEGAR loop; equivalence and knowledge properties
// go to props.
func tracedProperty(ctx context.Context, tr *tracer, ls *layerStats, op string, parent int, b *built, p props.Property) (verdict, error) {
	v := verdict{ID: p.ID}
	switch p.Kind {
	case props.KindMC:
		if b.vacuous[p.ID] {
			v.Verified = true
			return v, nil
		}
		sp := tr.start("cegar.verify", op, parent)
		out, err := cegar.VerifyContext(ctx, b.composed, p.MC(), cegar.Config{PreCapture: true})
		d := tr.end(sp)
		if err != nil {
			return v, fmt.Errorf("%s: cegar %s: %w", op, p.ID, err)
		}
		ls.sample("cegar.verify_ms", d)
		ls.add("cegar.iterations", float64(out.Iterations))
		ls.add("cegar.refinements", float64(len(out.Refinements)))
		for _, r := range out.Refinements {
			switch r.Kind {
			case cegar.GuardReplayOnObservation:
				ls.add("cegar.refinements_guard_replay", 1)
			case cegar.PruneRule:
				ls.add("cegar.refinements_prune_rule", 1)
			}
		}
		if out.Attack != nil {
			ls.add("cegar.attacks", 1)
		}
		if !out.Unknown && (out.Verified || out.Attack != nil) {
			ls.add("cegar.settled", 1)
		}
		v.Attack, v.Verified = out.Attack != nil, out.Verified
	case props.KindEquivalence:
		sp := tr.start("props.equivalence", op, parent)
		res, err := props.EvaluateEquivalenceContext(ctx, *p.Equivalence, b.profile)
		d := tr.end(sp)
		if err != nil {
			return v, fmt.Errorf("%s: equivalence %s: %w", op, p.ID, err)
		}
		ls.sample("props.equivalence_ms", d)
		v.Attack, v.Verified = !res.Verified, res.Verified
	case props.KindKnowledge:
		sp := tr.start("props.knowledge", op, parent)
		res := props.EvaluateKnowledge(*p.Knowledge)
		ls.sample("props.knowledge_ms", tr.end(sp))
		v.Attack, v.Verified = !res.Verified, res.Verified
	default:
		return v, fmt.Errorf("%s: property %s has unknown kind %q", op, p.ID, p.Kind)
	}
	return v, nil
}

// mcProbe times the model checker on its own, on a fresh mc.Engine: one
// cold exploration of the cell's base composition (an always-true
// invariant, so the whole reachable graph is built), then one warm pass
// per non-vacuous model-checked property over that cached graph.
func mcProbe(ctx context.Context, tr *tracer, ls *layerStats, op string, b *built) error {
	eng := mc.NewEngine()
	sys := b.composed.System
	root := tr.start("op", op, 0)
	defer tr.end(root)
	sp := tr.start("mc.explore", op, root)
	res, err := eng.CheckContext(ctx, sys, mc.Invariant{PropName: "perfbench.base", Holds: ts.True{}}, mc.Options{})
	ls.sample("mc.explore_ms", tr.end(sp))
	if err != nil {
		return fmt.Errorf("%s: mc explore: %w", op, err)
	}
	ls.add("mc.explore_states", float64(res.StatesExplored))
	for _, p := range props.Catalogue() {
		if p.Kind != props.KindMC || b.vacuous[p.ID] {
			continue
		}
		sp := tr.start("mc.pass", op, root)
		_, err := eng.CheckContext(ctx, sys, p.MC(), mc.Options{})
		ls.sample("mc.pass_ms", tr.end(sp))
		if err != nil {
			return fmt.Errorf("%s: mc pass %s: %w", op, p.ID, err)
		}
	}
	return nil
}

// layerMetrics turns the accumulated measurements into the analysis
// layers' per-layer metrics: times are medians per call (with the
// maximum where named), counts are totals over the traced work.
func (l *layerStats) layerMetrics() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[string]float64)
	for name, xs := range l.times {
		m[name] = median(xs)
	}
	for name, v := range l.counts {
		m[name] = v
	}
	m["mc.pass_ms_max"] = maxOf(l.times["mc.pass_ms"])
	m["cegar.verify_ms_max"] = maxOf(l.times["cegar.verify_ms"])
	m["mc.states_per_s"] = ratio(l.counts["mc.explore_states"], m["mc.explore_ms"]/1000)
	m["mc.graph_cache_hit_ratio"] = ratio(l.counts["mc.graph_cache_hits"], l.counts["mc.graph_cache_hits"]+l.counts["mc.explorations"])
	m["dataflow.prune_ratio"] = ratio(l.counts["dataflow.pruned"], l.counts["dataflow.mc_properties"])
	m["cegar.useful_iteration_ratio"] = ratio(l.counts["cegar.settled"], l.counts["cegar.iterations"])
	m["cegar.pool_utilisation"] = ratio(sum(l.times["cegar.verify_ms"]), l.counts["report.pool_worker_ms"])
	return m
}
