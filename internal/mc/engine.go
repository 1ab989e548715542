// The shared-frontier engine: property checks discharged on a cached
// StateGraph. Invariant and NeverFires become single ordered passes over
// the interned graph; Response runs its lasso search on the pending-bit
// product lazily, expanding only the product nodes the search reads, in
// working memory the engine reuses from check to check (no array sized
// by the product). The cache holds one entry per system
// pointer, valid for the ts.System.Generation() it was built at, so a
// CEGAR refinement (which mutates the system) drops exactly the graph it
// invalidates. On a pointer miss the engine fingerprints the system's
// structure and aliases any live entry built for the same structure and
// budget, so clones that applied the same refinements share one
// exploration. On a fingerprint miss it compiles the system's rules once
// and derives the graph from the most recent cached graph the system
// refines (derive.go): a refinement prunes rules or appends observation
// variables, so its graph is a BFS over the base graph's rows. Only
// when no cached graph qualifies does it explore.
//
// A cached graph is built lazily, one BFS level at a time, only as deep
// as its checks need. Each completed level is published as an immutable
// view (graph.go), and the suspended explorer waits for the next caller
// that needs more. Invariant and NeverFires scan the published levels
// with a cursor and ask for another level only while the prefix holds
// no violation: ids are assigned in level order, so the first violation
// in a prefix is the first in the whole graph. A verified verdict and a
// truncation need the whole graph, and so does a Response check on an
// explored graph. A Response check on a derived graph that is still
// partial builds nothing (unless the derivation's bound exceeds the
// state budget): it walks the derivation, the complete base graph's
// rows mapped onto the target's states, which is the graph the build
// would produce, met in the order its ids would be assigned. A
// derivation starts from the most recent complete graph the system
// extends; only when none qualifies is a cached graph that passes the
// structural checks completed first. One caller extends a graph at a
// time; the others read the views already published.
package mc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// DefaultEngine backs the package-level Check, CheckContext and
// CheckSourced entry points. A process-wide cache is safe: entries are
// keyed by system pointer and generation, shared between systems of
// identical structure, bounded by engineCacheEntries, and concurrent
// builds of the same graph are collapsed into one.
var DefaultEngine = NewEngine()

// engineCacheEntries bounds the graph cache; the oldest entry is evicted
// beyond it. A CEGAR catalogue run keeps one graph per live refinement
// clone, which stays far below this.
const engineCacheEntries = 32

// GraphSource says where a check's reachability graph came from.
type GraphSource string

// Graph sources, as reported by CheckSourced and recorded on the
// cegar.iteration span's graph attribute.
const (
	// GraphBuilt: this check ran the exploration.
	GraphBuilt GraphSource = "built"
	// GraphHit: the graph was built (or is being built) for the same
	// system pointer and generation.
	GraphHit GraphSource = "hit"
	// GraphShared: the graph was built for another system with the same
	// structure and budget.
	GraphShared GraphSource = "shared"
)

// graphBuild is one graph, shared by every cache entry whose system
// has its structure, and grown on demand. Its builder, the caller whose
// miss started it, grows it as far as its own check needs; ready is
// closed when that check is done growing it, and every other caller
// then grows it further as its checks need.
type graphBuild struct {
	fp        [32]byte // ts.System.Fingerprint of the explored structure
	maxStates int
	seq       int // the engine's build count when it started
	ready     chan struct{}
	err       error // the builder's failure, set before ready closes

	// published is the latest view of the graph: every completed level.
	published atomic.Pointer[StateGraph]
	// mu is held by the one caller building the next level; ex is the
	// suspended build, which stops holding its visited set once complete,
	// and fail an extension error that left it unusable.
	mu   sync.Mutex
	ex   *levelExplorer
	fail error
}

// view returns the latest published view of the graph.
func (b *graphBuild) view() *StateGraph { return b.published.Load() }

// wait blocks until the builder is done or ctx is done, returning the
// builder's error or a cancellation.
func (b *graphBuild) wait(ctx context.Context) error {
	select {
	case <-b.ready:
		return b.err
	case <-ctx.Done():
		return fmt.Errorf("mc: waiting for shared exploration: %w", resilience.ErrCancelled)
	}
}

// graphReader is one check's hold on a cached graph: the published view
// it reads, and the levels it builds itself when it needs more. The
// builder's levels belong to the build's "mc.explore" span; any later
// caller's are one "mc.extend" span under that caller, which records
// the levels and states it added.
type graphReader struct {
	b        *graphBuild
	ctx      context.Context
	g        *StateGraph
	building bool

	span      *obs.Span
	levels    int
	states    int
	edgeBytes int64
}

// more advances r.g by at least one level: to a view another caller has
// published since r last looked, else by building the next level.
func (r *graphReader) more() error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if v := b.view(); v != r.g {
		r.g = v
		return nil
	}
	if b.fail != nil {
		return b.fail
	}
	ex := b.ex
	if !r.building {
		if r.span == nil {
			_, r.span = obs.Start(r.ctx, "mc.extend", obs.A("system", ex.g.System))
		}
		ex.bind(r.ctx)
	}
	states, edgeBytes := ex.g.NumStates(), ex.g.edgeBytes()
	if err := ex.advance(r.ctx); err != nil {
		if !resilience.Cancelled(err) {
			b.fail = err
		}
		return err
	}
	r.levels += ex.g.levels - r.g.levels
	r.states += ex.g.NumStates() - states
	r.edgeBytes += ex.g.edgeBytes() - edgeBytes
	r.g = ex.g.view()
	b.published.Store(r.g)
	return nil
}

// complete advances r.g until the graph is complete.
func (r *graphReader) complete() error {
	for !r.g.complete {
		if err := r.more(); err != nil {
			return err
		}
	}
	return nil
}

// end closes r's "mc.extend" span, if it built anything, and adds the
// states and edge bytes it built to the run's totals.
func (r *graphReader) end(err error) {
	if r.span == nil {
		return
	}
	reg := obs.FromContext(r.ctx).Metrics()
	reg.Counter("mc.states_explored").Add(int64(r.states))
	reg.Counter("mc.edge_bytes").Add(r.edgeBytes)
	r.span.SetAttr("levels", strconv.Itoa(r.levels))
	r.span.SetAttr("states", strconv.Itoa(r.states))
	r.span.SetAttr("complete", strconv.FormatBool(r.g.complete))
	r.span.EndErr(err)
}

// release ends r's part in growing the graph, for a check that reads
// what it has and builds no more: its "mc.extend" span ends, and so
// does the builder phase of a build r started, which releases the
// callers waiting on it. A check that goes on reading after release
// reads only what is immutable: the published view it holds, and a
// derivation's complete base.
func (r *graphReader) release(e *Engine) {
	r.end(nil)
	r.span = nil
	if r.building {
		e.endBuild(r.b, nil)
		r.building = false
	}
}

// graphEntry maps one system pointer, at one generation, to a build.
type graphEntry struct {
	gen   uint64
	build *graphBuild
}

// Engine checks properties against cached shared-exploration graphs.
type Engine struct {
	mu        sync.Mutex
	cache     map[*ts.System]*graphEntry
	order     []*ts.System // insertion order for eviction
	hits      int
	builds    int
	evictions int
	waiting   int // callers blocked on a build; tests synchronise on it
	// scratch is the free list of response-check working memory.
	scratch []*responseScratch
}

// NewEngine returns an engine with an empty graph cache. Most callers
// should use the package-level functions (and thus DefaultEngine);
// benchmarks build fresh engines to time cold explorations.
func NewEngine() *Engine {
	return &Engine{cache: make(map[*ts.System]*graphEntry)}
}

// CacheCounters reports the cache-effectiveness triple: hits (a check
// served by an already-built or in-flight graph, its own or a
// structurally identical system's, counted once that graph is ready),
// misses (explorations actually run) and evictions of the bounded LRU
// order — the numbers the BENCH_mc series and the obs registry record.
func (e *Engine) CacheCounters() (hits, misses, evictions int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.builds, e.evictions
}

// graphFor returns the build of the graph for the system's current
// generation: the system's own cached build, else a live build of a
// structurally identical system, else a new exploration (started once,
// even under concurrent callers). The fingerprint is computed only on a
// pointer miss. A GraphBuilt build is in its builder phase: the caller
// grows it as its check needs, then hands it to endBuild.
func (e *Engine) graphFor(ctx context.Context, sys *ts.System, opts Options) (*graphBuild, GraphSource, error) {
	gen := sys.Generation()
	maxStates := opts.maxStates()
	reg := obs.FromContext(ctx).Metrics()
	var fp *[32]byte
	for {
		e.mu.Lock()
		b, src := e.lookupLocked(sys, gen, maxStates, fp, reg)
		if b == nil && fp == nil {
			// Fingerprint outside the lock, then look again: another
			// caller may have registered this structure meanwhile.
			e.mu.Unlock()
			f := sys.Fingerprint()
			fp = &f
			continue
		}
		if b != nil {
			e.waiting++
			e.mu.Unlock()
			err := b.wait(ctx)
			e.mu.Lock()
			e.waiting--
			if err == nil {
				e.hits++
			}
			e.mu.Unlock()
			switch {
			case err == nil:
				reg.Counter("mc.graph_cache_hits").Inc()
				if src == GraphShared {
					reg.Counter("mc.graph_cache_shared").Inc()
				}
				return b, src, nil
			case ctx.Err() == nil:
				// The builder failed, possibly cancelled by its own
				// caller; the failed build is already out of the cache,
				// so this caller's live context rebuilds.
				continue
			}
			return nil, src, err
		}
		b = &graphBuild{fp: *fp, maxStates: maxStates, seq: e.builds, ready: make(chan struct{})}
		bases := e.basesLocked() // before sys's entry, maybe a base, is replaced
		e.storeLocked(sys, &graphEntry{gen: gen, build: b}, reg)
		e.builds++
		e.mu.Unlock()
		reg.Counter("mc.graph_cache_misses").Inc()

		ex, err := deriveOrBuild(ctx, sys, opts, bases)
		if err != nil {
			e.endBuild(b, err)
			return nil, GraphBuilt, err
		}
		b.ex = ex
		ex.span.SetAttr("build", strconv.Itoa(b.seq))
		b.published.Store(ex.g.view())
		return b, GraphBuilt, nil
	}
}

// endBuild ends b's builder phase: its "mc.explore" span records the
// graph as far as the builder's check grew it, and the callers waiting
// on b go on to read and grow it. A failed builder's build is dropped
// instead, so that a cancelled or failed build does not answer later
// calls that arrive with a live context.
func (e *Engine) endBuild(b *graphBuild, err error) {
	if err != nil {
		b.err = err
		e.mu.Lock()
		e.dropLocked(b)
		e.mu.Unlock()
		if b.ex != nil {
			b.ex.endExplore(nil, err)
		}
	} else {
		b.ex.endExplore(b.view(), nil)
	}
	close(b.ready)
}

// basesLocked lists the builds a new build may derive from: every
// build still in the cache whose builder is done and succeeded, most
// recent first.
func (e *Engine) basesLocked() []*graphBuild {
	var builds []*graphBuild
	for _, ent := range e.cache {
		b := ent.build
		select {
		case <-b.ready:
			if b.err == nil && !slices.Contains(builds, b) {
				builds = append(builds, b)
			}
		default:
		}
	}
	slices.SortFunc(builds, func(x, y *graphBuild) int { return y.seq - x.seq })
	return builds
}

// deriveOrBuild compiles sys's rules once and starts deriving its graph
// from the most recent complete base it extends (derive.go). Only when
// no complete base qualifies does it complete one that passes the
// structural check, under an "mc.extend" span of this caller, so a
// derivation is always sized from a finished base; with no base at all
// it starts exploring. A derived graph's ids depend on the target
// alone, so the base chosen changes nothing but the work.
func deriveOrBuild(ctx context.Context, sys *ts.System, opts Options, bases []*graphBuild) (*levelExplorer, error) {
	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	vars, init := sys.Vars(), sys.InitialState()
	for _, base := range bases {
		g := base.view()
		if !g.complete {
			continue
		}
		if kept, ok := extendsBase(g, rules, vars, init); ok {
			if d, ok := planFrom(g, kept, rules, vars, init); ok {
				return startDerive(ctx, sys, rules, d, opts)
			}
		}
	}
	for _, base := range bases {
		r := &graphReader{b: base, ctx: ctx, g: base.view()}
		kept, ok := extendsBase(r.g, rules, vars, init)
		if !ok {
			continue
		}
		err := r.complete()
		r.end(err)
		if err != nil {
			return nil, err
		}
		if d, ok := planFrom(r.g, kept, rules, vars, init); ok {
			return startDerive(ctx, sys, rules, d, opts)
		}
	}
	return startBuild(ctx, sys, rules, opts)
}

// lookupLocked finds a build for sys at gen under the budget: its own
// entry, or — when the fingerprint is known — any live entry of the same
// structure, which sys then aliases. Only the per-pointer entry is ever
// replaced, so a system moving to a new generation releases its old
// graph unless another live entry still maps to it.
func (e *Engine) lookupLocked(sys *ts.System, gen uint64, maxStates int, fp *[32]byte, reg *obs.Registry) (*graphBuild, GraphSource) {
	if ent := e.cache[sys]; ent != nil && ent.gen == gen && ent.build.maxStates == maxStates {
		return ent.build, GraphHit
	}
	if fp == nil {
		return nil, ""
	}
	for _, ent := range e.cache {
		if ent.build.maxStates == maxStates && ent.build.fp == *fp {
			e.storeLocked(sys, &graphEntry{gen: gen, build: ent.build}, reg)
			return ent.build, GraphShared
		}
	}
	return nil, ""
}

// storeLocked sets sys's entry, evicting the oldest system beyond
// engineCacheEntries.
func (e *Engine) storeLocked(sys *ts.System, ent *graphEntry, reg *obs.Registry) {
	if _, replacing := e.cache[sys]; !replacing {
		e.order = append(e.order, sys)
		if len(e.order) > engineCacheEntries {
			delete(e.cache, e.order[0])
			e.order = e.order[1:]
			e.evictions++
			reg.Counter("mc.graph_cache_evictions").Inc()
		}
	}
	e.cache[sys] = ent
}

// dropLocked removes every entry that maps to the failed build b.
func (e *Engine) dropLocked(b *graphBuild) {
	kept := e.order[:0]
	for _, s := range e.order {
		if e.cache[s].build == b {
			delete(e.cache, s)
			continue
		}
		kept = append(kept, s)
	}
	e.order = kept
}

// CheckContext verifies one property on the shared graph. Exploration
// that hits Options.MaxStates returns the truncated Result alongside an
// error wrapping resilience.ErrBudgetExhausted; cancellation returns an
// error wrapping resilience.ErrCancelled.
func (e *Engine) CheckContext(ctx context.Context, sys *ts.System, prop Property, opts Options) (Result, error) {
	res, _, err := e.CheckSourced(ctx, sys, prop, opts)
	return res, err
}

// CheckSourced is CheckContext that also reports where the graph came
// from (empty when no graph was obtained). Conditions and counterexample
// traces are always taken from sys, the caller's system: a shared graph
// supplies state ids and edges only, never another system's rule tags.
func (e *Engine) CheckSourced(ctx context.Context, sys *ts.System, prop Property, opts Options) (Result, GraphSource, error) {
	res := Result{Property: prop.Name(), Kind: prop.kind()}
	reg := obs.FromContext(ctx).Metrics()
	if reg != nil {
		start := time.Now()
		defer func() {
			reg.Histogram("mc.check_ms", nil).Observe(obs.DurMS(time.Since(start)))
			reg.Counter("mc.checks").Inc()
		}()
	}
	b, src, err := e.graphFor(ctx, sys, opts)
	if err != nil {
		if resilience.Cancelled(err) {
			return res, src, err
		}
		// Rule compilation failed: same unverified result the sequential
		// checker reports, with the cause attached instead of swallowed.
		return res, src, fmt.Errorf("mc: checking %s: %w", prop.Name(), err)
	}
	r := &graphReader{b: b, ctx: ctx, g: b.view(), building: src == GraphBuilt}
	if r.building {
		// A panicking check still ends the builder phase, so that no
		// waiter blocks on it forever.
		defer func() {
			if p := recover(); p != nil {
				if r.building {
					e.endBuild(b, fmt.Errorf("mc: checking %s: panic: %v", prop.Name(), p))
				}
				panic(p)
			}
		}()
	}
	var gerr error
	switch p := prop.(type) {
	case Invariant:
		res, gerr = r.checkInvariant(sys, p)
	case NeverFires:
		res, gerr = r.checkNeverFires(sys, p)
	case Response:
		res, gerr = r.checkResponse(e, sys, p)
	}
	r.end(gerr)
	if r.building {
		e.endBuild(b, gerr)
	}
	switch {
	case gerr != nil && resilience.Cancelled(gerr):
		return res, src, gerr
	case gerr != nil:
		return res, src, fmt.Errorf("mc: checking %s: %w", prop.Name(), gerr)
	case res.Truncated:
		return res, src, fmt.Errorf("mc: checking %s: exploration truncated at %d states (budget %d): %w",
			prop.Name(), res.StatesExplored, opts.maxStates(), resilience.ErrBudgetExhausted)
	}
	return res, src, nil
}

// checkInvariant discharges AG p in ordered passes over the published
// levels, asking for one more level only while they hold no violation:
// the first state (in BFS intern order) violating the predicate is
// exactly the state the sequential explorer would have flagged, so the
// parent tree yields a byte-identical shortest counterexample.
func (r *graphReader) checkInvariant(sys *ts.System, p Invariant) (Result, error) {
	res := Result{Property: p.PropName, Kind: "invariant"}
	holds, err := sys.CompileCond(p.Holds)
	if err != nil {
		return res, nil
	}
	violation := int32(-1)
	for from := 0; ; {
		r.g.forEachState(from, func(id int32, s ts.State) bool {
			if !holds(s) {
				violation = id
				return false
			}
			return true
		})
		if violation >= 0 || r.g.complete {
			break
		}
		from = r.g.NumStates()
		if err := r.more(); err != nil {
			return res, err
		}
	}
	g := r.g
	switch {
	case violation == 0:
		res.Counterexample = buildTrace(sys, nil, -1)
		return res, nil
	case violation > 0:
		res.StatesExplored = int(violation) + 1
		res.Counterexample = buildTrace(sys, g.pathTo(violation), -1)
		return res, nil
	}
	res.StatesExplored = g.NumStates()
	if g.Truncated {
		res.Truncated = true
		return res, nil
	}
	res.Verified = true
	return res, nil
}

// checkNeverFires scans states in BFS order and their edges in rule
// order — the sequential dequeue order — so the first matching firing
// and its counterexample are identical to the per-property exploration.
// It scans the rows published so far and asks for one more level only
// while none fires a matching rule; with no matching rule at all, the
// verdict needs the whole graph.
func (r *graphReader) checkNeverFires(sys *ts.System, p NeverFires) (Result, error) {
	res := Result{Property: p.PropName, Kind: "never-fires"}
	// Precompile the match verdict per rule once; the pattern is a pure
	// function of the rule name, so no name is re-matched per state.
	rules := r.g.Rules
	matched := make([]bool, len(rules))
	any := false
	for i := range rules {
		matched[i] = p.Match(rules[i].Name)
		any = any || matched[i]
	}
	for id := 0; any; {
		g := r.g
		for ; id < g.expanded(); id++ {
			for _, ed := range g.row(int32(id)) {
				if !matched[ed.rule] {
					continue
				}
				res.StatesExplored = g.statesWhenProcessing(int32(id), ed.rule)
				path := append(g.pathTo(int32(id)), rules[ed.rule].Name)
				res.Counterexample = buildTrace(sys, path, -1)
				return res, nil
			}
		}
		if g.complete {
			break
		}
		if err := r.more(); err != nil {
			return res, err
		}
	}
	if err := r.complete(); err != nil {
		return res, err
	}
	res.StatesExplored = r.g.NumStates()
	if r.g.Truncated {
		res.Truncated = true
		return res, nil
	}
	res.Verified = true
	return res, nil
}

// responseScratch is one response check's working memory. The engine
// keeps a free list of them (Engine.takeScratch), so a check reuses what
// earlier checks grew: nothing in it is allocated or filled per product
// node. state holds one byte per slot of the derivation searched; the
// rest grows with what the search discovers.
type responseScratch struct {
	trigger, goal []bool // per target rule index
	// moves is the derivation's rule table, resolved for the property.
	moves []int32
	// state holds the st* bits of each slot.
	state []uint8
	// target is a target state assembled for the GoalState condition.
	target ts.State
	// order holds the product nodes the BFS has discovered, in BFS order;
	// from[i] is the index in order of order[i]'s BFS parent, -1 for the
	// start.
	order, from []int32
	stack       []responseFrame
}

// A move packs where one base rule leads from one extra rank, for the
// property under check, into the one word the search reads per edge: -1
// when the target has no such edge, else the extra rank it leads to,
// shifted past the flags saying whether the target rule is the
// property's trigger or goal.
const (
	moveTrigger = 1 << 0
	moveGoal    = 1 << 1
	moveBits    = 2
)

// responseFrame is one pending node on the lasso search's DFS stack and
// the index of the next edge of its base row to follow.
type responseFrame struct {
	node int32
	next int32
}

// The bits of responseScratch.state. Product node 2*slot + pending has
// the seen bit of its pending value, stSeen<<pending. Only pending nodes
// are ever on the DFS stack, so their colour needs no idle twin.
const (
	stSeen    = 1 << 0 // (s, idle) was discovered by the BFS; stSeen<<1: (s, pending)
	stGoal    = 1 << 2 // s satisfies the property's GoalState
	stOnStack = 1 << 3 // (s, pending) is on the DFS stack
	stDone    = 1 << 4 // (s, pending)'s DFS is finished
)

// takeScratch takes response-check working memory off the engine's free
// list, or makes a new one when every one is in use.
func (e *Engine) takeScratch() *responseScratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.scratch)
	if n == 0 {
		return new(responseScratch)
	}
	sc := e.scratch[n-1]
	e.scratch = e.scratch[:n-1]
	return sc
}

// putScratch returns sc to the engine's free list.
func (e *Engine) putScratch(sc *responseScratch) {
	e.mu.Lock()
	e.scratch = append(e.scratch, sc)
	e.mu.Unlock()
}

// checkResponse answers p on r's graph. A derived graph that is still
// partial is searched over its derivation, the complete base graph's
// rows mapped onto slots: the graph it would build, met in the order
// its ids would be assigned, so it is not built. A derivation whose
// bound exceeds the budget could hold more states than the budget,
// which only the build tells, so that graph is completed like any
// other, and a complete graph is searched as its own derivation. Once
// the graph grows no further, r lets go of it, so the build's span ends
// before the search's own "mc.response" span starts.
func (r *graphReader) checkResponse(e *Engine, sys *ts.System, p Response) (Result, error) {
	reg := obs.FromContext(r.ctx).Metrics()
	d := r.g.derive
	if d != nil && int64(d.extra)*int64(d.base.NumStates()) > int64(r.g.MaxStates) {
		d = nil
	}
	if d != nil {
		reg.Counter("mc.responses_derived").Inc()
	} else {
		if err := r.complete(); err != nil {
			return Result{Property: p.PropName, Kind: "response"}, err
		}
		d = r.g.self()
	}
	r.release(e)
	_, span := obs.Start(r.ctx, "mc.response", obs.A("property", p.PropName))
	start := time.Now()
	sc := e.takeScratch()
	s := &responseSearch{d: d, rules: r.g.Rules, max: r.g.MaxStates, responseScratch: sc}
	res := s.check(sys, p)
	e.putScratch(sc) // s is another check's from here on
	reg.Histogram("mc.response_ms", nil).Observe(obs.DurMS(time.Since(start)))
	// StatesExplored is the nodes the search discovered, which both
	// counters sum.
	nodes := res.StatesExplored
	reg.Counter("mc.response_nodes").Add(int64(nodes))
	reg.Counter("mc.response_search_nodes").Add(int64(nodes))
	if span != nil { // a run without an observer formats no attributes
		span.SetAttr("build", strconv.Itoa(r.b.seq))
		span.SetAttr("nodes", strconv.Itoa(nodes))
		span.SetAttr("truncated", strconv.FormatBool(res.Truncated))
	}
	span.End()
	return res, nil
}

// responseSearch is the pending-bit product of a derivation with one
// response property, searched lazily. Product node = 2*slot + pending;
// successors are computed from the base graph's CSR rows on demand,
// through the derivation's rule table resolved for the property
// (moves), instead of being stored. A complete graph is searched as its
// own derivation: slot = state id.
type responseSearch struct {
	d     *derivation
	rules []ts.CompiledRule // the target's rules, for trace names
	max   int               // the state budget, in product nodes
	*responseScratch
	head int // the index in order the BFS expands next
}

// succ maps one base edge, leaving product node n of extra rank x, to
// the successor node, or -1 when the target has no such edge: the
// trigger sets the pending bit, then the goal rule and a goal state
// clear it.
func (s *responseSearch) succ(n int32, ed graphEdge, x int32) int32 {
	shift := s.d.shift & 31
	m := s.moves[ed.rule<<shift|x]
	if m < 0 {
		return -1
	}
	to := ed.to<<shift | m>>moveBits
	pending := n&1 == 1 || m&moveTrigger != 0
	if m&moveGoal != 0 || s.state[to]&stGoal != 0 {
		pending = false
	}
	if pending {
		return 2*to + 1
	}
	return 2 * to
}

// ruleOf is the target rule of base edge ed leaving extra rank x.
func (s *responseSearch) ruleOf(ed graphEdge, x int32) int32 {
	if s.d.trans == nil {
		return ed.rule
	}
	return s.d.trans[ed.rule<<s.d.shift|x].rule
}

// expand takes the next node off the BFS queue and discovers its
// successors in edge order; false once the BFS has drained, or once it
// has discovered more nodes than the budget, where the sequential BFS
// stops too.
func (s *responseSearch) expand() bool {
	if s.head == len(s.order) || len(s.order) > s.max {
		return false
	}
	n := s.order[s.head]
	row, x := s.d.row(n >> 1)
	for _, ed := range row {
		next := s.succ(n, ed, x)
		if next < 0 {
			continue
		}
		seen := uint8(stSeen) << (next & 1)
		if s.state[next>>1]&seen != 0 {
			continue
		}
		s.state[next>>1] |= seen
		s.order = append(s.order, next)
		s.from = append(s.from, int32(s.head))
	}
	s.head++
	return true
}

// index returns n's position in the BFS order, first running the BFS
// until it discovers n: every node the lasso search meets is reachable,
// so it does unless the budget stops the BFS first, and then index
// returns -1.
func (s *responseSearch) index(n int32) int32 {
	for s.state[n>>1]&(stSeen<<(n&1)) == 0 {
		if !s.expand() {
			return -1
		}
	}
	return int32(slices.Index(s.order, n))
}

// depth counts the BFS tree edges from the start to order[i].
func (s *responseSearch) depth(i int32) int {
	k := 0
	for ; s.from[i] >= 0; i = s.from[i] {
		k++
	}
	return k
}

// pathTo reconstructs the rule path of the BFS tree from the start to
// n. The rule into each node is the first edge of its parent's row that
// leads to it, the edge the BFS discovered it by. False when the budget
// stops the BFS before it discovers n.
func (s *responseSearch) pathTo(n int32) ([]string, bool) {
	i := s.index(n)
	if i < 0 {
		return nil, false
	}
	out := make([]string, s.depth(i))
	for k := len(out) - 1; k >= 0; k-- {
		parent := s.order[s.from[i]]
		row, x := s.d.row(parent >> 1)
		for _, ed := range row {
			if s.succ(parent, ed, x) == s.order[i] {
				out[k] = s.rules[s.ruleOf(ed, x)].Name
				break
			}
		}
		i = s.from[i]
	}
	return out, true
}

// deadlocked reports whether the target has no edge out of the slot
// with base row row and extra rank x.
func (s *responseSearch) deadlocked(row []graphEdge, x int32) bool {
	for _, ed := range row {
		if s.moves[ed.rule<<s.d.shift|x] >= 0 {
			return false
		}
	}
	return true
}

// setUp resolves the derivation's rule table for p into moves, sizes
// the slot bits and marks the goal states. False when p's GoalState
// does not compile.
func (s *responseSearch) setUp(sys *ts.System, p Response) bool {
	d := s.d
	s.trigger, s.goal = resize(s.trigger, len(s.rules)), resize(s.goal, len(s.rules))
	for j := range s.rules {
		s.trigger[j] = p.Trigger(s.rules[j].Name)
		s.goal[j] = p.Goal != nil && p.Goal(s.rules[j].Name)
	}
	s.moves = resize(s.moves, len(d.base.Rules)<<d.shift)
	for i := range s.moves {
		t := graphEdge{rule: int32(i)} // the identity's
		if d.trans != nil {
			t = d.trans[i]
		}
		m := int32(-1)
		if t.rule >= 0 {
			m = t.to << moveBits
			if s.trigger[t.rule] {
				m |= moveTrigger
			}
			if s.goal[t.rule] {
				m |= moveGoal
			}
		}
		s.moves[i] = m
	}
	st := resize(s.state, d.slots())
	s.state = st
	if p.GoalState == nil {
		return true
	}
	f, err := sys.CompileCond(p.GoalState)
	if err != nil {
		return false
	}
	d.base.forEachState(0, func(id int32, b ts.State) bool {
		for x := range d.extra {
			s.target = append(append(s.target[:0], b...), d.values[x*d.width:][:d.width]...)
			if f(s.target) {
				st[id<<d.shift|x] = stGoal
			}
		}
		return true
	})
	return true
}

// check runs the pending-product lasso search over the derivation
// without materialising the product: the product BFS advances only as
// far as the pending-region DFS needs it, for its next root in BFS order
// or for the BFS path to a counterexample node. Both compute successors
// through succ, so no guard is re-evaluated, no state is re-hashed and
// no edge is stored, and the working memory is the scratch, reused from
// check to check: one byte per slot plus the nodes the search
// discovers. Slots are met in the order the target's ids would be
// assigned, and node order, edge order and therefore StatesExplored
// (the nodes the BFS discovered, the whole product for a verified
// property) and every trace are those of the sequential implementation.
// The check is truncated when the search has discovered more nodes than
// the budget by the time it concludes, or when its graph is.
func (s *responseSearch) check(sys *ts.System, p Response) Result {
	res := Result{Property: p.PropName, Kind: "response"}
	if !s.setUp(sys, p) {
		return res
	}
	init := 2 * s.d.initSlot
	s.state[init>>1] |= stSeen
	s.order, s.from = append(s.order[:0], init), append(s.from[:0], -1)

	var trace *Trace
	concluded := false
	if s.d.base.Truncated {
		// A truncated graph has no rows past its frontier. Its product
		// BFS stops at the budget within the rows it has all the same (a
		// product node is at least as deep as its state).
		for s.expand() {
		}
	} else {
		trace, concluded = s.search(sys)
	}
	res.StatesExplored = len(s.order)
	if !concluded || len(s.order) > s.max {
		res.Truncated = true
		return res
	}
	res.Counterexample = trace
	res.Verified = trace == nil
	return res
}

// search looks for a pending cycle or deadlock, from each pending root
// in BFS order, visiting each row in edge order; the stack holds each
// pending node at most once. It returns the counterexample (nil when
// the property holds), and false when the budget stopped the BFS before
// the search concluded.
func (s *responseSearch) search(sys *ts.System) (*Trace, bool) {
	st := s.state
	for ri := 0; ; ri++ {
		for ri == len(s.order) && s.expand() {
		}
		if ri == len(s.order) {
			return nil, s.head == len(s.order)
		}
		root := s.order[ri]
		if root&1 == 0 || st[root>>1]&(stOnStack|stDone) != 0 {
			continue
		}
		s.stack = append(s.stack[:0], responseFrame{node: root})
		st[root>>1] |= stOnStack
		for len(s.stack) > 0 {
			f := &s.stack[len(s.stack)-1]
			row, x := s.d.row(f.node >> 1)
			if f.next == 0 && s.deadlocked(row, x) {
				path, ok := s.pathTo(f.node)
				if !ok {
					return nil, false
				}
				return buildTrace(sys, path, len(path)), true
			}
			advanced := false
			for int(f.next) < len(row) {
				ed := row[f.next]
				f.next++
				next := s.succ(f.node, ed, x)
				if next < 0 || next&1 == 0 {
					continue // no edge, or leaving the pending region discharges along it
				}
				switch b := st[next>>1]; {
				case b&stOnStack != 0:
					path, ok := s.pathTo(f.node)
					if !ok {
						return nil, false
					}
					entry := s.index(next)
					if entry < 0 {
						return nil, false
					}
					loopEntry := min(s.depth(entry), len(path))
					full := append(path, s.rules[s.ruleOf(ed, x)].Name)
					return buildTrace(sys, full, loopEntry), true
				case b&stDone == 0:
					st[next>>1] |= stOnStack
					s.stack = append(s.stack, responseFrame{node: next})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				st[f.node>>1] = st[f.node>>1]&^stOnStack | stDone
				s.stack = s.stack[:len(s.stack)-1]
			}
		}
	}
}

// resize returns buf with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ErrBudgetExhausted re-exports the resilience sentinel that CheckContext
// attaches to truncated explorations, so callers can errors.Is against
// the mc package alone.
var ErrBudgetExhausted = resilience.ErrBudgetExhausted

// IsBudgetExhausted reports whether err marks a truncated exploration.
func IsBudgetExhausted(err error) bool { return errors.Is(err, resilience.ErrBudgetExhausted) }
