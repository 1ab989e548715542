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
// and derives the graph from a cached graph the system refines
// (derive.go): a refinement prunes rules or appends observation
// variables, so its graph is a BFS over the base graph's rows. Only
// when no cached graph qualifies does it explore.
//
// No graph is built further than a check reads it. A cached graph grows
// lazily, one BFS level at a time. Each completed level is published as
// an immutable view (graph.go), and the suspended explorer waits for the
// next caller that needs more. Invariant and NeverFires scan the
// published levels with a cursor and ask for another level only while
// the prefix holds no violation: ids are assigned in level order, so
// the first violation in a prefix is the first in the whole graph. A
// Response search asks for levels as it reads rows the graph does not
// have yet, the product BFS and the pending-region DFS alike. A derived
// graph grows its base the same way, as far as the level it derives
// reads (derive.go). Only a verified verdict reads a whole graph, and a
// truncation needs the budget reached. A derivation starts from the
// most recent complete graph the system extends, else from the oldest
// partial one. One caller extends a graph at a time, and a derived
// graph's extender takes its base's lock after its own, so locks are
// taken in one order along a derivation chain; the others read the
// views already published.
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
// the levels and states it added. Whatever a level needs built first,
// such as a derivation's base levels, nests under the span the level
// belongs to.
type graphReader struct {
	b        *graphBuild
	ctx      context.Context
	g        *StateGraph
	building bool
	// wait is the time more has spent blocked on b.mu, while another
	// caller grew the graph.
	wait time.Duration

	span      *obs.Span
	spanCtx   context.Context // carries span
	spanWait  time.Duration   // wait when span started
	levels    int
	states    int
	edgeBytes int64
}

// more advances r.g by at least one level: to a view another caller has
// published since r last looked, else by building the next level.
func (r *graphReader) more() error {
	b := r.b
	start := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	r.wait += time.Since(start)
	if v := b.view(); v != r.g {
		r.g = v
		return nil
	}
	if b.fail != nil {
		return b.fail
	}
	ex := b.ex
	ctx := ex.spanCtx
	if !r.building {
		if r.span == nil {
			r.spanCtx, r.span = obs.Start(r.ctx, "mc.extend", obs.A("system", ex.g.System), obs.A("build", strconv.Itoa(b.seq)))
			r.spanWait = r.wait
		}
		ctx = r.spanCtx
		ex.bind(ctx)
	}
	states, edgeBytes := ex.g.NumStates(), ex.g.edgeBytes()
	if err := ex.advance(ctx); err != nil {
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
// states and edge bytes it built to the run's totals. The span's
// wait_ms is the time r blocked on the graph's lock while it was open.
func (r *graphReader) end(err error) {
	if r.span == nil {
		return
	}
	reg := obs.FromContext(r.ctx).Metrics()
	reg.Counter("mc.states_explored").Add(int64(r.states))
	reg.Counter("mc.edge_bytes").Add(r.edgeBytes)
	r.span.SetAttr("levels", strconv.Itoa(r.levels))
	r.span.SetAttr("depth", strconv.Itoa(r.g.levels))
	r.span.SetAttr("states", strconv.Itoa(r.states))
	r.span.SetAttr("complete", strconv.FormatBool(r.g.complete))
	r.span.SetAttr("wait_ms", strconv.FormatFloat(obs.DurMS(r.wait-r.spanWait), 'f', -1, 64))
	r.span.EndErr(err)
	r.span, r.spanCtx = nil, nil
}

// release ends r's part in growing the graph as its builder or as an
// extender: its "mc.extend" span ends, and so does the builder phase of
// a build r started, which releases the callers waiting on it. A check
// that grows the graph after release, as a response search does, does
// so as one more extender.
func (r *graphReader) release(e *Engine) {
	r.end(nil)
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
// from the most recent complete base it extends (derive.go), else from
// the oldest partial one, the root of its refinement chain, whose rows
// the other graphs of the chain read too; the derivation grows that
// base as it needs. With no base it starts exploring. A derived graph's
// ids depend on the target alone, so the base chosen changes nothing
// but the work.
func deriveOrBuild(ctx context.Context, sys *ts.System, opts Options, bases []*graphBuild) (*levelExplorer, error) {
	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	vars, init := sys.Vars(), sys.InitialState()
	plan := func(base *graphBuild, complete bool) *derivation {
		g := base.view()
		if g.complete != complete {
			return nil
		}
		kept, ok := extendsBase(g, rules, vars, init)
		if !ok {
			return nil
		}
		d, _ := planFrom(g, kept, rules, vars, init)
		return d
	}
	for _, base := range bases {
		if d := plan(base, true); d != nil {
			return startDerive(ctx, sys, rules, d, base, opts)
		}
	}
	for i := len(bases) - 1; i >= 0; i-- {
		if d := plan(bases[i], false); d != nil {
			return startDerive(ctx, sys, rules, d, bases[i], opts)
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
// node. state holds one byte per state of the graph searched; the rest
// grows with what the search discovers.
type responseScratch struct {
	// rule holds the property's trigger and goal bits per rule.
	rule []uint8
	// state holds the st* bits of each state.
	state []uint8
	// order holds the product nodes the BFS has discovered, in BFS order;
	// from[i] is the index in order of order[i]'s BFS parent, -1 for the
	// start.
	order, from []int32
	stack       []responseFrame
}

// The bits of responseScratch.rule: whether the rule is the property's
// trigger or goal.
const (
	ruleTrigger = 1 << 0
	ruleGoal    = 1 << 1
)

// responseFrame is one pending node on the lasso search's DFS stack and
// the index of the next edge of its row to follow.
type responseFrame struct {
	node int32
	next int32
}

// The bits of responseScratch.state. Product node 2*id + pending has
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

// checkResponse answers p on r's graph, explored or derived, grown as
// the search needs rows, under the search's "mc.response" span. Before
// the search starts, r lets go of its part in building the graph, so
// the build's span ends first. The span's wait_ms is the part of its
// time the search spent blocked on the graph's lock.
func (r *graphReader) checkResponse(e *Engine, sys *ts.System, p Response) (Result, error) {
	reg := obs.FromContext(r.ctx).Metrics()
	r.release(e)
	ctx, span := obs.Start(r.ctx, "mc.response", obs.A("property", p.PropName))
	r.ctx = ctx
	start, wait := time.Now(), r.wait
	sc := e.takeScratch()
	s := &responseSearch{src: r, g: r.g, max: r.g.MaxStates, responseScratch: sc}
	res, err := s.check(sys, p)
	r.end(err)
	e.putScratch(sc) // s is another check's from here on
	reg.Histogram("mc.response_ms", nil).Observe(obs.DurMS(time.Since(start)))
	// StatesExplored is the nodes the search discovered.
	nodes := res.StatesExplored
	reg.Counter("mc.response_nodes").Add(int64(nodes))
	if span != nil { // a run without an observer formats no attributes
		span.SetAttr("build", strconv.Itoa(r.b.seq))
		span.SetAttr("nodes", strconv.Itoa(nodes))
		span.SetAttr("truncated", strconv.FormatBool(res.Truncated))
		span.SetAttr("wait_ms", strconv.FormatFloat(obs.DurMS(r.wait-wait), 'f', -1, 64))
	}
	span.EndErr(err)
	return res, err
}

// responseSearch is the pending-bit product of a graph with one
// response property, searched lazily. Product node = 2*id + pending;
// successors are computed from the graph's CSR rows on demand, through
// the property's rule bits, instead of being stored. The graph may be
// partial: the search grows it through src when it needs a row the
// graph does not have yet, and the state bits and goal marks grow with
// it.
type responseSearch struct {
	src *graphReader
	g   *StateGraph // src's view, as far as the search has grown it
	max int         // the state budget, in product nodes
	// goalState is the property's GoalState, compiled; nil without one.
	goalState func(ts.State) bool
	*responseScratch
	head int // the index in order the BFS expands next
	// rows is the number of rows g has, and marked the number of its
	// states the state bits cover, goal bits set.
	rows, marked int32
	// err is why growing the graph failed.
	err error
}

// row returns state id's row, first growing the graph when the row is
// not there yet. False when the budget truncated the graph without that
// row, or growing it failed (s.err).
func (s *responseSearch) row(id int32) ([]graphEdge, bool) {
	for id >= s.rows {
		if s.g.complete {
			return nil, false
		}
		if s.err = s.src.more(); s.err != nil {
			return nil, false
		}
		s.g = s.src.g
		s.sync()
	}
	return s.g.row(id), true
}

// sync sizes the state bits for the states g holds, and marks the goal
// states among those it did not hold before.
func (s *responseSearch) sync() {
	g := s.g
	s.rows = int32(g.expanded())
	n := g.NumStates()
	if old := len(s.state); n > old {
		s.state = slices.Grow(s.state, n-old)[:n]
		clear(s.state[old:])
	}
	if s.goalState != nil {
		g.forEachState(int(s.marked), func(id int32, st ts.State) bool {
			if s.goalState(st) {
				s.state[id] |= stGoal
			}
			return true
		})
	}
	s.marked = int32(n)
}

// succ maps edge ed, leaving product node n, to the successor node: the
// trigger sets the pending bit, then the goal rule and a goal state
// clear it.
func (s *responseSearch) succ(n int32, ed graphEdge) int32 {
	r := s.rule[ed.rule]
	pending := n&1 == 1 || r&ruleTrigger != 0
	if r&ruleGoal != 0 || s.state[ed.to]&stGoal != 0 {
		pending = false
	}
	if pending {
		return 2*ed.to + 1
	}
	return 2 * ed.to
}

// expand takes the next node off the BFS queue and discovers its
// successors in edge order; false once the BFS has drained, once it
// has discovered more nodes than the budget, where the sequential BFS
// stops too, or when the node's row is not to be had.
func (s *responseSearch) expand() bool {
	if s.head == len(s.order) || len(s.order) > s.max {
		return false
	}
	n := s.order[s.head]
	row, ok := s.row(n >> 1)
	if !ok {
		return false
	}
	for _, ed := range row {
		next := s.succ(n, ed)
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
// so it does unless the BFS stops first, and then index returns -1.
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
// leads to it, the edge the BFS discovered it by. False when the BFS
// stops before it discovers n.
func (s *responseSearch) pathTo(n int32) ([]string, bool) {
	i := s.index(n)
	if i < 0 {
		return nil, false
	}
	out := make([]string, s.depth(i))
	for k := len(out) - 1; k >= 0; k-- {
		parent := s.order[s.from[i]]
		row, _ := s.row(parent >> 1) // the BFS expanded it
		for _, ed := range row {
			if s.succ(parent, ed) == s.order[i] {
				out[k] = s.g.Rules[ed.rule].Name
				break
			}
		}
		i = s.from[i]
	}
	return out, true
}

// setUp sets the rule bits for p, compiles its GoalState, and sizes the
// state bits and marks the goal states for the graph as it stands.
// False when the GoalState does not compile.
func (s *responseSearch) setUp(sys *ts.System, p Response) bool {
	rules := s.g.Rules
	s.rule = resize(s.rule, len(rules))
	for j := range rules {
		if p.Trigger(rules[j].Name) {
			s.rule[j] |= ruleTrigger
		}
		if p.Goal != nil && p.Goal(rules[j].Name) {
			s.rule[j] |= ruleGoal
		}
	}
	if p.GoalState != nil {
		f, err := sys.CompileCond(p.GoalState)
		if err != nil {
			return false
		}
		s.goalState = f
	}
	s.state = s.state[:0]
	s.sync()
	return true
}

// check runs the pending-product lasso search over the graph without
// materialising the product: the product BFS advances only as far as
// the pending-region DFS needs it, for its next root in BFS order or for
// the BFS path to a counterexample node. Both compute successors through
// succ, so no guard is re-evaluated, no state is re-hashed and no edge
// is stored, and the working memory is the scratch, reused from check
// to check: one byte per state plus the nodes the search discovers.
// Node order, edge order and therefore StatesExplored (the nodes the
// BFS discovered, the whole product for a verified property) and every
// trace are those of the sequential implementation. The check is
// truncated when the search has discovered more nodes than the budget
// by the time it concludes, or when it needs a row that the
// budget-truncated graph does not have. An error is a failure to grow
// the graph.
func (s *responseSearch) check(sys *ts.System, p Response) (Result, error) {
	res := Result{Property: p.PropName, Kind: "response"}
	if !s.setUp(sys, p) {
		return res, nil
	}
	s.state[0] |= stSeen
	s.order, s.from = append(s.order[:0], 0), append(s.from[:0], -1)

	trace, concluded := s.search(sys)
	if s.err != nil {
		return res, s.err
	}
	res.StatesExplored = len(s.order)
	if !concluded || len(s.order) > s.max {
		res.Truncated = true
		return res, nil
	}
	res.Counterexample = trace
	res.Verified = trace == nil
	return res, nil
}

// search looks for a pending cycle or deadlock, from each pending root
// in BFS order, visiting each row in edge order; the stack holds each
// pending node at most once. It returns the counterexample (nil when
// the property holds), and false when the search stopped before it
// concluded: the budget stopped the BFS, or a row was not to be had.
func (s *responseSearch) search(sys *ts.System) (*Trace, bool) {
	for ri := 0; ; ri++ {
		for ri == len(s.order) && s.expand() {
		}
		if ri == len(s.order) {
			return nil, s.head == len(s.order)
		}
		root := s.order[ri]
		if root&1 == 0 || s.state[root>>1]&(stOnStack|stDone) != 0 {
			continue
		}
		s.stack = append(s.stack[:0], responseFrame{node: root})
		s.state[root>>1] |= stOnStack
		for len(s.stack) > 0 {
			f := &s.stack[len(s.stack)-1]
			row, ok := s.row(f.node >> 1)
			if !ok {
				return nil, false
			}
			if len(row) == 0 {
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
				next := s.succ(f.node, ed)
				if next&1 == 0 {
					continue // leaving the pending region discharges along this edge
				}
				switch b := s.state[next>>1]; {
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
					full := append(path, s.g.Rules[ed.rule].Name)
					return buildTrace(sys, full, loopEntry), true
				case b&stDone == 0:
					s.state[next>>1] |= stOnStack
					s.stack = append(s.stack, responseFrame{node: next})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				s.state[f.node>>1] = s.state[f.node>>1]&^stOnStack | stDone
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
