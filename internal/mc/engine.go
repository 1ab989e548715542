// The shared-frontier engine: property checks discharged on a cached
// StateGraph. Invariant and NeverFires become single ordered passes over
// the interned graph; Response reuses the interned states and edges for
// its pending-product lasso search. The cache holds one entry per system
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
// in a prefix is the first in the whole graph. A verified verdict, a
// Response check and a truncation need the whole graph, and so does a
// derivation: a cached graph that passes the structural checks is
// completed before a derivation is sized from it. One caller extends a
// graph at a time; the others read the views already published.
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
// closed when that check is done, and every other caller then grows it
// further as its checks need.
type graphBuild struct {
	fp        [32]byte // systemFingerprint of the explored structure
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
			f := systemFingerprint(sys)
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

		ex, err := deriveOrBuild(ctx, sys, *fp, opts, bases)
		if err != nil {
			e.endBuild(b, err)
			return nil, GraphBuilt, err
		}
		b.ex = ex
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
// from the first base it extends (derive.go), else starts exploring it.
// A base that passes the structural check is completed first, under an
// "mc.extend" span of this caller, so the derivation is sized from the
// finished base.
func deriveOrBuild(ctx context.Context, sys *ts.System, fp [32]byte, opts Options, bases []*graphBuild) (*levelExplorer, error) {
	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	vars, init := sys.Vars(), sys.InitialState()
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
			return startDerive(ctx, sys, rules, d, fp, opts)
		}
	}
	return startBuild(ctx, sys, rules, fp, opts)
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
				e.endBuild(b, fmt.Errorf("mc: checking %s: panic: %v", prop.Name(), p))
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
		if gerr = r.complete(); gerr != nil {
			break
		}
		start := time.Now()
		res = r.g.checkResponse(sys, p, opts)
		if reg != nil && !r.g.Truncated {
			// A truncated graph gets no product search, so it adds neither.
			reg.Histogram("mc.response_ms", nil).Observe(obs.DurMS(time.Since(start)))
			reg.Counter("mc.response_nodes").Add(int64(res.StatesExplored))
		}
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

// responseProduct is the pending-bit product of a graph with one
// response property. Product node = slot 2*sid + pending; successors are
// computed from the graph's CSR row on demand instead of being stored.
type responseProduct struct {
	trigger, goal []bool // per rule index
	goalSat       []bool // per state id; nil without a GoalState
}

// succ maps product slot and one edge of its state's row to the
// successor slot: the trigger sets the pending bit, then the goal rule
// and a goal state clear it, in that order.
func (rp *responseProduct) succ(slot int32, ed graphEdge) int32 {
	pending := slot&1 == 1
	if rp.trigger[ed.rule] {
		pending = true
	}
	if rp.goal[ed.rule] {
		pending = false
	}
	if pending && rp.goalSat != nil && rp.goalSat[ed.to] {
		pending = false
	}
	next := 2 * ed.to
	if pending {
		next++
	}
	return next
}

// checkResponse runs the pending-product lasso search over the complete
// interned graph without materialising the product: nodes are slots 2*sid +
// pending in four slot-indexed arrays, each allocated once, and both the
// product BFS and the pending-region DFS compute successors from the CSR
// row through responseProduct.succ, so no guard is re-evaluated, no
// state is re-hashed and no edge is stored. Node order, edge order and
// therefore StatesExplored and every trace are those of the sequential
// implementation.
func (g *StateGraph) checkResponse(sys *ts.System, p Response, opts Options) Result {
	res := Result{Property: p.PropName, Kind: "response"}
	if g.Truncated {
		// Missing adjacency beyond the frontier would masquerade as
		// deadlocks; a truncated graph cannot support the liveness search.
		res.Truncated = true
		res.StatesExplored = g.NumStates()
		return res
	}
	rp := responseProduct{trigger: make([]bool, len(g.Rules)), goal: make([]bool, len(g.Rules))}
	for i := range g.Rules {
		rp.trigger[i] = p.Trigger(g.Rules[i].Name)
		if p.Goal != nil {
			rp.goal[i] = p.Goal(g.Rules[i].Name)
		}
	}
	if p.GoalState != nil {
		f, err := sys.CompileCond(p.GoalState)
		if err != nil {
			return res
		}
		rp.goalSat = make([]bool, g.NumStates())
		g.forEachState(0, func(id int32, s ts.State) bool {
			rp.goalSat[id] = f(s)
			return true
		})
	}

	// Product BFS. parent holds each slot's parent slot (-1 for the
	// start, -2 unseen); order holds slots in intern order and is both
	// the BFS queue and the DFS root order.
	slots := 2 * g.NumStates()
	parent := make([]int32, slots)
	for i := range parent {
		parent[i] = -2
	}
	parentRule := make([]int32, slots)
	order := make([]int32, 1, slots)
	parent[0], parentRule[0] = -1, -1
	pendingNodes := 0
	maxStates := opts.maxStates()
	for head := 0; head < len(order); head++ {
		if len(order) > maxStates {
			res.Truncated = true
			res.StatesExplored = len(order)
			return res
		}
		slot := order[head]
		for _, ed := range g.row(slot >> 1) {
			next := rp.succ(slot, ed)
			if parent[next] != -2 {
				continue
			}
			parent[next], parentRule[next] = slot, ed.rule
			order = append(order, next)
			pendingNodes += int(next & 1)
		}
	}
	res.StatesExplored = len(order)

	// depth counts the product tree edges from the start to slot.
	depth := func(slot int32) int {
		n := 0
		for cur := slot; parent[cur] >= 0; cur = parent[cur] {
			n++
		}
		return n
	}
	// nodePath reconstructs the rule path from the product start to slot.
	nodePath := func(slot int32) []string {
		out := make([]string, depth(slot))
		for cur, i := slot, len(out)-1; i >= 0; cur, i = parent[cur], i-1 {
			out[i] = g.Rules[parentRule[cur]].Name
		}
		return out
	}

	// Search the pending subgraph for a cycle or deadlock, visiting each
	// row in edge order. The stack holds each pending node at most once.
	// colour: 0 unvisited, 1 on stack, 2 done.
	colour := make([]uint8, slots)
	type frame struct {
		slot int32
		next int32
	}
	stack := make([]frame, 0, pendingNodes)
	for _, root := range order {
		if root&1 == 0 || colour[root] != 0 {
			continue
		}
		stack = append(stack[:0], frame{slot: root})
		colour[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			row := g.row(f.slot >> 1)
			if len(row) == 0 {
				path := nodePath(f.slot)
				res.Counterexample = buildTrace(sys, path, len(path))
				return res
			}
			advanced := false
			for int(f.next) < len(row) {
				ed := row[f.next]
				f.next++
				next := rp.succ(f.slot, ed)
				if next&1 == 0 {
					continue // leaving the pending region discharges along this edge
				}
				switch colour[next] {
				case 1:
					path := nodePath(f.slot)
					loopEntry := min(depth(next), len(path))
					full := append(path, g.Rules[ed.rule].Name)
					res.Counterexample = buildTrace(sys, full, loopEntry)
					return res
				case 0:
					colour[next] = 1
					stack = append(stack, frame{slot: next})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				colour[f.slot] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	res.Verified = true
	return res
}

// ErrBudgetExhausted re-exports the resilience sentinel that CheckContext
// attaches to truncated explorations, so callers can errors.Is against
// the mc package alone.
var ErrBudgetExhausted = resilience.ErrBudgetExhausted

// IsBudgetExhausted reports whether err marks a truncated exploration.
func IsBudgetExhausted(err error) bool { return errors.Is(err, resilience.ErrBudgetExhausted) }
