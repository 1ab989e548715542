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
// and derives the graph from the most recent complete cached graph the
// system refines (derive.go): a refinement prunes rules or appends
// observation variables, so its graph is a BFS over the base graph's
// rows. Only when no cached graph qualifies does it explore.
package mc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// DefaultEngine backs the package-level Check/CheckAll entry points. A
// process-wide cache is safe: entries are keyed by system pointer and
// generation, shared between systems of identical structure, bounded by
// engineCacheEntries, and concurrent builds of the same graph are
// collapsed into one.
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

// graphBuild is one exploration, shared by every cache entry whose
// system has its structure; ready is closed when the build finishes.
type graphBuild struct {
	fp        [32]byte // systemFingerprint of the explored structure
	maxStates int
	seq       int // the engine's build count when it started
	ready     chan struct{}
	graph     *StateGraph
	err       error
}

// wait blocks until the build finishes or ctx is done, returning the
// build's error or a cancellation.
func (b *graphBuild) wait(ctx context.Context) error {
	select {
	case <-b.ready:
		return b.err
	case <-ctx.Done():
		return fmt.Errorf("mc: waiting for shared exploration: %w", resilience.ErrCancelled)
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

// graphFor returns the graph for the system's current generation: the
// system's own cached build, else a live build of a structurally
// identical system, else a new exploration (run once, even under
// concurrent callers). The fingerprint is computed only on a pointer
// miss.
func (e *Engine) graphFor(ctx context.Context, sys *ts.System, opts Options) (*StateGraph, GraphSource, error) {
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
				return b.graph, src, nil
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

		b.graph, b.err = deriveOrBuild(ctx, sys, *fp, opts, bases)
		if b.err != nil {
			// Do not poison the cache: a cancelled or failed build must not
			// answer later calls that arrive with a live context.
			e.mu.Lock()
			e.dropLocked(b)
			e.mu.Unlock()
		}
		close(b.ready)
		return b.graph, GraphBuilt, b.err
	}
}

// basesLocked lists the graphs a new build may derive from: every
// finished, successful build still in the cache, most recent first.
func (e *Engine) basesLocked() []*StateGraph {
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
	bases := make([]*StateGraph, len(builds))
	for i, b := range builds {
		bases[i] = b.graph
	}
	return bases
}

// deriveOrBuild compiles sys's rules once and derives its graph from
// the first base it extends (derive.go), else explores it.
func deriveOrBuild(ctx context.Context, sys *ts.System, fp [32]byte, opts Options, bases []*StateGraph) (*StateGraph, error) {
	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	vars, init := sys.Vars(), sys.InitialState()
	for _, base := range bases {
		if d, ok := planDerivation(base, rules, vars, init); ok {
			return deriveGraph(ctx, sys, rules, d, fp, opts)
		}
	}
	return buildGraph(ctx, sys, rules, fp, opts)
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
	g, src, err := e.graphFor(ctx, sys, opts)
	if err != nil {
		if resilience.Cancelled(err) {
			return res, src, err
		}
		// Rule compilation failed: same unverified result the sequential
		// checker reports, with the cause attached instead of swallowed.
		return res, src, fmt.Errorf("mc: checking %s: %w", prop.Name(), err)
	}
	switch p := prop.(type) {
	case Invariant:
		res = g.checkInvariant(sys, p)
	case NeverFires:
		res = g.checkNeverFires(sys, p)
	case Response:
		start := time.Now()
		res = g.checkResponse(sys, p, opts)
		if reg != nil && !g.Truncated {
			// A truncated graph gets no product search, so it adds neither.
			reg.Histogram("mc.response_ms", nil).Observe(obs.DurMS(time.Since(start)))
			reg.Counter("mc.response_nodes").Add(int64(res.StatesExplored))
		}
	default:
		return res, src, nil
	}
	if res.Truncated {
		return res, src, fmt.Errorf("mc: checking %s: exploration truncated at %d states (budget %d): %w",
			prop.Name(), res.StatesExplored, opts.maxStates(), resilience.ErrBudgetExhausted)
	}
	return res, src, nil
}

// CheckAll verifies the properties concurrently, results in order.
func (e *Engine) CheckAll(sys *ts.System, props []Property, opts Options) []Result {
	out, _ := e.CheckAllContext(context.Background(), sys, props, opts)
	return out
}

// CheckAllContext fans the property list out over a bounded worker pool
// (resilience.FanOut, Options.Workers wide) sharing one exploration. The
// result slice is indexed 1:1 with props — ordering is deterministic
// regardless of worker interleaving — and the aggregated error collects
// per-property budget exhaustion plus a single cancellation entry when
// the walk was cut short.
func (e *Engine) CheckAllContext(ctx context.Context, sys *ts.System, props []Property, opts Options) ([]Result, error) {
	out := make([]Result, len(props))
	perErr := make([]error, len(props))

	// Static vacuity pre-pass: properties whose trigger matches no
	// statically-fireable rule are discharged without exploration. The
	// fixpoint is linear in rules × rounds, negligible next to any
	// single exploration.
	pruned := make([]bool, len(props))
	if !opts.NoVacuityPrune && len(props) > 0 && ctx.Err() == nil {
		reach := StaticReach(sys)
		reg := obs.FromContext(ctx).Metrics()
		for i, p := range props {
			if v, witness := Vacuous(reach, sys, p); v {
				out[i] = vacuousResult(p, witness)
				pruned[i] = true
				reg.Counter("mc.vacuity_pruned").Inc()
			}
		}
	}

	resilience.FanOut(ctx, len(props), opts.workers(), func(i int) {
		if !pruned[i] {
			out[i], perErr[i] = e.CheckContext(ctx, sys, props[i], opts)
		}
	})

	var errs resilience.Collector
	completed := 0
	for i := range props {
		switch {
		case perErr[i] == nil && out[i].Property != "":
			completed++
		case perErr[i] != nil && !resilience.Cancelled(perErr[i]):
			completed++ // truncated results still carry a (partial) verdict
			errs.Add(perErr[i])
		}
	}
	if ctx.Err() != nil {
		errs.Add(fmt.Errorf("mc: catalogue stopped after %d of %d properties: %w",
			completed, len(props), resilience.ErrCancelled))
	}
	return out, errs.Err()
}

// checkInvariant discharges AG p in one ordered pass over the graph: the
// first state (in BFS intern order) violating the predicate is exactly
// the state the sequential explorer would have flagged, so the parent
// tree yields a byte-identical shortest counterexample.
func (g *StateGraph) checkInvariant(sys *ts.System, p Invariant) Result {
	res := Result{Property: p.PropName, Kind: "invariant"}
	holds, err := sys.CompileCond(p.Holds)
	if err != nil {
		return res
	}
	violation := int32(-1)
	g.forEachState(func(id int32, s ts.State) bool {
		if !holds(s) {
			violation = id
			return false
		}
		return true
	})
	switch {
	case violation == 0:
		res.Counterexample = buildTrace(sys, nil, -1)
		return res
	case violation > 0:
		res.StatesExplored = int(violation) + 1
		res.Counterexample = buildTrace(sys, g.pathTo(violation), -1)
		return res
	}
	res.StatesExplored = g.NumStates()
	if g.Truncated {
		res.Truncated = true
		return res
	}
	res.Verified = true
	return res
}

// checkNeverFires scans states in BFS order and their edges in rule
// order — the sequential dequeue order — so the first matching firing
// and its counterexample are identical to the per-property exploration.
func (g *StateGraph) checkNeverFires(sys *ts.System, p NeverFires) Result {
	res := Result{Property: p.PropName, Kind: "never-fires"}
	// Precompile the match verdict per rule once; the pattern is a pure
	// function of the rule name, so no name is re-matched per state.
	matched := make([]bool, len(g.Rules))
	any := false
	for i := range g.Rules {
		matched[i] = p.Match(g.Rules[i].Name)
		any = any || matched[i]
	}
	if any {
		for id := 0; id < g.expanded(); id++ {
			for _, ed := range g.row(int32(id)) {
				if !matched[ed.rule] {
					continue
				}
				res.StatesExplored = g.statesWhenProcessing(int32(id), ed.rule)
				path := append(g.pathTo(int32(id)), g.Rules[ed.rule].Name)
				res.Counterexample = buildTrace(sys, path, -1)
				return res
			}
		}
	}
	res.StatesExplored = g.NumStates()
	if g.Truncated {
		res.Truncated = true
		return res
	}
	res.Verified = true
	return res
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

// checkResponse runs the pending-product lasso search over the interned
// graph without materialising the product: nodes are slots 2*sid +
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
		g.forEachState(func(id int32, s ts.State) bool {
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
