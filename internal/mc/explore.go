// The level-synchronised explorer. Each BFS level runs in two phases:
// (1) workers expand contiguous frontier chunks in parallel against the
// visited set, which is read-only for the whole phase; (2) one serial
// pass walks the successors in canonical (frontier position, rule)
// order, interning every fresh state straight into the arena and the
// visited set — exactly the sequential explorer's intern order, so state
// ids, the parent tree and counterexample traces stay byte-identical to
// CheckSequential for every worker count.
//
// Per state, phase 1 does no guard calls and no allocation. The rules
// enabled in a state come from the ts.RuleSet guard bitsets: one AND of
// a per-(variable, value) row per variable, whose set bits, walked in
// ascending order, are the enabled rules in rule order. Each successor
// is written into a per-worker scratch state and looked up; only the
// ones the lookup leaves unresolved are copied, into the chunk's packed
// byte buffer. The visited set is dense when the product of the
// variable domains is at most denseRankLimit: a []int32 indexed by the
// state's mixed-radix rank, so a lookup is a few multiply-adds and one
// load. Larger systems fall back to the open-addressing hash index over
// the arena (arena.go).
//
// Phase 2 writes each frontier state's edges as its row of the graph's
// write-once edge segments (graph.go), reserving exactly the state's
// candidate count.
// The frontier is always the id range the previous level interned, and
// exactly the states without an adjacency row yet. A graph derived from
// a cached base graph (derive.go) runs the same level loop and boundary
// bookkeeping, with one serial pass over the base rows in place of the
// two phases; when its base cannot supply a level, it fills a visited
// set from the states it has and goes on exploring.
//
// The explorer builds one level per advance call, so the engine can
// suspend a build between levels for as long as no check needs more of
// the graph (engine.go). Once the build completes, the explorer drops
// its visited set and level buffers; only the counters its span
// records remain.
package mc

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// candidate is one enabled transition discovered by a worker: the rule
// index and the successor — resolved to an id when the visited set
// already holds it, carried as its key plus packed bytes otherwise.
type candidate struct {
	rule int32
	id   int32  // >= 0 once resolved
	key  uint64 // the successor's rank (dense) or hash
	at   int32  // index of its bytes in chunk.states while unresolved
}

// chunk is one worker's share of a level: the candidates of frontier
// positions [lo, hi) in (position, rule) order, and the packed bytes of
// the successors its lookups left unresolved. Its buffers, scratch
// state and enabled mask are reused from level to level.
type chunk struct {
	lo, hi     int
	cands      []candidate
	states     []byte
	unresolved int

	next    ts.State
	enabled []uint64
}

// levelExplorer carries one graph build's state: an exploration
// (startBuild) or a derivation from a base graph (startDerive in
// derive.go), which share the level loop and its boundary bookkeeping.
type levelExplorer struct {
	g     *StateGraph
	opts  Options
	rules *ts.RuleSet
	// ranks is the dense visited set; index the hash one, used when the
	// domains are too large for ranks.
	ranks *rankTable
	index *stateIndex

	// When the graph derives from a base graph instead, d is the
	// derivation, whose base view the explorer advances as it grows
	// baseBuild; slotOf is the visited set, and slots maps ids back to
	// slots (see derive.go).
	d         *derivation
	baseBuild *graphBuild
	slotOf    slotTable
	slots     int32Pages
	scratch   []byte

	// The frontier is the id range [lo, hi): the states the last level
	// interned, none of them expanded yet.
	lo, hi int32

	// chunks and counts are the current level's expansion: counts[i] is
	// the number of candidates of frontier position i, which sit in its
	// chunk in position order.
	chunks []chunk
	counts []int32

	// kind is the visited set, the span's index attribute: dense, hash
	// or derived.
	kind string
	// span is the build's "mc.explore" span, and spanCtx the context of
	// the caller that started the build, carrying it.
	span    *obs.Span
	spanCtx context.Context
	start   time.Time
	// partial is the mc.graphs_partial counter the build's span counted
	// it on while it is incomplete; completion takes it back off.
	partial *obs.Counter

	// explorations counts the build on the registry of the caller that
	// started it; hashed and derived are resolved up front, so a run's
	// registry carries them even at zero.
	explorations, hashed, derived *obs.Counter

	reg       *obs.Registry
	bus       *obs.Bus
	scope     string // job scope for progress events (see obs.WithScope)
	width     *obs.Histogram
	occupancy *obs.Gauge
	peakBytes *obs.Gauge
}

// newLevelExplorer sets up the state both builders share: the empty
// graph, which keeps the compiled rules, variables and initial state it
// is built from so it can serve as a derivation base in turn, the
// build's "mc.explore" span, and the registry's mc.* instruments.
func newLevelExplorer(ctx context.Context, sys *ts.System, rules *ts.RuleSet, opts Options, kind string) *levelExplorer {
	init := sys.InitialState()
	e := &levelExplorer{
		g: &StateGraph{
			System: sys.Name, Rules: rules.Rules, MaxStates: opts.maxStates(),
			rules: rules, vars: slices.Clone(sys.Vars()), init: init,
			arena: newStateArena(len(init)),
			off:   pagesOf(0),
		},
		opts:  opts,
		rules: rules,
		kind:  kind,
		start: time.Now(),
	}
	// The span outlives this call: endExplore ends it, when the caller
	// that started the build is done growing it.
	e.spanCtx, e.span = obs.Start(ctx, "mc.explore", obs.A("system", sys.Name), obs.A("index", kind))
	e.bind(ctx)
	e.explorations = e.reg.Counter("mc.explorations")
	e.hashed = e.reg.Counter("mc.explorations_hashed")
	e.derived = e.reg.Counter("mc.explorations_derived")
	return e
}

// bind points the level-boundary instruments and progress events at
// ctx's observer (all nil-safe no-ops when none rides it): the caller
// building the next levels, who may not be the one that started the
// build.
func (e *levelExplorer) bind(ctx context.Context) {
	o := obs.FromContext(ctx)
	reg := o.Metrics()
	e.reg, e.bus, e.scope = reg, o.Bus(), obs.ScopeFromContext(ctx)
	e.width = reg.Histogram("mc.frontier_width", nil)
	e.occupancy = reg.Gauge("mc.visited_states")
	e.peakBytes = reg.Gauge("mc.peak_resident_state_bytes")
}

// endExplore records the build on its registry and ends its
// "mc.explore" span, with graph as far as the build got. Derived and
// explored builds alike are explorations; a graph still incomplete
// counts on mc.graphs_partial until a later extension completes it. A
// failed build (nil graph) records nothing.
func (e *levelExplorer) endExplore(graph *StateGraph, err error) {
	if graph != nil {
		n := graph.NumStates()
		e.reg.Counter("mc.states_explored").Add(int64(n))
		e.explorations.Inc()
		switch e.kind {
		case "derived":
			e.derived.Inc()
		case "hash":
			e.hashed.Inc()
		}
		if elapsed := time.Since(e.start); elapsed > 0 {
			e.reg.Gauge("mc.states_per_sec").Set(int64(float64(n) / elapsed.Seconds()))
		}
		edgeBytes := graph.edgeBytes()
		e.reg.Counter("mc.edge_bytes").Add(edgeBytes)
		partial := e.reg.Counter("mc.graphs_partial")
		if !graph.complete {
			partial.Inc()
			e.partial = partial
		}
		e.span.SetAttr("states", strconv.Itoa(n))
		e.span.SetAttr("levels", strconv.Itoa(graph.levels))
		e.span.SetAttr("complete", strconv.FormatBool(graph.complete))
		e.span.SetAttr("edge_bytes", strconv.FormatInt(edgeBytes, 10))
		e.span.SetAttr("truncated", strconv.FormatBool(graph.Truncated))
	}
	e.span.EndErr(err)
}

// startBuild sets up the exploration of sys: the visited set its
// domains call for, and its initial state. rules is the system
// compiled. The graph then grows by advance.
func startBuild(ctx context.Context, sys *ts.System, rules *ts.RuleSet, opts Options) (*levelExplorer, error) {
	ranks := newRankTable(sys.Vars())
	kind := "dense"
	if ranks == nil {
		kind = "hash"
	}
	e := newLevelExplorer(ctx, sys, rules, opts, kind)
	e.ranks = ranks
	if e.ranks == nil {
		e.index = newStateIndex()
	}

	init := e.g.init
	if _, err := e.intern(init, e.key(init), -1, -1); err != nil {
		e.endExplore(nil, err)
		return nil, err
	}
	e.lo, e.hi = 0, 1
	return e, nil
}

// key is s's visited-set key: its rank in dense mode, its hash otherwise.
func (e *levelExplorer) key(s ts.State) uint64 {
	if e.ranks != nil {
		return uint64(e.ranks.rank(s))
	}
	return hashState(s)
}

// lookup resolves state s (key k) against the visited set: its id, or
// -1 with the position a fresh insert takes. Read-only, so the parallel
// phase calls it concurrently.
func (e *levelExplorer) lookup(k uint64, s ts.State) (int32, int) {
	if e.ranks != nil {
		return e.ranks.ids[k], int(k)
	}
	arena := e.g.arena
	return e.index.probe(k, func(id int32) bool { return bytesEqual(arena.at(id), s) })
}

// intern returns the id of state s (key k), first appending it to the
// arena, the parent tree and the visited set when the set does not hold
// it yet. In hash mode the index must have room for a fresh state
// (ensureIndex).
func (e *levelExplorer) intern(s ts.State, k uint64, parent, rule int32) (int32, error) {
	g := e.g
	id, pos := e.lookup(k, s)
	if id >= 0 {
		return id, nil
	}
	id, err := g.arena.append(s)
	if err != nil {
		return -1, err
	}
	g.parentState.append(parent)
	g.parentRule.append(rule)
	if e.ranks != nil {
		e.ranks.ids[pos] = id
	} else {
		e.index.set(pos, id)
	}
	return id, nil
}

// visitedBytes is the visited set's resident footprint.
func (e *levelExplorer) visitedBytes() int64 {
	switch {
	case e.d != nil:
		return e.slotOf.memBytes()
	case e.ranks != nil:
		return e.ranks.memBytes()
	}
	return e.index.memBytes()
}

// ensureIndex grows the hash index until extra more inserts stay under
// 3/4 load, so the intern pass never grows it mid-level. The index
// stores no hashes, so growth re-derives every position by re-hashing
// the states themselves in one sequential arena pass. The dense table
// never grows.
func (e *levelExplorer) ensureIndex(extra int) {
	if e.ranks != nil || (e.index.used+extra)*4 < len(e.index.slots)*3 {
		return
	}
	grown := newStateIndex()
	grown.reserve(e.index.used + extra)
	e.g.arena.forEach(0, func(id int32, s []byte) bool {
		grown.add(hashState(ts.State(s)), id)
		return true
	})
	e.index = grown
}

// advance explores or derives the next level of an incomplete build,
// and marks the graph complete once a level interns no new state. Past
// the budget it marks the graph truncated and complete instead. A
// derivation first grows its base as far as the level needs, and turns
// into an exploration when the base cannot supply it. The context is
// checked before the level starts, so a cancelled advance leaves the
// build at its last completed level, free to go on later; any other
// error leaves it unusable.
func (e *levelExplorer) advance(ctx context.Context) error {
	g := e.g
	if ctx.Err() != nil {
		return fmt.Errorf("mc: exploration of %s after %d states: %w",
			g.System, g.NumStates(), resilience.ErrCancelled)
	}
	if g.NumStates() > g.MaxStates {
		g.Truncated = true
		e.markComplete()
		return nil
	}
	e.width.Observe(float64(e.hi - e.lo))

	if e.d != nil {
		ok, err := e.growBase(ctx)
		if err != nil {
			return err
		}
		if !ok {
			e.explore()
		}
	}
	var err error
	if e.d != nil {
		err = e.deriveLevel()
	} else {
		e.expandFrontier(e.opts.workers())
		err = e.internLevel()
	}
	if err != nil {
		return err
	}
	e.endOfLevel()
	if e.lo >= e.hi {
		e.markComplete()
	}
	return nil
}

// markComplete ends the build: the graph is final, it leaves
// mc.graphs_partial if its span counted it there, the explorer releases
// its visited set and level buffers, and a derived graph its
// derivation.
func (e *levelExplorer) markComplete() {
	e.g.complete = true
	e.partial.Add(-1)
	e.partial = nil
	e.ranks, e.index = nil, nil
	e.dropDerivation()
	e.chunks, e.counts = nil, nil
}

// expandFrontier is phase 1: workers expand contiguous frontier chunks
// into e.chunks and e.counts, the visited set frozen.
func (e *levelExplorer) expandFrontier(workers int) {
	n := int(e.hi - e.lo)
	if cap(e.counts) < n {
		e.counts = make([]int32, n)
	}
	e.counts = e.counts[:n]
	parts := 1
	if workers > 1 && n >= 2*workers {
		parts = workers
	}
	size := (n + parts - 1) / parts
	nChunks := (n + size - 1) / size
	for len(e.chunks) < nChunks {
		e.chunks = append(e.chunks, chunk{
			next:    make(ts.State, e.g.arena.stride),
			enabled: make([]uint64, e.rules.Words()),
		})
	}
	e.chunks = e.chunks[:nChunks]
	for c := range e.chunks {
		ch := &e.chunks[c]
		ch.lo, ch.hi = c*size, min((c+1)*size, n)
		ch.cands, ch.states, ch.unresolved = ch.cands[:0], ch.states[:0], 0
	}
	if nChunks == 1 {
		e.expandChunk(&e.chunks[0])
		return
	}
	var wg sync.WaitGroup
	for c := range e.chunks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.expandChunk(&e.chunks[c])
		}(c)
	}
	wg.Wait()
}

// expandChunk expands frontier positions [c.lo, c.hi): the enabled set
// from the guard bitsets, each successor applied into one scratch state
// and looked up, only unresolved successors copied out.
func (e *levelExplorer) expandChunk(c *chunk) {
	g := e.g
	next, enabled := c.next, c.enabled
	for fi := c.lo; fi < c.hi; fi++ {
		cur := g.StateAt(e.lo + int32(fi))
		e.rules.EnabledSet(cur, enabled)
		pop := 0
		for _, w := range enabled {
			pop += bits.OnesCount64(w)
		}
		c.cands = slices.Grow(c.cands, pop)
		for wi, w := range enabled {
			for ; w != 0; w &= w - 1 {
				ri := wi*64 + bits.TrailingZeros64(w)
				e.rules.Rules[ri].ApplyInto(next, cur)
				k := e.key(next)
				id, _ := e.lookup(k, next)
				cd := candidate{rule: int32(ri), id: id, key: k}
				if id < 0 {
					cd.at = int32(c.unresolved)
					c.states = append(c.states, next...)
					c.unresolved++
				}
				c.cands = append(c.cands, cd)
			}
		}
		e.counts[fi] = int32(pop)
	}
}

// internLevel is phase 2, the serial pass in canonical (frontier
// position, rule) order: every successor the parallel phase left
// unresolved is interned against the visited set — fresh states get ids
// exactly as the sequential explorer would assign them, including
// states first reached earlier in this same pass — and each frontier
// state's edges become its CSR row.
func (e *levelExplorer) internLevel() error {
	g := e.g
	if int(e.lo) != g.expanded() || int(e.hi) != g.NumStates() {
		return fmt.Errorf("mc: internal error: frontier [%d, %d) is not the unexpanded id range [%d, %d)",
			e.lo, e.hi, g.expanded(), g.NumStates())
	}
	unresolved := 0
	for i := range e.chunks {
		unresolved += e.chunks[i].unresolved
	}
	e.ensureIndex(unresolved)
	stride := g.arena.stride
	for ci := range e.chunks {
		c := &e.chunks[ci]
		k := 0
		for fi := c.lo; fi < c.hi; fi++ {
			from := e.lo + int32(fi)
			row, err := g.reserveRow(int(e.counts[fi]))
			if err != nil {
				return err
			}
			for end := k + int(e.counts[fi]); k < end; k++ {
				cd := &c.cands[k]
				to := cd.id
				if to < 0 {
					at := int(cd.at) * stride
					id, err := e.intern(c.states[at:at+stride], cd.key, from, cd.rule)
					if err != nil {
						return err
					}
					to = id
				}
				row = append(row, graphEdge{rule: cd.rule, to: to})
			}
			g.closeRow(row)
		}
	}
	e.lo, e.hi = e.hi, int32(g.NumStates())
	g.levels++
	return nil
}

// endOfLevel runs the level-boundary bookkeeping: residency and
// occupancy instruments, and a progress event.
func (e *levelExplorer) endOfLevel() {
	g := e.g
	e.occupancy.Set(int64(g.NumStates()))
	e.peakBytes.SetMax(g.arena.memBytes() + e.visitedBytes())
	// One progress event per completed level: how deep the exploration
	// is, how many states it holds, and how wide the next frontier is —
	// the live feedback streaming clients steer budgets by. Publishing
	// never blocks, so the level loop pays only the ring append.
	if e.bus == nil {
		return
	}
	e.bus.Publish(obs.BusEvent{
		Type:  "progress",
		Scope: e.scope,
		Name:  "mc.level",
		Value: int64(g.levels),
		Attrs: map[string]string{
			"system":   g.System,
			"states":   strconv.Itoa(g.NumStates()),
			"frontier": strconv.Itoa(int(e.hi - e.lo)),
		},
	})
}
