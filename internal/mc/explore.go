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
// exactly the states without an adjacency row yet. Level boundaries are
// also where snapshots are checkpointed. A graph derived from a cached
// base graph (derive.go) runs the same level loop and boundary
// bookkeeping, with one serial pass over the base rows in place of the
// two phases.
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
// (buildGraph) or a derivation from a base graph (deriveGraph in
// derive.go), which share the level loop and its boundary bookkeeping.
type levelExplorer struct {
	g     *StateGraph
	opts  Options
	rules *ts.RuleSet
	// ranks is the dense visited set; index the hash one, used when the
	// domains are too large for ranks.
	ranks *rankTable
	index *stateIndex
	// domains holds each variable's domain size.
	domains []int

	// derive is set when the graph derives from a base graph instead;
	// slotOf is then its visited set, and slots maps ids back to slots
	// (see derive.go).
	derive  *derivation
	slotOf  []int32
	slots   []int32
	scratch []byte

	// The frontier is the id range [lo, hi): the states the last level
	// interned, none of them expanded yet.
	lo, hi int32
	level  int // completed levels

	// chunks and counts are the current level's expansion: counts[i] is
	// the number of candidates of frontier position i, which sit in its
	// chunk in position order.
	chunks []chunk
	counts []int32

	start     time.Time
	reg       *obs.Registry
	bus       *obs.Bus
	scope     string // job scope for progress events (see obs.WithScope)
	width     *obs.Histogram
	occupancy *obs.Gauge
	peakBytes *obs.Gauge
	hashed    *obs.Counter
	derived   *obs.Counter
}

// newLevelExplorer sets up the state both builders share: the empty
// graph, which keeps the compiled rules, variables and initial state it
// is built from so it can serve as a derivation base in turn, and the
// registry's mc.* instruments, resolved once up front (all nil-safe
// no-ops when no observer rides the context).
func newLevelExplorer(ctx context.Context, sys *ts.System, rules *ts.RuleSet, fp [32]byte, opts Options) *levelExplorer {
	reg := obs.FromContext(ctx).Metrics()
	init := sys.InitialState()
	return &levelExplorer{
		g: &StateGraph{
			System: sys.Name, fp: fp, Rules: rules.Rules, MaxStates: opts.maxStates(),
			rules: rules, vars: slices.Clone(sys.Vars()), init: init,
			arena: newStateArena(len(init)),
			off:   []int32{0},
		},
		opts:      opts,
		rules:     rules,
		start:     time.Now(),
		reg:       reg,
		bus:       obs.FromContext(ctx).Bus(),
		scope:     obs.ScopeFromContext(ctx),
		width:     reg.Histogram("mc.frontier_width", nil),
		occupancy: reg.Gauge("mc.visited_states"),
		peakBytes: reg.Gauge("mc.peak_resident_state_bytes"),
		hashed:    reg.Counter("mc.explorations_hashed"),
		derived:   reg.Counter("mc.explorations_derived"),
	}
}

// record counts a build that produced a graph on the registry and its
// "mc.explore" span: derived and explored builds alike are explorations.
func (e *levelExplorer) record(span *obs.Span, graph *StateGraph) {
	if graph != nil {
		n := graph.NumStates()
		e.reg.Counter("mc.states_explored").Add(int64(n))
		e.reg.Counter("mc.explorations").Inc()
		switch {
		case e.derive != nil:
			e.derived.Inc()
		case e.ranks == nil:
			e.hashed.Inc()
		}
		if elapsed := time.Since(e.start); elapsed > 0 {
			e.reg.Gauge("mc.states_per_sec").Set(int64(float64(n) / elapsed.Seconds()))
		}
		edgeBytes := graph.edgeBytes()
		e.reg.Counter("mc.edge_bytes").Add(edgeBytes)
		span.SetAttr("states", strconv.Itoa(n))
		span.SetAttr("edge_bytes", strconv.FormatInt(edgeBytes, 10))
		span.SetAttr("truncated", strconv.FormatBool(graph.Truncated))
	}
}

// buildGraph explores the system with the level-synchronised worker pool
// and returns the interned reachability graph. rules is the system
// compiled, and fp its systemFingerprint, which names and validates its
// snapshots. Each build is one "mc.explore" span.
func buildGraph(ctx context.Context, sys *ts.System, rules *ts.RuleSet, fp [32]byte, opts Options) (graph *StateGraph, err error) {
	_, span := obs.Start(ctx, "mc.explore", obs.A("system", sys.Name))
	domains := make([]int, len(sys.Vars()))
	for i, v := range sys.Vars() {
		domains[i] = len(v.Domain)
	}
	ranks := newRankTable(domains)
	e := newLevelExplorer(ctx, sys, rules, fp, opts)
	defer func() {
		e.record(span, graph)
		span.EndErr(err)
	}()
	e.ranks, e.domains = ranks, domains
	if e.ranks == nil {
		e.index = newStateIndex()
		span.SetAttr("index", "hash")
	} else {
		span.SetAttr("index", "dense")
	}

	resumed := false
	if opts.SnapshotDir != "" {
		lvl, ok, rerr := e.tryResume()
		if rerr != nil {
			return nil, rerr
		}
		if ok {
			resumed = true
			e.reg.Gauge("mc.resume_level").Set(int64(lvl))
			span.SetAttr("resume_level", strconv.Itoa(lvl))
		}
	}
	if !resumed {
		init := e.g.init
		if _, err := e.intern(init, e.key(init), -1, -1); err != nil {
			return nil, err
		}
		e.lo, e.hi = 0, 1
	}
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return e.g, nil
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
	g.parentState = append(g.parentState, parent)
	g.parentRule = append(g.parentRule, rule)
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
	case e.derive != nil:
		return int64(len(e.slotOf)) * 4
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
	e.g.arena.forEach(func(id int32, s []byte) bool {
		grown.add(hashState(ts.State(s)), id)
		return true
	})
	e.index = grown
}

// run drives the level loop, exploring or deriving each level, until
// the frontier drains, the budget truncates or the context is cancelled.
func (e *levelExplorer) run(ctx context.Context) error {
	g := e.g
	for e.lo < e.hi {
		if ctx.Err() != nil {
			return fmt.Errorf("mc: exploration of %s after %d states: %w",
				g.System, g.NumStates(), resilience.ErrCancelled)
		}
		if g.NumStates() > g.MaxStates {
			g.Truncated = true
			return nil
		}
		e.width.Observe(float64(e.hi - e.lo))

		var err error
		if e.derive != nil {
			err = e.deriveLevel()
		} else {
			e.expandFrontier(e.opts.workers())
			err = e.internLevel()
		}
		if err != nil {
			return err
		}
		if err := e.endOfLevel(); err != nil {
			return err
		}
	}
	return nil
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
	g.off = slices.Grow(g.off, int(e.hi-e.lo))
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
	e.level++
	return nil
}

// endOfLevel runs the level-boundary bookkeeping: residency and
// occupancy instruments, and the snapshot checkpoint (every level, so
// completed explorations resume for free).
func (e *levelExplorer) endOfLevel() error {
	g := e.g
	e.occupancy.Set(int64(g.NumStates()))
	e.peakBytes.SetMax(g.arena.memBytes() + e.visitedBytes())
	if e.opts.SnapshotDir != "" {
		if err := e.writeSnapshot(); err != nil {
			return err
		}
	}
	// One progress event per completed level: how deep the exploration
	// is, how many states it holds, and how wide the next frontier is —
	// the live feedback streaming clients steer budgets by. Publishing
	// never blocks, so the level loop pays only the ring append.
	if e.bus == nil {
		return nil
	}
	e.bus.Publish(obs.BusEvent{
		Type:  "progress",
		Scope: e.scope,
		Name:  "mc.level",
		Value: int64(e.level),
		Attrs: map[string]string{
			"system":   g.System,
			"states":   strconv.Itoa(g.NumStates()),
			"frontier": strconv.Itoa(int(e.hi - e.lo)),
		},
	})
	return nil
}
