// The level-synchronised explorer. Each BFS level runs in two phases:
// (1) workers expand frontier chunks in parallel against the visited
// index, which is read-only for the whole phase; (2) one serial pass
// walks the successors in canonical (frontier position, rule) order,
// interning every fresh state straight into the arena and the index —
// exactly the sequential explorer's intern order, so state ids, the
// parent tree and counterexample traces stay byte-identical to
// CheckSequential for every worker count and memory budget. Level
// boundaries are also where arena segments spill under the memory budget
// and snapshots are checkpointed.
package mc

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// candidate is one enabled transition discovered by a worker: the rule
// index and the successor — resolved to an id when the index already
// contains it, carried as packed state plus hash otherwise.
type candidate struct {
	rule int32
	id   int32 // >= 0 once resolved
	hash uint64
	next ts.State // retained only while unresolved
}

// levelExplorer carries one buildGraph invocation's exploration state.
type levelExplorer struct {
	g     *StateGraph
	opts  Options
	rules []ts.CompiledRule
	index *stateIndex

	frontier []int32
	level    int // completed levels

	bus        *obs.Bus
	scope      string // job scope for progress events (see obs.WithScope)
	width      *obs.Histogram
	occupancy  *obs.Gauge
	spillBytes *obs.Counter
	peakBytes  *obs.Gauge
}

// buildGraph explores the system with the level-synchronised worker pool
// and returns the interned reachability graph. fp is the system's
// systemFingerprint, which names and validates its snapshots.
//
// Observability: each build is one "mc.explore" span; the registry's
// mc.* instruments are resolved once up front (all nil-safe no-ops when
// no observer rides the context).
func buildGraph(ctx context.Context, sys *ts.System, fp [32]byte, opts Options) (graph *StateGraph, err error) {
	reg := obs.FromContext(ctx).Metrics()
	_, span := obs.Start(ctx, "mc.explore", obs.A("system", sys.Name))
	buildStart := time.Now()
	defer func() {
		if graph != nil {
			n := graph.NumStates()
			reg.Counter("mc.states_explored").Add(int64(n))
			reg.Counter("mc.explorations").Inc()
			if elapsed := time.Since(buildStart); elapsed > 0 {
				reg.Gauge("mc.states_per_sec").Set(int64(float64(n) / elapsed.Seconds()))
			}
			span.SetAttr("states", strconv.Itoa(n))
			span.SetAttr("truncated", strconv.FormatBool(graph.Truncated))
		}
		span.EndErr(err)
	}()

	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	init := sys.InitialState()
	e := &levelExplorer{
		g: &StateGraph{
			System: sys.Name, fp: fp, Rules: rules, MaxStates: opts.maxStates(),
			arena:      newStateArena(len(init), opts.SpillSegmentBytes),
			spillReads: reg.Counter("mc.spill_reads"),
		},
		opts:       opts,
		rules:      rules,
		index:      newStateIndex(),
		bus:        obs.FromContext(ctx).Bus(),
		scope:      obs.ScopeFromContext(ctx),
		width:      reg.Histogram("mc.frontier_width", nil),
		occupancy:  reg.Gauge("mc.visited_states"),
		spillBytes: reg.Counter("mc.spill_bytes"),
		peakBytes:  reg.Gauge("mc.peak_resident_state_bytes"),
	}

	resumed := false
	if opts.SnapshotDir != "" {
		lvl, ok, rerr := e.tryResume()
		if rerr != nil {
			return nil, rerr
		}
		if ok {
			resumed = true
			reg.Gauge("mc.resume_level").Set(int64(lvl))
			span.SetAttr("resume_level", strconv.Itoa(lvl))
		}
	}
	if !resumed {
		id, _, err := e.intern(init, hashState(init), -1, -1)
		if err != nil {
			return nil, err
		}
		e.frontier = []int32{id}
	}
	if err := e.run(ctx); err != nil {
		e.g.Release()
		return nil, err
	}
	return e.g, nil
}

// intern returns the id of state s (hash h), first appending it to the
// arena, the parent tree and the index when the index does not hold it
// yet; fresh reports that append. The index must have room for a fresh
// state (ensureIndex).
func (e *levelExplorer) intern(s ts.State, h uint64, parent, rule int32) (id int32, fresh bool, err error) {
	g := e.g
	id, pos, err := e.lookup(h, s)
	if err != nil || id >= 0 {
		return id, false, err
	}
	if id, err = g.arena.append(s, h); err != nil {
		return -1, false, err
	}
	g.adj = append(g.adj, nil)
	g.parentState = append(g.parentState, parent)
	g.parentRule = append(g.parentRule, rule)
	e.index.set(pos, id)
	return id, true, nil
}

// ensureIndex grows the index until extra more inserts stay under 3/4
// load, so the intern pass never grows it mid-level. The index stores no
// hashes, so growth re-derives every position by re-hashing the states
// themselves in one sequential arena pass (spilled segments are read
// back a segment at a time).
func (e *levelExplorer) ensureIndex(extra int) error {
	if (e.index.used+extra)*4 < len(e.index.slots)*3 {
		return nil
	}
	grown := newStateIndex()
	grown.reserve(e.index.used + extra)
	err := e.g.arena.forEach(0, func(id int32, s []byte) bool {
		grown.add(hashState(ts.State(s)), id)
		return true
	})
	if err != nil {
		return err
	}
	e.index = grown
	return nil
}

// run drives the level loop until the frontier drains, the budget
// truncates or the context is cancelled.
func (e *levelExplorer) run(ctx context.Context) error {
	g := e.g
	workers := e.opts.workers()
	for len(e.frontier) > 0 {
		if ctx.Err() != nil {
			return fmt.Errorf("mc: exploration of %s after %d states: %w",
				g.System, g.NumStates(), resilience.ErrCancelled)
		}
		if g.NumStates() > g.MaxStates {
			g.Truncated = true
			return nil
		}
		e.width.Observe(float64(len(e.frontier)))

		cands, err := e.expandFrontier(workers)
		if err != nil {
			return err
		}
		if err := e.internLevel(cands); err != nil {
			return err
		}
		if err := e.endOfLevel(); err != nil {
			return err
		}
	}
	return nil
}

// lookup resolves state s (hash h) against the index: its id, or -1
// with the slot a fresh insert takes. Read-only, so the parallel phase
// calls it concurrently.
func (e *levelExplorer) lookup(h uint64, s ts.State) (int32, int, error) {
	return e.index.probe(h, func(id int32) (bool, error) {
		return e.g.arena.confirm(id, s, h, e.g.spillReads)
	})
}

// expandFrontier is phase 1: workers expand contiguous frontier chunks
// into a position-indexed candidate matrix — no locks, no ordering
// races, the index frozen.
func (e *levelExplorer) expandFrontier(workers int) ([][]candidate, error) {
	g := e.g
	frontier := e.frontier
	cands := make([][]candidate, len(frontier))
	expand := func(id int32) ([]candidate, error) {
		cur, err := g.StateAt(id)
		if err != nil {
			return nil, err
		}
		var out []candidate
		for ri := range e.rules {
			r := &e.rules[ri]
			if !r.Enabled(cur) {
				continue
			}
			next := r.Apply(cur)
			h := hashState(next)
			known, _, err := e.lookup(h, next)
			if err != nil {
				return nil, err
			}
			c := candidate{rule: int32(ri), id: known, hash: h}
			if known < 0 {
				c.next = next
			}
			out = append(out, c)
		}
		return out, nil
	}

	if workers <= 1 || len(frontier) < 2*workers {
		for fi, id := range frontier {
			out, err := expand(id)
			if err != nil {
				return nil, err
			}
			cands[fi] = out
		}
		return cands, nil
	}
	chunk := (len(frontier) + workers - 1) / workers
	nChunks := (len(frontier) + chunk - 1) / chunk
	errs := make([]error, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo, hi := c*chunk, min((c+1)*chunk, len(frontier))
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			for fi := lo; fi < hi; fi++ {
				out, err := expand(frontier[fi])
				if err != nil {
					errs[c] = err
					return
				}
				cands[fi] = out
			}
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// internLevel is phase 2, the serial pass in canonical (frontier
// position, rule) order: every successor the parallel phase left
// unresolved is interned against the index — fresh states get ids
// exactly as the sequential explorer would assign them, including
// states first reached earlier in this same pass — and the adjacency
// rows extend in rule order.
func (e *levelExplorer) internLevel(cands [][]candidate) error {
	g := e.g
	unresolved := 0
	for _, list := range cands {
		for ci := range list {
			if list[ci].id < 0 {
				unresolved++
			}
		}
	}
	if err := e.ensureIndex(unresolved); err != nil {
		return err
	}
	var next []int32
	for pos, list := range cands {
		from := e.frontier[pos]
		edges := make([]graphEdge, len(list))
		for ci := range list {
			c := &list[ci]
			to := c.id
			if to < 0 {
				id, fresh, err := e.intern(c.next, c.hash, from, c.rule)
				if err != nil {
					return err
				}
				if fresh {
					next = append(next, id)
				}
				to = id
			}
			edges[ci] = graphEdge{rule: c.rule, to: to}
		}
		g.adj[from] = edges
	}
	e.frontier = next
	e.level++
	return nil
}

// endOfLevel runs the level-boundary bookkeeping: spill enforcement
// under the memory budget, residency and occupancy instruments, and the
// snapshot checkpoint (every level, so completed explorations resume
// for free).
func (e *levelExplorer) endOfLevel() error {
	g := e.g
	moved, err := g.arena.enforceBudget(e.opts.MemBudget, e.opts.SpillDir)
	if err != nil {
		return err
	}
	if moved > 0 {
		e.spillBytes.Add(moved)
	}
	e.occupancy.Set(int64(e.index.used))
	e.peakBytes.SetMax(g.arena.memBytes() + e.index.memBytes())
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
			"frontier": strconv.Itoa(len(e.frontier)),
		},
	})
	return nil
}
