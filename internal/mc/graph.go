// Shared-frontier exploration: the reachability graph of a ts.System is
// computed once by a level-synchronised worker-pool BFS and reused by
// every property check. Determinism is load-bearing — state ids, the
// first-reach parent tree and per-state edge order must be identical to
// the sequential explorer's so that counterexample traces come out
// byte-identical. States live in the compact arena/index storage layer
// (arena.go); the level-synchronised explorer that fills the graph is
// in explore.go. A graph keeps the compiled rules, variables and
// initial state it was built from, so a refined system's graph can be
// derived from it (derive.go) with the same ids, parent tree and edge
// order the explorer would produce.
//
// Edges are stored write-once, like the arena's states: in fixed
// segments of edgeSegLen edges, allocated when the writer reaches them
// and never moved or copied, with no row crossing a segment. A build
// therefore never copies the edges it already holds, and a cached graph
// holds no growth slack beyond the open segment's tail.
//
// The per-state arrays (the row offsets and the parent tree) are stored
// the same way, in fixed pages, so no build copies them as it grows.
//
// A graph is built lazily, one BFS level at a time (engine.go), only as
// deep as its readers need. At each level boundary the builder
// publishes a view: a copy of the graph's headers, whose lengths cover
// the completed levels. Later levels only append past those lengths,
// into storage that never moves, so a view is an immutable prefix of
// the finished graph, readable while the build goes on. A view has rows
// for its expanded prefix only; a reader that needs a row past it must
// grow the graph first, and row refuses to answer rather than return an
// empty row, which would read as a deadlock.
package mc

import (
	"fmt"
	"math"
	"sort"

	"prochecker/internal/ts"
)

// edgeSegBits sizes the edge segments: 1<<16 edges, 512 KiB each, so
// segment allocations are rare and the tail a row skips is shorter
// than that row.
const (
	edgeSegBits = 16
	edgeSegLen  = 1 << edgeSegBits
)

// graphEdge is one outgoing transition of the reachability graph.
type graphEdge struct {
	rule int32 // index into StateGraph.Rules
	to   int32 // successor state id
}

// StateGraph is the interned reachability graph of one system, or a
// published prefix of it: states in BFS order inside the compact arena,
// all enabled transitions per state in rule order, and the first-reach
// parent tree for shortest-path counterexamples.
type StateGraph struct {
	// System names the explored system. The graph keeps no system
	// pointer: it is shared between systems of identical structure,
	// which callers go on refining in place.
	System string
	Rules  []ts.CompiledRule

	// rules, vars and init are the compiled system the graph was built
	// from, so that a refinement of it can derive its graph from this
	// one (derive.go).
	rules *ts.RuleSet
	vars  []ts.Var
	init  ts.State

	arena *stateArena
	// off/segs are the adjacency in segmented CSR form. Edge position p
	// is segs[p>>edgeSegBits][p&(edgeSegLen-1)], and state id's edges,
	// in rule order, end at off[id+1]. A row never crosses a segment: one
	// that did not fit in the tail of the segment before it starts at its
	// own segment's base instead of off[id] (row). Only expanded states
	// have a row; off.len()-1 of them, always a prefix of the ids. rowAt
	// is where the row being written starts (reserveRow).
	off   int32Pages
	segs  [][]graphEdge
	rowAt int32
	// parentState/parentRule form the BFS tree: the (state, rule) that
	// first reached each state; -1 for the initial state.
	parentState int32Pages
	parentRule  int32Pages

	// Truncated marks a build that hit the state budget; adjacency of
	// unexpanded frontier states is missing then.
	Truncated bool
	// MaxStates is the budget the graph was built under.
	MaxStates int

	// levels counts the BFS levels expanded so far. complete marks a
	// build with nothing left to do: its frontier drained, or the budget
	// truncated it. An incomplete graph is a prefix of the finished one
	// with the same ids: every state of the levels expanded so far, and
	// the next frontier, without rows yet.
	levels   int
	complete bool
}

// view returns an immutable copy of the graph's headers as of now.
// Building on appends only past the lengths it records, so the copy
// keeps reading exactly the states, rows and parents it covers.
func (g *StateGraph) view() *StateGraph {
	v := *g
	a := *g.arena
	v.arena = &a
	return &v
}

// NumStates reports how many states were interned.
func (g *StateGraph) NumStates() int { return g.arena.len() }

// expanded reports how many states have an adjacency row: a prefix of
// the ids, all of them once the graph is complete, unless the budget
// truncated it with a frontier left unexpanded.
func (g *StateGraph) expanded() int { return g.off.len() - 1 }

// row returns state id's outgoing edges in rule order. The row's
// segment is the one holding its last edge, and its start is clamped to
// that segment's base, which skips the padding a row that did not fit
// left behind. A state without a row has no answer here: an empty row
// would read as a deadlock, so asking for one is a bug in the caller,
// which must first grow the graph past id or learn that the budget
// truncated it there.
func (g *StateGraph) row(id int32) []graphEdge {
	if int(id) >= g.expanded() {
		g.noRow(id)
	}
	lo, hi := g.off.at(id), g.off.at(id+1)
	if lo == hi {
		return nil
	}
	s := (hi - 1) >> edgeSegBits
	base := s << edgeSegBits
	return g.segs[s][max(lo, base)-base : hi-base : hi-base]
}

// noRow panics for row: the reader asked for a row the graph does not
// have.
func (g *StateGraph) noRow(id int32) {
	panic(fmt.Sprintf("mc: row of state %d of %s, which has %d rows", id, g.System, g.expanded()))
}

// reserveRow makes room for the next state's row of at most n edges and
// returns it empty with capacity n: in the open segment, or at the base
// of the next one when the open segment's tail is shorter than n. The
// builder appends the row's edges into it and hands it to closeRow.
func (g *StateGraph) reserveRow(n int) ([]graphEdge, error) {
	if n == 0 {
		return nil, nil
	}
	if n > edgeSegLen {
		return nil, fmt.Errorf("mc: a state of %s has %d edges, more than a %d-edge segment", g.System, n, edgeSegLen)
	}
	at := int(g.off.last())
	if at&(edgeSegLen-1)+n > edgeSegLen {
		at = (at>>edgeSegBits + 1) << edgeSegBits
	}
	if at+n > math.MaxInt32 {
		return nil, fmt.Errorf("mc: exploration of %s exceeds %d edges", g.System, math.MaxInt32)
	}
	s := at >> edgeSegBits
	if s == len(g.segs) {
		g.segs = append(g.segs, make([]graphEdge, edgeSegLen))
	}
	g.rowAt = int32(at)
	i := at & (edgeSegLen - 1)
	return g.segs[s][i : i : i+n], nil
}

// closeRow ends the row reserveRow returned, now holding the state's
// edges. An empty row ends where the previous one did, so a reservation
// it did not use leaves no gap in off.
func (g *StateGraph) closeRow(row []graphEdge) {
	end := g.off.last()
	if len(row) > 0 {
		end = g.rowAt + int32(len(row))
	}
	g.off.append(end)
}

// pageBits sizes the pages of a graph's per-state arrays: 1<<12
// int32s, 16 KiB each, so a graph of a few states holds a few pages and
// a large one allocates a page per 4,096 states.
const (
	pageBits = 12
	pageLen  = 1 << pageBits
)

// int32Pages is an append-only int32 array stored like the edge
// segments: in fixed pages allocated as the writer reaches them, never
// moved or copied. Appending writes only past the length, so a copy of
// the header is an immutable prefix, readable while the writer goes on.
type int32Pages struct {
	pages [][]int32
	n     int
}

// pagesOf returns the array holding vals.
func pagesOf(vals ...int32) int32Pages {
	var p int32Pages
	for _, v := range vals {
		p.append(v)
	}
	return p
}

func (p *int32Pages) len() int { return p.n }

func (p *int32Pages) at(i int32) int32 { return p.pages[i>>pageBits][i&(pageLen-1)] }

// last returns the last element; the array must not be empty.
func (p *int32Pages) last() int32 { return p.at(int32(p.n - 1)) }

func (p *int32Pages) append(v int32) {
	if p.n>>pageBits == len(p.pages) {
		p.pages = append(p.pages, make([]int32, pageLen))
	}
	p.pages[p.n>>pageBits][p.n&(pageLen-1)] = v
	p.n++
}

// memBytes is the array's resident footprint: every page allocated.
func (p *int32Pages) memBytes() int64 { return int64(len(p.pages)) * pageLen * 4 }

// edgeBytes is the adjacency's resident footprint: every edge segment
// allocated so far.
func (g *StateGraph) edgeBytes() int64 { return int64(len(g.segs)) * edgeSegLen * 8 }

// StateAt returns a zero-copy view of state id's packed assignment (do
// not mutate it).
func (g *StateGraph) StateAt(id int32) ts.State { return ts.State(g.arena.at(id)) }

// forEachState streams every state from id from on, in id order; the
// state view must not be mutated. Return false to stop early.
func (g *StateGraph) forEachState(from int, f func(id int32, s ts.State) bool) {
	g.arena.forEach(from, func(id int32, b []byte) bool { return f(id, ts.State(b)) })
}

// pathTo reconstructs the rule-name path from the initial state to id.
func (g *StateGraph) pathTo(id int32) []string {
	var rev []string
	for cur := id; g.parentState.at(cur) >= 0; cur = g.parentState.at(cur) {
		rev = append(rev, g.Rules[g.parentRule.at(cur)].Name)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// statesWhenProcessing reconstructs how many states the sequential
// explorer had interned at the moment it processed rule ri of state id:
// the initial state plus every state whose first-reach (parent, rule)
// pair precedes (id, ri) in exploration order. Parent pairs are
// non-decreasing in state id, so the boundary binary-searches — the
// former forward scan made counterexample reconstruction quadratic on
// large graphs.
func (g *StateGraph) statesWhenProcessing(id, ri int32) int {
	n := g.NumStates()
	return 1 + sort.Search(n-1, func(i int) bool {
		s := int32(i + 1)
		ps, pr := g.parentState.at(s), g.parentRule.at(s)
		return ps > id || (ps == id && pr >= ri)
	})
}

// hashState is FNV-1a over the packed state bytes: computed once per
// candidate in the worker and reused for index probing in the intern
// pass, instead of re-serialising the full assignment per intern.
func hashState(s ts.State) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range s {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
