// Shared-frontier exploration: the reachability graph of a ts.System is
// computed once by a level-synchronised worker-pool BFS and reused by
// every property check. Determinism is load-bearing — state ids, the
// first-reach parent tree and per-state edge order must be identical to
// the sequential explorer's so that counterexample traces come out
// byte-identical. States live in the compact arena/index storage layer
// (arena.go); the level-synchronised explorer that fills the graph is
// in explore.go, and snapshot/resume in snapshot.go. A graph keeps the
// compiled rules, variables and initial state it was built from, so a
// refined system's graph can be derived from it (derive.go) with the
// same ids, parent tree and edge order the explorer would produce.
package mc

import (
	"slices"
	"sort"

	"prochecker/internal/ts"
)

// graphEdge is one outgoing transition of the reachability graph.
type graphEdge struct {
	rule int32 // index into StateGraph.Rules
	to   int32 // successor state id
}

// StateGraph is the interned reachability graph of one system: states in
// BFS order inside the compact arena, all enabled transitions per state
// in rule order, and the first-reach parent tree for shortest-path
// counterexamples.
type StateGraph struct {
	// System names the explored system and fp is its systemFingerprint
	// at build time. The graph keeps no system pointer: it is shared
	// between systems of identical structure, which callers go on
	// refining in place.
	System string
	fp     [32]byte
	Rules  []ts.CompiledRule

	// rules, vars and init are the compiled system the graph was built
	// from, so that a refinement of it can derive its graph from this
	// one (derive.go).
	rules *ts.RuleSet
	vars  []ts.Var
	init  ts.State

	arena *stateArena
	// off/edges are the adjacency in CSR form: the edges of state id are
	// edges[off[id]:off[id+1]], in rule order. Only expanded states have
	// a row; len(off)-1 of them, always a prefix of the ids.
	off   []int32
	edges []graphEdge
	// parentState/parentRule form the BFS tree: the (state, rule) that
	// first reached each state; -1 for the initial state.
	parentState []int32
	parentRule  []int32

	// Truncated marks a build that hit the state budget; adjacency of
	// unexpanded frontier states is missing then.
	Truncated bool
	// MaxStates is the budget the graph was built under.
	MaxStates int
}

// NumStates reports how many states were interned.
func (g *StateGraph) NumStates() int { return g.arena.len() }

// expanded reports how many states have an adjacency row: all of them,
// unless the build was truncated with a frontier left unexpanded.
func (g *StateGraph) expanded() int { return len(g.off) - 1 }

// row returns state id's outgoing edges in rule order; empty for a
// state the build never expanded.
func (g *StateGraph) row(id int32) []graphEdge {
	if int(id) >= g.expanded() {
		return nil
	}
	return g.edges[g.off[id]:g.off[id+1]]
}

// StateAt returns a zero-copy view of state id's packed assignment (do
// not mutate it).
func (g *StateGraph) StateAt(id int32) ts.State { return ts.State(g.arena.at(id)) }

// growEdges makes room for n more edges. The array at least doubles, so
// a build copies its edges a bounded number of times; trimEdges drops
// the slack once the build ends.
func (g *StateGraph) growEdges(n int) {
	if cap(g.edges)-len(g.edges) >= n {
		return
	}
	grown := make([]graphEdge, len(g.edges), max(2*cap(g.edges), len(g.edges)+n))
	copy(grown, g.edges)
	g.edges = grown
}

// trimEdges reallocates the edge array to its length, so a cached graph
// holds no growth slack.
func (g *StateGraph) trimEdges() {
	if cap(g.edges) > len(g.edges) {
		g.edges = slices.Clone(g.edges)
	}
}

// forEachState streams every state in id order; the state view must
// not be mutated. Return false to stop early.
func (g *StateGraph) forEachState(f func(id int32, s ts.State) bool) {
	g.arena.forEach(func(id int32, b []byte) bool { return f(id, ts.State(b)) })
}

// pathTo reconstructs the rule-name path from the initial state to id.
func (g *StateGraph) pathTo(id int32) []string {
	var rev []string
	for cur := id; g.parentState[cur] >= 0; cur = g.parentState[cur] {
		rev = append(rev, g.Rules[g.parentRule[cur]].Name)
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
		s := i + 1
		ps, pr := g.parentState[s], g.parentRule[s]
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
