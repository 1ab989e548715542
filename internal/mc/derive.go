// Derived graphs: every CEGAR refinement prunes adversary rules or
// appends observation variables, so a refined system is the system it
// came from, minus some rules, times a few new variables that the kept
// rules only read and write among themselves. Its reachability graph is
// therefore a walk over the cached base graph: a target state is a base
// state plus values for the appended variables, and its edges are the
// base state's edges whose rule survived and whose guard admits those
// values. A derivation (startDerive) runs that walk level by level,
// visiting each state's base row in rule order and interning fresh
// states in (frontier position, rule) order — the explorer's order — so
// ids, the parent tree, edge order and every counterexample are
// byte-identical to an exploration's, with no guard evaluated and no
// state hashed. Nothing is sized by the target's bound (base states ×
// appended-variable assignments): the slot table and the per-state
// arrays grow in fixed pages as states are met, and each row reserves
// its base row's length in the write-once edge segments (graph.go) and
// keeps what survives.
//
// A derived graph grows lazily, level by level, like an explored one,
// and its base need not be complete. Each edge of the target projects
// onto a base edge, so a target state at depth k projects onto a base
// state at depth at most k: before deriving a level, the derivation
// grows the base until it has the row of every base state the frontier
// maps to. Base ids are append-only, so the slots stay valid as the
// base grows. The engine derives from the most recent complete cached
// graph the target extends, else from the oldest partial one. If the
// budget truncates the base short of a row the derivation needs, the
// derivation turns into an exploration of the target from the states
// it has, which assigns the same ids. The derived ids depend on the
// target alone, so any base it extends yields the same graph.
package mc

import (
	"bytes"
	"context"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"prochecker/internal/ts"
)

// derivation maps a target system onto a base graph, as far as the
// base view it holds is built. A target state is slot
// baseID<<shift | x, where x ranks the values of the appended variables
// (mixed radix, last variable fastest) and shift is the fewest bits
// that hold every rank, so a slot splits into its base state and its
// rank with one shift and one mask.
type derivation struct {
	base *StateGraph
	// extra is the number of assignments of the width appended
	// variables; values[x*width:][:width] are extra rank x's values.
	extra, width int32
	values       []uint8
	// shift is below 32; the walk masks it with 31 all the same, which
	// spares the compiler's oversized-shift handling in its loop.
	shift uint32
	mask  int32
	// trans[i<<shift | x] is where base rule i leads from extra rank x:
	// the target rule it survives as, and the extra rank it leads to. Its
	// rule is -1 when i is pruned or the target rule's guard rejects x.
	trans []graphEdge
	// initSlot is the target's initial state, base state 0.
	initSlot int32
}

// row returns the base row of slot and slot's extra rank.
func (d *derivation) row(slot int32) ([]graphEdge, int32) {
	return d.base.row(slot >> (d.shift & 31)), slot & d.mask
}

// edge maps base edge ed, leaving a slot of extra rank x, to the target:
// its rule and the slot it leads to; the rule is -1 when the target has
// no such edge.
func (d *derivation) edge(ed graphEdge, x int32) graphEdge {
	shift := d.shift & 31
	t := d.trans[ed.rule<<shift|x]
	t.to |= ed.to << shift
	return t
}

// extendsBase is the structural check of a derivation, which any view
// of a graph answers: the target's variables are base's followed by
// appended ones, its initial state extends base's, and its rules extend
// base's (ts.RuleSet.Extends), which maps every target rule to the base
// rule it keeps.
func extendsBase(base *StateGraph, rules *ts.RuleSet, vars []ts.Var, init ts.State) ([]int32, bool) {
	old := len(base.vars)
	if len(vars) < old || !bytes.Equal(init[:old], base.init) {
		return nil, false
	}
	for v, bv := range base.vars {
		if vars[v].Name != bv.Name || !slices.Equal(vars[v].Domain, bv.Domain) {
			return nil, false
		}
	}
	return rules.Extends(base.rules)
}

// planFrom plans the derivation of a target that extends base, whose
// rules kept maps to base's. base may be partial: the derivation grows
// it as it needs rows (levelExplorer.growBase). A truncated base does
// not derive, nor does one whose slots would not fit an int32.
func planFrom(base *StateGraph, kept []int32, rules *ts.RuleSet, vars []ts.Var, init ts.State) (*derivation, bool) {
	old := len(base.vars)
	if base.Truncated {
		return nil, false
	}
	d := &derivation{base: base, extra: 1, width: int32(len(vars) - old)}
	radix := make([]int32, d.width)
	for k := len(radix) - 1; k >= 0; k-- {
		radix[k] = d.extra
		d.extra *= int32(len(vars[old+k].Domain))
		if d.extra > denseRankLimit {
			return nil, false
		}
	}
	rank := func(vals []uint8) int32 {
		x := int32(0)
		for k, val := range vals {
			x += int32(val) * radix[k]
		}
		return x
	}
	d.values = make([]uint8, d.extra*d.width)
	for x := int32(0); x < d.extra; x++ {
		for k := range radix {
			d.values[x*d.width+int32(k)] = uint8(x / radix[k] % int32(len(vars[old+k].Domain)))
		}
	}

	d.shift = uint32(bits.Len32(uint32(d.extra - 1)))
	d.mask = 1<<d.shift - 1
	if int64(len(base.Rules))<<d.shift > denseRankLimit || !d.fits(base) { // the rule table's own bound
		return nil, false
	}
	d.trans = make([]graphEdge, len(base.Rules)<<d.shift)
	for i := range d.trans {
		d.trans[i].rule = -1
	}
	cur, next := make(ts.State, len(vars)), make(ts.State, len(vars))
	for j, i := range kept {
		for x := int32(0); x < d.extra; x++ {
			vals := d.values[x*d.width:][:d.width]
			admitted := true
			for k, val := range vals {
				admitted = admitted && rules.Admits(j, old+k, val)
			}
			if !admitted {
				continue
			}
			copy(cur[old:], vals)
			rules.Rules[j].ApplyInto(next, cur)
			d.trans[i<<d.shift|x] = graphEdge{rule: int32(j), to: rank(next[old:])}
		}
	}
	d.initSlot = rank(init[old:])
	return d, true
}

// fits reports whether every slot of base's states fits an int32.
func (d *derivation) fits(base *StateGraph) bool {
	return int64(base.NumStates())<<d.shift <= math.MaxInt32
}

// slotTable is a derivation's visited set: id+1 per slot met, 0 for a
// slot not yet met, in pages allocated on first write. A derivation
// touches the pages around the base states its target reaches, not the
// whole slot range, and the slots stay valid as the base grows, since
// base ids are append-only.
type slotTable struct {
	pages [][]int32
	used  int
}

func (t *slotTable) at(slot int32) int32 {
	k := int(slot >> pageBits)
	if k >= len(t.pages) || t.pages[k] == nil {
		return 0
	}
	return t.pages[k][slot&(pageLen-1)]
}

func (t *slotTable) set(slot, v int32) {
	k := int(slot >> pageBits)
	if k >= len(t.pages) {
		t.pages = append(t.pages, make([][]int32, k+1-len(t.pages))...)
	}
	if t.pages[k] == nil {
		t.pages[k] = make([]int32, pageLen)
		t.used++
	}
	t.pages[k][slot&(pageLen-1)] = v
}

// memBytes is the table's resident footprint: the pages written.
func (t *slotTable) memBytes() int64 { return int64(t.used) * pageLen * 4 }

// startDerive sets up the derivation of sys's graph from d's base
// graph, the graph of build base, which then grows one BFS level at a
// time by advance, under the explorer's budget truncation, gauges and
// progress events. Its "mc.explore" span carries index=derived and the
// base's state count when it started.
//
// Nothing is sized by the derivation's bound: the slot table and the
// per-state arrays grow in fixed pages as states are met, so a
// derivation that stops early holds what it has built, whatever the
// size of its base.
func startDerive(ctx context.Context, sys *ts.System, rules *ts.RuleSet, d *derivation, base *graphBuild, opts Options) (*levelExplorer, error) {
	e := newLevelExplorer(ctx, sys, rules, opts, "derived")
	e.span.SetAttr("base_states", strconv.Itoa(d.base.NumStates()))
	e.d, e.baseBuild = d, base
	if _, err := e.internSlot(d.initSlot, -1, -1); err != nil {
		e.endExplore(nil, err)
		return nil, err
	}
	e.lo, e.hi = 0, 1
	return e, nil
}

// growBase grows the derivation's base until it has the row of every
// base state the frontier maps to. A derived state at depth k projects
// onto a base state at depth at most k, so that is base level k at
// most. The levels grown are one "mc.extend" span of the base under
// ctx's span. False when the base cannot supply them: the budget
// truncated it without those rows, or its slots outgrew an int32.
func (e *levelExplorer) growBase(ctx context.Context) (bool, error) {
	d := e.d
	need := int32(0)
	for id := e.lo; id < e.hi; id++ {
		need = max(need, e.slots.at(id)>>d.shift)
	}
	if int(need) < d.base.expanded() {
		return true, nil
	}
	r := &graphReader{b: e.baseBuild, ctx: ctx, g: d.base}
	var err error
	for int(need) >= r.g.expanded() && !r.g.complete && err == nil {
		err = r.more()
	}
	r.end(err)
	if err != nil {
		return false, err
	}
	d.base = r.g
	return int(need) < d.base.expanded() && d.fits(d.base), nil
}

// explore turns a derivation whose base cannot supply its next level
// into an exploration of the target from the states derived so far:
// the visited set is filled from the arena, and the level loop expands
// the frontier with the target's rules from here on. Derivation and
// exploration assign the same ids, so the graph goes on as if it had
// been explored from the start.
func (e *levelExplorer) explore() {
	e.ranks = newRankTable(e.g.vars)
	e.kind = "dense"
	if e.ranks == nil {
		e.kind = "hash"
		e.index = newStateIndex()
		e.index.reserve(e.g.NumStates())
	}
	e.g.arena.forEach(0, func(id int32, s []byte) bool {
		if k := e.key(s); e.ranks != nil {
			e.ranks.ids[k] = id
		} else {
			e.index.add(k, id)
		}
		return true
	})
	e.span.SetAttr("index", e.kind)
	e.dropDerivation()
}

// dropDerivation releases what only a derivation uses.
func (e *levelExplorer) dropDerivation() {
	e.d, e.baseBuild = nil, nil
	e.slotOf, e.slots, e.scratch = slotTable{}, int32Pages{}, nil
}

// deriveLevel expands the frontier [lo, hi) from the base rows: in id
// order, each state's base edges in rule order, skipping pruned rules
// and guards the appended values reject. Fresh successors are interned
// as they are met, and each state's kept edges become its row, written
// into room reserved for its whole base row.
func (e *levelExplorer) deriveLevel() error {
	g, d := e.g, e.d
	for id := e.lo; id < e.hi; id++ {
		baseRow, x := d.row(e.slots.at(id))
		row, err := g.reserveRow(len(baseRow))
		if err != nil {
			return err
		}
		for _, be := range baseRow {
			ed := d.edge(be, x)
			if ed.rule < 0 {
				continue
			}
			to := e.slotOf.at(ed.to) - 1
			if to < 0 {
				if to, err = e.internSlot(ed.to, id, ed.rule); err != nil {
					return err
				}
			}
			row = append(row, graphEdge{rule: ed.rule, to: to})
		}
		g.closeRow(row)
	}
	e.lo, e.hi = e.hi, int32(g.NumStates())
	g.levels++
	return nil
}

// internSlot appends the target state at slot: its base state's bytes
// followed by its appended values.
func (e *levelExplorer) internSlot(slot, parent, rule int32) (int32, error) {
	g, d := e.g, e.d
	s, x := d.base.StateAt(slot>>d.shift), slot&d.mask
	e.scratch = append(append(e.scratch[:0], s...), d.values[x*d.width:][:d.width]...)
	id, err := g.arena.append(e.scratch)
	if err != nil {
		return -1, err
	}
	g.parentState.append(parent)
	g.parentRule.append(rule)
	e.slotOf.set(slot, id+1)
	e.slots.append(slot)
	return id, nil
}
