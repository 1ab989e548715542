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
// state hashed. The target has at most base states × appended-variable
// assignments states, so its per-state arrays are allocated once at
// that bound and never regrown, and each row reserves its base row's
// length in the write-once edge segments (graph.go) and keeps what
// survives.
//
// A derived graph grows lazily, level by level, like an explored one,
// and only from a complete base: the engine derives from the most
// recent complete cached graph the target extends, and completes a
// partial one only when none qualifies. The derived ids depend on the
// target alone, so any base it extends yields the same graph. While a
// derived graph is partial it keeps its derivation, and a response
// check walks the derivation itself (engine.go) instead of completing
// the graph.
package mc

import (
	"bytes"
	"context"
	"math/bits"
	"slices"
	"strconv"

	"prochecker/internal/ts"
)

// derivation maps a target system onto a complete base graph. A target
// state is slot baseID<<shift | x, where x ranks the values of the
// appended variables (mixed radix, last variable fastest) and shift is
// the fewest bits that hold every rank, so a slot splits into its base
// state and its rank with one shift and one mask.
type derivation struct {
	base *StateGraph
	// extra is the number of assignments of the width appended
	// variables; values[x*width:][:width] are extra rank x's values.
	extra, width int32
	values       []uint8
	// shift is below 32; the walks mask it with 31 all the same, which
	// spares the compiler's oversized-shift handling in their loops.
	shift uint32
	mask  int32
	// trans[i<<shift | x] is where base rule i leads from extra rank x:
	// the target rule it survives as, and the extra rank it leads to. Its
	// rule is -1 when i is pruned or the target rule's guard rejects x.
	// A nil trans is the identity: the base graph as its own derivation.
	trans []graphEdge
	// initSlot is the target's initial state, base state 0.
	initSlot int32
}

// self is g as its own derivation, for a walk that runs on derivations
// and complete graphs alike.
func (g *StateGraph) self() *derivation { return &derivation{base: g, extra: 1} }

// slots is the derivation's bound: one slot per base state and extra
// rank, padded to a power of two.
func (d *derivation) slots() int { return d.base.NumStates() << d.shift }

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

// planFrom sizes the derivation of a target that extends base, whose
// rules kept maps to base's, once base is complete: a truncated base,
// or one past the dense bound, does not derive.
func planFrom(base *StateGraph, kept []int32, rules *ts.RuleSet, vars []ts.Var, init ts.State) (*derivation, bool) {
	old := len(base.vars)
	if !base.complete || base.Truncated {
		return nil, false
	}
	d := &derivation{base: base, extra: 1, width: int32(len(vars) - old)}
	radix := make([]int32, d.width)
	for k := len(radix) - 1; k >= 0; k-- {
		radix[k] = d.extra
		d.extra *= int32(len(vars[old+k].Domain))
		if int64(base.NumStates())*int64(d.extra) > denseRankLimit {
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
	if int64(len(base.Rules))<<d.shift > denseRankLimit { // the rule table's own bound
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

// startDerive sets up the derivation of sys's graph from d's base
// graph, which then grows one BFS level at a time by advance, under the
// explorer's budget truncation, gauges and progress events. A derived
// graph writes no snapshots: a resumed run re-derives it from its
// resumed base. Its "mc.explore" span carries index=derived and the
// base's state count.
//
// The slot table (at the padded slot bound) and the per-state arrays
// (at the derivation's bound) are allocated once and left as the
// allocator returns them: slotOf holds id+1 with 0 for a slot not yet
// met, and the other arrays only grow by append. Memory fresh from the operating system becomes
// resident only where the build writes it, so a derivation that stops
// early holds little more than what it has built, not its bound.
func startDerive(ctx context.Context, sys *ts.System, rules *ts.RuleSet, d *derivation, opts Options) (*levelExplorer, error) {
	opts.SnapshotDir = ""
	e := newLevelExplorer(ctx, sys, rules, opts, "derived")
	e.span.SetAttr("base_states", strconv.Itoa(d.base.NumStates()))
	g := e.g
	g.derive = d
	e.slotOf = make([]int32, d.slots())
	bound := int(d.extra) * d.base.NumStates()
	e.slots = make([]int32, 0, bound)
	g.off = make([]int32, 1, bound+1)
	g.parentState = make([]int32, 0, bound)
	g.parentRule = make([]int32, 0, bound)
	if _, err := e.internSlot(d.initSlot, -1, -1); err != nil {
		e.endExplore(nil, err)
		return nil, err
	}
	e.lo, e.hi = 0, 1
	return e, nil
}

// deriveLevel expands the frontier [lo, hi) from the base rows: in id
// order, each state's base edges in rule order, skipping pruned rules
// and guards the appended values reject. Fresh successors are interned
// as they are met, and each state's kept edges become its row, written
// into room reserved for its whole base row.
func (e *levelExplorer) deriveLevel() error {
	g, d := e.g, e.g.derive
	for id := e.lo; id < e.hi; id++ {
		baseRow, x := d.row(e.slots[id])
		row, err := g.reserveRow(len(baseRow))
		if err != nil {
			return err
		}
		for _, be := range baseRow {
			ed := d.edge(be, x)
			if ed.rule < 0 {
				continue
			}
			to := e.slotOf[ed.to] - 1
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
	g := e.g
	d := g.derive
	s, x := d.base.StateAt(slot>>d.shift), slot&d.mask
	e.scratch = append(append(e.scratch[:0], s...), d.values[x*d.width:][:d.width]...)
	id, err := g.arena.append(e.scratch)
	if err != nil {
		return -1, err
	}
	g.parentState = append(g.parentState, parent)
	g.parentRule = append(g.parentRule, rule)
	e.slotOf[slot] = id + 1
	e.slots = append(e.slots, slot)
	return id, nil
}
