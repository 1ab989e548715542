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
// but only from a complete base: the engine completes a cached graph
// that passes the structural checks before sizing a derivation from it,
// so the bound, the base choice and the derived ids are those of the
// finished base.
package mc

import (
	"bytes"
	"context"
	"slices"
	"strconv"

	"prochecker/internal/ts"
)

// derivation maps a target system onto a complete base graph. A target
// state is slot baseID*extra + x, where x ranks the values of the
// appended variables (mixed radix, last variable fastest).
type derivation struct {
	base *StateGraph
	// extra is the number of assignments of the width appended
	// variables; values[x*width:][:width] are extra rank x's values.
	extra, width int32
	values       []uint8
	// ruleOf maps each base rule to its target rule, -1 when pruned;
	// step[j*extra+x] is the extra rank target rule j leads to from
	// extra rank x, -1 when its guard rejects x.
	ruleOf []int32
	step   []int32
	// initSlot is the target's initial state, base state 0.
	initSlot int32
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

	d.ruleOf = make([]int32, len(base.Rules))
	for i := range d.ruleOf {
		d.ruleOf[i] = -1
	}
	for j, i := range kept {
		d.ruleOf[i] = int32(j)
	}
	d.step = make([]int32, int32(len(rules.Rules))*d.extra)
	cur, next := make(ts.State, len(vars)), make(ts.State, len(vars))
	for j := range rules.Rules {
		for x := int32(0); x < d.extra; x++ {
			vals := d.values[x*d.width:][:d.width]
			at := int32(j)*d.extra + x
			d.step[at] = -1
			admitted := true
			for k, val := range vals {
				admitted = admitted && rules.Admits(j, old+k, val)
			}
			if !admitted {
				continue
			}
			copy(cur[old:], vals)
			rules.Rules[j].ApplyInto(next, cur)
			d.step[at] = rank(next[old:])
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
// The slot table and the per-state arrays are allocated once, at the
// derivation's bound, and left as the allocator returns them: slotOf
// holds id+1 with 0 for a slot not yet met, and the other arrays only
// grow by append. Memory fresh from the operating system becomes
// resident only where the build writes it, so a derivation that stops
// early holds little more than what it has built, not its bound.
func startDerive(ctx context.Context, sys *ts.System, rules *ts.RuleSet, d *derivation, opts Options) (*levelExplorer, error) {
	opts.SnapshotDir = ""
	e := newLevelExplorer(ctx, sys, rules, opts, "derived")
	e.span.SetAttr("base_states", strconv.Itoa(d.base.NumStates()))
	e.derive = d
	bound := int(d.extra) * d.base.NumStates()
	e.slotOf = make([]int32, bound)
	e.slots = make([]int32, 0, bound)
	g := e.g
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
	g, d := e.g, e.derive
	base, extra := d.base, d.extra
	for id := e.lo; id < e.hi; id++ {
		slot := e.slots[id]
		x := slot % extra
		baseRow := base.row(slot / extra)
		row, err := g.reserveRow(len(baseRow))
		if err != nil {
			return err
		}
		for _, ed := range baseRow {
			j := d.ruleOf[ed.rule]
			if j < 0 {
				continue
			}
			nx := d.step[j*extra+x]
			if nx < 0 {
				continue
			}
			next := ed.to*extra + nx
			to := e.slotOf[next] - 1
			if to < 0 {
				if to, err = e.internSlot(next, id, j); err != nil {
					return err
				}
			}
			row = append(row, graphEdge{rule: j, to: to})
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
	g, d := e.g, e.derive
	s, x := d.base.StateAt(slot/d.extra), slot%d.extra
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
