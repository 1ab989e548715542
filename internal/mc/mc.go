// Package mc is the in-process symbolic model checker standing in for
// nuXmv: explicit-state reachability over the ts.System guarded-command
// IR. It supports three property classes, which together cover the
// paper's 62 properties:
//
//   - Invariant (AG p): a state predicate holds on every reachable state;
//   - NeverFires: safety over events — no reachable transition fires a
//     rule matching a pattern (used for "the UE never accepts a replayed
//     / plaintext / stale message" properties);
//   - Response (AG (trigger -> AF goal)): liveness — after a trigger
//     event, a goal event eventually happens on every path (used for
//     "the procedure completes" properties). Violations are reported as
//     lasso counterexamples (a path to a goal-free cycle or deadlock).
//
// Counterexamples carry the fired rules and their analysis tags so the
// CEGAR loop can hand adversary steps to the cryptographic protocol
// verifier.
package mc

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"prochecker/internal/ts"
)

// DefaultMaxStates bounds exploration; the threat-composed NAS models
// stay far below this.
const DefaultMaxStates = 2_000_000

// Property is anything the checker can verify.
type Property interface {
	Name() string
	kind() string
}

// Invariant asserts AG Holds.
type Invariant struct {
	PropName string
	Holds    ts.Cond
}

// Name implements Property.
func (p Invariant) Name() string { return p.PropName }
func (p Invariant) kind() string { return "invariant" }

// NeverFires asserts that no reachable transition fires a rule whose
// name matches.
type NeverFires struct {
	PropName string
	Match    func(ruleName string) bool
}

// Name implements Property.
func (p NeverFires) Name() string { return p.PropName }
func (p NeverFires) kind() string { return "never-fires" }

// Response asserts AG (trigger -> AF goal) over events: once a rule
// matching Trigger fires, some rule matching Goal must eventually fire on
// every continuation. A state condition may serve as goal instead.
type Response struct {
	PropName string
	Trigger  func(ruleName string) bool
	Goal     func(ruleName string) bool
	// GoalState, when non-nil, also discharges the obligation as soon as
	// a state satisfying it is reached.
	GoalState ts.Cond
}

// Name implements Property.
func (p Response) Name() string { return p.PropName }
func (p Response) kind() string { return "response" }

// Step is one transition of a counterexample.
type Step struct {
	Rule string
	// Tags is the fired rule's analysis metadata.
	Tags map[string]string
	// After is the state assignment after firing.
	After map[string]string
}

// Trace is a counterexample: a finite path, optionally closing into a
// lasso (LoopStart >= 0 indexes the step the suffix loops back to; -1
// for plain safety violations; LoopStart == len(Steps) marks a deadlock
// lasso, i.e. the trace ends in a state with no successors).
type Trace struct {
	Initial   map[string]string
	Steps     []Step
	LoopStart int
}

// String renders the trace compactly.
func (t *Trace) String() string {
	var b strings.Builder
	for i, s := range t.Steps {
		if t.LoopStart == i {
			b.WriteString("-- loop starts here --\n")
		}
		fmt.Fprintf(&b, "%2d. %s\n", i+1, s.Rule)
	}
	if t.LoopStart == len(t.Steps) && len(t.Steps) > 0 {
		b.WriteString("-- deadlock --\n")
	}
	return b.String()
}

// RuleNames lists the fired rules in order.
func (t *Trace) RuleNames() []string {
	out := make([]string, len(t.Steps))
	for i, s := range t.Steps {
		out[i] = s.Rule
	}
	return out
}

// Result is a verification outcome.
type Result struct {
	Property       string
	Kind           string
	Verified       bool
	Counterexample *Trace
	StatesExplored int
	// Truncated marks exploration that hit Options.MaxStates; Verified
	// is false then even without a counterexample (unknown).
	Truncated bool
	// Vacuous marks a property CheckAll discharged statically: its
	// trigger matches no statically-fireable rule, so it holds without
	// exploration (Verified is true, StatesExplored stays zero).
	Vacuous bool
	// VacuityWitness is the static argument recorded in place of a
	// trace when Vacuous is set.
	VacuityWitness string
}

// Options tunes the checker.
type Options struct {
	MaxStates int
	// Workers bounds the exploration worker pool and the property-level
	// parallelism of CheckAll and of the report.Evaluator catalogue
	// pool; 0 means runtime.GOMAXPROCS(0).
	Workers int

	// SnapshotDir, when non-empty, checkpoints exploration at every
	// level boundary into CRC-checksummed snapshot files there and
	// resumes from the newest valid snapshot of the same system on the
	// next build.
	SnapshotDir string
	// NoVacuityPrune disables the static vacuity pre-pass in CheckAll:
	// every property is explored even when its trigger is statically
	// unreachable. The escape hatch for auditing the pruner.
	NoVacuityPrune bool
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return DefaultMaxStates
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Check verifies one property on the system using the shared-frontier
// engine: the reachability graph is explored once per system generation
// and cached, so repeated checks (the CEGAR loop, a catalogue run)
// discharge on the cached graph instead of re-exploring. Results are
// byte-identical to CheckSequential's, including counterexample traces.
func Check(sys *ts.System, prop Property, opts Options) Result {
	res, _ := DefaultEngine.CheckContext(context.Background(), sys, prop, opts)
	return res
}

// CheckContext is Check with cancellation and a typed budget error: an
// exploration that hits Options.MaxStates returns the truncated Result
// together with an error wrapping resilience.ErrBudgetExhausted instead
// of a silent incomplete verdict.
func CheckContext(ctx context.Context, sys *ts.System, prop Property, opts Options) (Result, error) {
	return DefaultEngine.CheckContext(ctx, sys, prop, opts)
}

// CheckSourced is CheckContext that also reports where the graph came
// from: built by this check, a hit on the system's own cached graph, or
// shared from a structurally identical system.
func CheckSourced(ctx context.Context, sys *ts.System, prop Property, opts Options) (Result, GraphSource, error) {
	return DefaultEngine.CheckSourced(ctx, sys, prop, opts)
}

// CheckSequential verifies one property with the original per-property
// exploration: a fresh explicit-state BFS per call, no sharing, no
// cache. It is the reference implementation the shared-frontier engine
// is differentially tested against, and the baseline the BENCH_mc
// series compares with.
func CheckSequential(sys *ts.System, prop Property, opts Options) Result {
	switch p := prop.(type) {
	case Invariant:
		return checkInvariant(sys, p, opts)
	case NeverFires:
		return checkNeverFires(sys, p, opts)
	case Response:
		return checkResponse(sys, p, opts)
	default:
		return Result{Property: prop.Name(), Kind: prop.kind(), Verified: false}
	}
}

// exploration bookkeeping for trace reconstruction.
type explorer struct {
	sys    *ts.System
	ids    map[string]int
	states []ts.State
	// parent[i] = (state id, rule index in sys.Rules()) that first
	// reached state i; -1 for the initial state.
	parentState []int
	parentRule  []string
}

func newExplorer(sys *ts.System) *explorer {
	return &explorer{sys: sys, ids: make(map[string]int)}
}

func (e *explorer) intern(s ts.State, fromID int, rule string) (int, bool) {
	key := s.Key()
	if id, ok := e.ids[key]; ok {
		return id, false
	}
	id := len(e.states)
	e.ids[key] = id
	e.states = append(e.states, s)
	e.parentState = append(e.parentState, fromID)
	e.parentRule = append(e.parentRule, rule)
	return id, true
}

// pathTo reconstructs the rule path from the initial state to id.
func (e *explorer) pathTo(id int) []string {
	var rev []string
	for cur := id; e.parentState[cur] >= 0 || e.parentRule[cur] != ""; cur = e.parentState[cur] {
		rev = append(rev, e.parentRule[cur])
		if e.parentState[cur] < 0 {
			break
		}
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// buildTrace converts a rule path into a Trace with state snapshots.
func buildTrace(sys *ts.System, rulePath []string, loopStart int) *Trace {
	cur := sys.InitialState()
	tr := &Trace{Initial: sys.Assignments(cur), LoopStart: loopStart}
	for _, name := range rulePath {
		r, ok := sys.RuleByName(name)
		if !ok {
			continue
		}
		cur = sys.Apply(r, cur)
		tr.Steps = append(tr.Steps, Step{Rule: name, Tags: r.Tags, After: sys.Assignments(cur)})
	}
	return tr
}

func checkInvariant(sys *ts.System, p Invariant, opts Options) Result {
	res := Result{Property: p.PropName, Kind: "invariant"}
	rs, err := sys.CompileRules()
	if err != nil {
		return res
	}
	rules := rs.Rules
	holds, err := sys.CompileCond(p.Holds)
	if err != nil {
		return res
	}
	e := newExplorer(sys)
	init := sys.InitialState()
	initID, _ := e.intern(init, -1, "")
	if !holds(init) {
		res.Counterexample = buildTrace(sys, nil, -1)
		return res
	}
	queue := []int{initID}
	for len(queue) > 0 {
		if len(e.states) > opts.maxStates() {
			res.Truncated = true
			res.StatesExplored = len(e.states)
			return res
		}
		id := queue[0]
		queue = queue[1:]
		cur := e.states[id]
		for ri := range rules {
			r := &rules[ri]
			if !r.Enabled(cur) {
				continue
			}
			next := r.Apply(cur)
			nid, fresh := e.intern(next, id, r.Name)
			if !fresh {
				continue
			}
			if !holds(next) {
				res.StatesExplored = len(e.states)
				res.Counterexample = buildTrace(sys, e.pathTo(nid), -1)
				return res
			}
			queue = append(queue, nid)
		}
	}
	res.StatesExplored = len(e.states)
	res.Verified = true
	return res
}

func checkNeverFires(sys *ts.System, p NeverFires, opts Options) Result {
	res := Result{Property: p.PropName, Kind: "never-fires"}
	rs, err := sys.CompileRules()
	if err != nil {
		return res
	}
	rules := rs.Rules
	// Precompute the match verdict per rule: the pattern is a pure
	// function of the rule name.
	matched := make([]bool, len(rules))
	for i := range rules {
		matched[i] = p.Match(rules[i].Name)
	}
	e := newExplorer(sys)
	init := sys.InitialState()
	initID, _ := e.intern(init, -1, "")
	queue := []int{initID}
	for len(queue) > 0 {
		if len(e.states) > opts.maxStates() {
			res.Truncated = true
			res.StatesExplored = len(e.states)
			return res
		}
		id := queue[0]
		queue = queue[1:]
		cur := e.states[id]
		for ri := range rules {
			r := &rules[ri]
			if !r.Enabled(cur) {
				continue
			}
			if matched[ri] {
				res.StatesExplored = len(e.states)
				path := append(e.pathTo(id), r.Name)
				res.Counterexample = buildTrace(sys, path, -1)
				return res
			}
			nid, fresh := e.intern(r.Apply(cur), id, r.Name)
			if fresh {
				queue = append(queue, nid)
			}
		}
	}
	res.StatesExplored = len(e.states)
	res.Verified = true
	return res
}

// checkResponse explores the product of the state space with a pending
// bit (obligation outstanding). A violation is a reachable pending node
// that can reach a pending cycle or a pending deadlock — a run where the
// goal never happens.
func checkResponse(sys *ts.System, p Response, opts Options) Result {
	res := Result{Property: p.PropName, Kind: "response"}

	rs, err := sys.CompileRules()
	if err != nil {
		return res
	}
	rules := rs.Rules
	trigger := make([]bool, len(rules))
	goal := make([]bool, len(rules))
	for i := range rules {
		trigger[i] = p.Trigger(rules[i].Name)
		if p.Goal != nil {
			goal[i] = p.Goal(rules[i].Name)
		}
	}
	var goalStateFn func(ts.State) bool
	if p.GoalState != nil {
		f, err := sys.CompileCond(p.GoalState)
		if err != nil {
			return res
		}
		goalStateFn = f
	}

	type node struct {
		sid     int
		pending bool
	}
	e := newExplorer(sys)
	init := sys.InitialState()
	initSID, _ := e.intern(init, -1, "")

	// Product exploration.
	type edge struct {
		to   int
		rule string
	}
	nodeIDs := map[node]int{}
	var nodes []node
	var adj [][]edge
	parent := []int{-1}
	parentRule := []string{""}

	internNode := func(n node, from int, rule string) (int, bool) {
		if id, ok := nodeIDs[n]; ok {
			return id, false
		}
		id := len(nodes)
		nodeIDs[n] = id
		nodes = append(nodes, n)
		adj = append(adj, nil)
		if id > 0 {
			parent = append(parent, from)
			parentRule = append(parentRule, rule)
		}
		return id, true
	}

	goalState := func(s ts.State) bool {
		return goalStateFn != nil && goalStateFn(s)
	}

	start := node{sid: initSID, pending: false}
	startID, _ := internNode(start, -1, "")
	queue := []int{startID}
	for len(queue) > 0 {
		if len(nodes) > opts.maxStates() {
			res.Truncated = true
			res.StatesExplored = len(nodes)
			return res
		}
		id := queue[0]
		queue = queue[1:]
		n := nodes[id]
		st := e.states[n.sid]
		for ri := range rules {
			r := &rules[ri]
			if !r.Enabled(st) {
				continue
			}
			next := r.Apply(st)
			pending := n.pending
			if trigger[ri] {
				pending = true
			}
			if goal[ri] {
				pending = false
			}
			if pending && goalState(next) {
				pending = false
			}
			sid, _ := e.intern(next, n.sid, r.Name)
			nid, fresh := internNode(node{sid: sid, pending: pending}, id, r.Name)
			adj[id] = append(adj[id], edge{to: nid, rule: r.Name})
			if fresh {
				queue = append(queue, nid)
			}
		}
	}
	res.StatesExplored = len(nodes)

	// Search the pending subgraph for a cycle or deadlock.
	// colour: 0 unvisited, 1 on stack, 2 done.
	colour := make([]uint8, len(nodes))
	type frame struct {
		id   int
		next int
	}
	for rootID, root := range nodes {
		if !root.pending || colour[rootID] != 0 {
			continue
		}
		stack := []frame{{id: rootID}}
		colour[rootID] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			// Deadlock: pending node with no successors at all.
			if len(adj[f.id]) == 0 {
				path := nodePath(parent, parentRule, f.id)
				res.Counterexample = buildTrace(sys, path, len(path))
				return res
			}
			advanced := false
			for f.next < len(adj[f.id]) {
				ed := adj[f.id][f.next]
				f.next++
				if !nodes[ed.to].pending {
					continue // leaving the pending region discharges along this edge
				}
				switch colour[ed.to] {
				case 1:
					// Pending cycle found: build lasso.
					path := nodePath(parent, parentRule, f.id)
					loopEntry := indexOfNode(parent, parentRule, ed.to, path)
					full := append(path, ed.rule)
					res.Counterexample = buildTrace(sys, full, loopEntry)
					return res
				case 0:
					colour[ed.to] = 1
					stack = append(stack, frame{id: ed.to})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				colour[f.id] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	res.Verified = true
	return res
}

// nodePath reconstructs the rule path from the product start node to id.
func nodePath(parent []int, parentRule []string, id int) []string {
	var rev []string
	for cur := id; cur > 0 && parent[cur] >= 0; cur = parent[cur] {
		rev = append(rev, parentRule[cur])
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// indexOfNode finds where the loop-target node's path length sits within
// the counterexample path, approximating the lasso entry point.
func indexOfNode(parent []int, parentRule []string, id int, path []string) int {
	depth := len(nodePath(parent, parentRule, id))
	if depth > len(path) {
		return len(path)
	}
	return depth
}

// CheckAll verifies a list of properties concurrently on the shared
// reachability graph, returning results in property order.
func CheckAll(sys *ts.System, props []Property, opts Options) []Result {
	out, _ := DefaultEngine.CheckAllContext(context.Background(), sys, props, opts)
	return out
}

// CheckAllContext is CheckAll with cancellation and aggregated typed
// errors (budget exhaustion per property, a single cancellation entry
// when the catalogue walk is cut short).
func CheckAllContext(ctx context.Context, sys *ts.System, props []Property, opts Options) ([]Result, error) {
	return DefaultEngine.CheckAllContext(ctx, sys, props, opts)
}

// CheckAllSequential is the pre-shared-frontier batch path: one fresh
// exploration per property, strictly in order. Kept as the differential
// and benchmark baseline.
func CheckAllSequential(sys *ts.System, props []Property, opts Options) []Result {
	out := make([]Result, 0, len(props))
	for _, p := range props {
		out = append(out, CheckSequential(sys, p, opts))
	}
	return out
}
