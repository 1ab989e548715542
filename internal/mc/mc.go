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
	// StatesExplored is what the check explored: for an invariant or
	// never-fires property the states interned, for a response property
	// the product nodes its lasso search discovered, which is the whole
	// reachable product when the property holds.
	StatesExplored int
	// Truncated marks exploration that hit Options.MaxStates; Verified
	// is false then even without a counterexample (unknown).
	Truncated bool
}

// Options tunes the checker.
type Options struct {
	MaxStates int
	// Workers bounds the exploration worker pool and the property-level
	// parallelism of the report.Evaluator catalogue pool; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int

	// SnapshotDir, when non-empty, checkpoints exploration at every
	// level boundary into CRC-checksummed snapshot files there and
	// resumes from the newest valid snapshot of the same system on the
	// next build.
	SnapshotDir string
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

// checkResponse searches the product of the state space with a pending
// bit (obligation outstanding). A violation is a reachable pending node
// that can reach a pending cycle or a pending deadlock — a run where the
// goal never happens. The product BFS runs lazily, only as far as the
// search needs it: for the next pending root in BFS order, or for the
// BFS path to a counterexample node. StatesExplored is the number of
// nodes the BFS discovered, the whole product when the property holds.
// The check is truncated when the search has discovered more nodes than
// the budget by the time it concludes, and when the system has more
// reachable states than the budget (its graph would be truncated), in
// which case the BFS runs to the budget and no search is made.
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
	goalState := func(s ts.State) bool {
		return goalStateFn != nil && goalStateFn(s)
	}
	max := opts.maxStates()

	type node struct {
		sid     int
		pending bool
	}
	type edge struct {
		to   node
		rule string
	}
	e := newExplorer(sys)
	initSID, _ := e.intern(sys.InitialState(), -1, "")

	// succ lists n's product successors in rule order, interning the
	// states they reach.
	succ := func(n node) []edge {
		var out []edge
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
			out = append(out, edge{to: node{sid: sid, pending: pending}, rule: r.Name})
		}
		return out
	}

	// The product BFS: order lists the nodes discovered, ids their
	// positions, and parent and parentRule the BFS tree.
	start := node{sid: initSID}
	ids := map[node]int{start: 0}
	order := []node{start}
	parent := []int{-1}
	parentRule := []string{""}
	head := 0
	expand := func() bool {
		if head == len(order) || len(order) > max {
			return false
		}
		for _, ed := range succ(order[head]) {
			if _, ok := ids[ed.to]; ok {
				continue
			}
			ids[ed.to] = len(order)
			order = append(order, ed.to)
			parent = append(parent, head)
			parentRule = append(parentRule, ed.rule)
		}
		head++
		return true
	}
	// index runs the BFS until it discovers n; -1 when the budget stops
	// it first.
	index := func(n node) int {
		for {
			if id, ok := ids[n]; ok {
				return id
			}
			if !expand() {
				return -1
			}
		}
	}
	truncated := func() Result {
		res.Truncated = true
		res.StatesExplored = len(order)
		return res
	}
	if checkInvariant(sys, Invariant{PropName: p.PropName, Holds: ts.True{}}, opts).Truncated {
		for expand() {
		}
		return truncated()
	}

	// Search the pending subgraph for a cycle or deadlock, from each
	// pending root in BFS order. colour: 0 unvisited, 1 on stack, 2 done.
	colour := map[node]uint8{}
	type frame struct {
		n    node
		adj  []edge
		next int
	}
	for ri := 0; ; ri++ {
		for ri == len(order) && expand() {
		}
		if ri == len(order) {
			if head < len(order) || len(order) > max {
				return truncated()
			}
			break
		}
		root := order[ri]
		if !root.pending || colour[root] != 0 {
			continue
		}
		stack := []frame{{n: root, adj: succ(root)}}
		colour[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			// Deadlock: pending node with no successors at all.
			if len(f.adj) == 0 {
				id := index(f.n)
				if id < 0 || len(order) > max {
					return truncated()
				}
				path := nodePath(parent, parentRule, id)
				res.StatesExplored = len(order)
				res.Counterexample = buildTrace(sys, path, len(path))
				return res
			}
			advanced := false
			for f.next < len(f.adj) {
				ed := f.adj[f.next]
				f.next++
				if !ed.to.pending {
					continue // leaving the pending region discharges along this edge
				}
				switch colour[ed.to] {
				case 1:
					// Pending cycle found: build lasso.
					id := index(f.n)
					if id < 0 {
						return truncated()
					}
					path := nodePath(parent, parentRule, id)
					to := index(ed.to)
					if to < 0 || len(order) > max {
						return truncated()
					}
					loopEntry := indexOfNode(parent, parentRule, to, path)
					full := append(path, ed.rule)
					res.StatesExplored = len(order)
					res.Counterexample = buildTrace(sys, full, loopEntry)
					return res
				case 0:
					colour[ed.to] = 1
					stack = append(stack, frame{n: ed.to, adj: succ(ed.to)})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				colour[f.n] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	res.StatesExplored = len(order)
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
