package mc

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"prochecker/internal/obs"
	"prochecker/internal/ts"
)

// FuzzExploreMatchesSequential checks the level explorer against the
// sequential reference on generated systems. The fuzz input picks the
// seed and scales the variable and rule counts, so larger inputs grow
// frontiers wider than 2*workers and exercise the parallel expansion.
// A non-zero mix rewrites guards out of the Eq-only fragment (Neq, In,
// Or, Not, True, out-of-domain values), so both the lowered guard
// bitsets and the residual closures run; wide pads the system with
// unused variables past denseRankLimit, so every mode below explores
// with the hash index instead of the dense rank table.
// Every exploration mode — one or four workers, two goroutines checking
// the properties of the system and of a refined clone against one
// engine while lazily built graphs grow under them (first one
// goroutine per system, so the clone derives its graph while the other
// extends the partial base, then both in random orders), and a clone
// served the graph another clone built before refining itself —
// must agree with CheckSequential
// on the verdict, the states explored, truncation and the
// counterexample trace, for an invariant, a never-fires and three response properties (a goal rule, a goal state
// on a random variable, and one rule that is both trigger and goal),
// and every counterexample must pass Certify. The refined clone must be
// served by derivation from the cached graph exactly when none of its
// guards is residual, and its derived graph, complete and truncated,
// must equal buildGraph's. A product-budget mode checks the response
// properties with a state budget between the graph's size N and 2N,
// so the graph completes and only a response
// search that discovers more product nodes than the budget can run out
// of it. Whenever a response property verifies, its StatesExplored
// must be the whole reachable product, as productSize counts it.
// Every property the static vacuity pre-pass (Vacuous) flags must be
// one CheckSequential verifies.
func FuzzExploreMatchesSequential(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(3), uint8(2), uint8(30), uint8(0), false)
	f.Add(int64(6), uint8(4), uint8(60), uint8(0), false)
	f.Add(int64(5), uint8(6), uint8(60), uint8(0), false)
	f.Add(int64(4), uint8(0), uint8(0), uint8(0), false) // the pre-pass prunes never and resp
	f.Add(int64(3), uint8(2), uint8(30), uint8(1), false)
	f.Add(int64(6), uint8(4), uint8(60), uint8(7), false)
	f.Add(int64(3), uint8(2), uint8(30), uint8(0), true)
	f.Add(int64(5), uint8(3), uint8(40), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, extraVars, extraRules, mix uint8, wide bool) {
		sys := randomSystemMix(t, seed, int(extraVars%7), int(extraRules%61), mix)
		if wide {
			padWide(t, sys)
		}
		rng := rand.New(rand.NewSource(seed))
		v := sys.Vars()[rng.Intn(len(sys.Vars()))]
		w := sys.Vars()[rng.Intn(len(sys.Vars()))]
		props := []Property{
			Invariant{PropName: "inv", Holds: ts.Neq{Var: v.Name, Value: v.Domain[rng.Intn(len(v.Domain))]}},
			NeverFires{PropName: "never", Match: func(n string) bool { return n == "r1" }},
			Response{
				PropName: "resp",
				Trigger:  func(n string) bool { return n == "r0" },
				Goal:     func(n string) bool { return n == "r2" },
			},
			Response{
				PropName:  "resp-goal-state",
				Trigger:   func(n string) bool { return n == "r0" },
				GoalState: ts.Eq{Var: w.Name, Value: w.Domain[rng.Intn(len(w.Domain))]},
			},
			Response{
				PropName: "resp-same-rule",
				Trigger:  func(n string) bool { return n == "r0" || n == "r1" },
				Goal:     func(n string) bool { return n == "r1" },
			},
		}
		sequential := func(sys *ts.System) []Result {
			out := make([]Result, len(props))
			for i, p := range props {
				out[i] = CheckSequential(sys, p, Options{})
			}
			return out
		}
		want := sequential(sys)
		// compare fails unless the engine's result got matches the
		// sequential result w and its counterexample certifies.
		compare := func(mode string, sys *ts.System, p Property, got, w Result) {
			t.Helper()
			if got.Verified != w.Verified || got.StatesExplored != w.StatesExplored || got.Truncated != w.Truncated {
				t.Fatalf("%s %s: engine verified=%v states=%d truncated=%v, sequential verified=%v states=%d truncated=%v",
					mode, p.Name(), got.Verified, got.StatesExplored, got.Truncated, w.Verified, w.StatesExplored, w.Truncated)
			}
			if (got.Counterexample == nil) != (w.Counterexample == nil) {
				t.Fatalf("%s %s: counterexample presence: engine %v, sequential %v",
					mode, p.Name(), got.Counterexample != nil, w.Counterexample != nil)
			}
			if w.Counterexample != nil && !reflect.DeepEqual(got.Counterexample, w.Counterexample) {
				t.Fatalf("%s %s: trace: engine %+v, sequential %+v",
					mode, p.Name(), *got.Counterexample, *w.Counterexample)
			}
			if got.Counterexample != nil {
				if err := Certify(sys, p, got); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
		}
		checkOn := func(mode string, ctx context.Context, engine *Engine, sys *ts.System, want []Result, opts Options) {
			t.Helper()
			for i, p := range props {
				got, err := engine.CheckContext(ctx, sys, p, opts)
				if err != nil {
					t.Fatalf("%s %s: engine error: %v", mode, p.Name(), err)
				}
				compare(mode, sys, p, got, want[i])
				if r, ok := p.(Response); ok && got.Verified {
					if n := productSize(t, sys, r); got.StatesExplored != n {
						t.Fatalf("%s %s: verified over %d product nodes, want the whole product of %d", mode, p.Name(), got.StatesExplored, n)
					}
				}
			}
		}
		// check runs one mode on a fresh engine and confirms the build
		// used the visited set the domain product calls for.
		check := func(mode string, ctx context.Context, opts Options) {
			t.Helper()
			o := obs.FromContext(ctx)
			if o == nil {
				o = obs.New()
				ctx = obs.NewContext(ctx, o)
			}
			checkOn(mode, ctx, NewEngine(), sys, want, opts)
			builds := o.Metrics().Counter("mc.explorations").Value()
			hashed := o.Metrics().Counter("mc.explorations_hashed").Value()
			if builds == 0 || (wide && hashed != builds) || (!wide && hashed != 0) {
				t.Fatalf("%s: %d of %d builds used the hash index, wide=%v", mode, hashed, builds, wide)
			}
		}

		ctx := context.Background()
		check("workers=1", ctx, Options{Workers: 1})
		check("workers=4", ctx, Options{Workers: 4})

		g, err := explore(ctx, sys, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Lazy growth under concurrency: an invariant check leaves sys's
		// graph partial. Then one goroutine checks sys's properties,
		// extending that graph, while the other checks the refined
		// clone's, deriving its graph from the partial one and growing it
		// as the derivation and the response searches need; then both
		// check every property of both systems, each in its own random
		// order, against the same engine.
		refined := sys.Clone()
		refine(t, refined)
		type job struct {
			sys  *ts.System
			p    Property
			want Result
		}
		var own, clone []job
		for i, w := range sequential(refined) {
			own = append(own, job{sys, props[i], want[i]})
			clone = append(clone, job{refined, props[i], w})
		}
		all := append(append([]job{}, own...), clone...)
		shared := NewEngine()
		co := obs.New()
		cctx := obs.NewContext(ctx, co)
		if _, err := shared.CheckContext(cctx, sys, props[0], Options{Workers: 2}); err != nil {
			t.Fatalf("concurrent: %v", err)
		}
		for _, round := range [][2][]job{{own, clone}, {all, all}} {
			var got [2][]Result
			var errs [2][]error
			var wg sync.WaitGroup
			for w, jobs := range round {
				got[w], errs[w] = make([]Result, len(jobs)), make([]error, len(jobs))
				wg.Add(1)
				go func(w int, jobs []job, order []int) {
					defer wg.Done()
					for _, j := range order {
						got[w][j], errs[w][j] = shared.CheckContext(cctx, jobs[j].sys, jobs[j].p, Options{Workers: 2})
					}
				}(w, jobs, rng.Perm(len(jobs)))
			}
			wg.Wait()
			for w, jobs := range round {
				for j, jb := range jobs {
					if errs[w][j] != nil {
						t.Fatalf("concurrent %s: engine error: %v", jb.p.Name(), errs[w][j])
					}
					compare("concurrent", jb.sys, jb.p, got[w][j], jb.want)
				}
			}
		}
		// Unless a residual guard rules derivation out, the clone's graph
		// is derived.
		wantDerived := int64(1)
		if residualGuards(refined) {
			wantDerived = 0
		}
		if derived := co.Metrics().Counter("mc.explorations_derived").Value(); derived != wantDerived {
			t.Fatalf("concurrent: %d derived builds, want %d", derived, wantDerived)
		}

		// Product budget: with MaxStates in [N, 2N] the graph cannot be
		// truncated, so a budget error can only come from a response
		// search that discovers more nodes than the budget before it
		// concludes, and only when the sequential search does too.
		budget := Options{Workers: 4, MaxStates: g.NumStates() + rng.Intn(g.NumStates()+1)}
		budgetEngine := NewEngine()
		for _, p := range props {
			if _, ok := p.(Response); !ok {
				continue
			}
			w := CheckSequential(sys, p, budget)
			got, err := budgetEngine.CheckContext(ctx, sys, p, budget)
			if (err != nil) != w.Truncated || (err != nil && !IsBudgetExhausted(err)) {
				t.Fatalf("product budget %s: engine error %v, sequential truncated=%v", p.Name(), err, w.Truncated)
			}
			compare("product budget", sys, p, got, w)
		}

		// Graph reuse: clone a builds the graph, then is refined the way
		// CEGAR refines (a monitor variable, strengthened guards, new
		// tags, a pruned rule); clone b must still get its own verdicts
		// and traces from the graph built for a.
		engine := NewEngine()
		a, b := sys.Clone(), sys.Clone()
		if _, src, err := engine.CheckSourced(ctx, a, props[0], Options{Workers: 4}); err != nil || src != GraphBuilt {
			t.Fatalf("reuse: first check of clone a: source %q, error %v", src, err)
		}
		refine(t, a)
		if _, src, _ := engine.CheckSourced(ctx, b, props[0], Options{Workers: 4}); src != GraphShared {
			t.Fatalf("reuse: clone b got a %q graph, want %q", src, GraphShared)
		}
		checkOn("reuse", ctx, engine, b, want, Options{Workers: 4})
		ro := obs.New()
		checkOn("refined", obs.NewContext(ctx, ro), engine, a, sequential(a), Options{Workers: 4})
		// The refinement derives a's graph from the cached one unless a
		// guard is residual; derived graphs, complete and truncated,
		// equal the explored ones.
		residual := residualGuards(a)
		wantDerived = 1
		if residual {
			wantDerived = 0
		}
		if builds, derived := ro.Metrics().Counter("mc.explorations").Value(), ro.Metrics().Counter("mc.explorations_derived").Value(); builds != 1 || derived != wantDerived {
			t.Fatalf("refined: %d builds, %d derived; want 1 build, %d derived (residual guards: %v)", builds, derived, wantDerived, residual)
		}
		if derives := deriveMatchesExplore(t, g, a); derives == residual {
			t.Fatalf("refined: derives from the base graph = %v with residual guards = %v", derives, residual)
		}

		// Vacuity pruning: every property the static pre-pass flags is
		// one the sequential checker verifies.
		reach := StaticReach(sys)
		for i, p := range props {
			if vac, _ := Vacuous(reach, sys, p); vac && !want[i].Verified {
				t.Fatalf("vacuity %s: flagged vacuous, but the sequential checker finds it violated", p.Name())
			}
		}
	})
}

// productSize counts the reachable nodes of the product of sys with
// p's pending bit by a plain BFS over states keyed by their bytes,
// apart from both checkers: the trigger sets the bit, and the goal rule
// or a goal state clears it.
func productSize(t *testing.T, sys *ts.System, p Response) int {
	t.Helper()
	rs, err := sys.CompileRules()
	if err != nil {
		t.Fatal(err)
	}
	goalState := func(ts.State) bool { return false }
	if p.GoalState != nil {
		if goalState, err = sys.CompileCond(p.GoalState); err != nil {
			t.Fatal(err)
		}
	}
	type node struct {
		state   string
		pending bool
	}
	init := sys.InitialState()
	seen := map[node]bool{{string(init), false}: true}
	queue := []node{{string(init), false}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, r := range rs.Rules {
			if !r.Enabled(ts.State(cur.state)) {
				continue
			}
			next := r.Apply(ts.State(cur.state))
			pending := (cur.pending || p.Trigger(r.Name)) && !(p.Goal != nil && p.Goal(r.Name)) && !goalState(next)
			if n := (node{string(next), pending}); !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return len(seen)
}

// refine edits sys in place as the CEGAR refinements do: it adds a
// monitor variable set by r0, guards r2 on it, retags every rule and
// prunes r1.
func refine(t *testing.T, sys *ts.System) {
	t.Helper()
	if err := sys.AddVar("seen", "0", "1"); err != nil {
		t.Fatal(err)
	}
	sys.MapRules(func(r ts.Rule) ts.Rule {
		switch r.Name {
		case "r0":
			r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: "seen", Value: "1"})
		case "r2":
			r.Guard = ts.And{r.Guard, ts.Eq{Var: "seen", Value: "1"}}
		}
		r.Tags = map[string]string{"refined": r.Name}
		return r
	})
	sys.RemoveRule("r1")
}
