package mc

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// odometer builds a two-digit base-k counter: one long chain of k*k
// states, one per BFS level, so its exploration takes long enough to be
// cancelled mid-build.
func odometer(t *testing.T, k int) *ts.System {
	t.Helper()
	sys := ts.NewSystem("odometer")
	digits := make([]string, k)
	for i := range digits {
		digits[i] = fmt.Sprintf("d%d", i)
	}
	for _, v := range []string{"lo", "hi"} {
		if err := sys.AddVar(v, digits...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < k; i++ {
		rules := []ts.Rule{
			{
				Name:    "lo" + digits[i],
				Guard:   ts.Eq{Var: "lo", Value: digits[i]},
				Assigns: []ts.Assign{{Var: "lo", Value: digits[i+1]}},
			},
			{
				Name:    "carry" + digits[i],
				Guard:   ts.And{ts.Eq{Var: "lo", Value: digits[k-1]}, ts.Eq{Var: "hi", Value: digits[i]}},
				Assigns: []ts.Assign{{Var: "lo", Value: digits[0]}, {Var: "hi", Value: digits[i+1]}},
			},
		}
		for _, r := range rules {
			if err := sys.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys
}

// waitFor polls the engine's state until cond holds.
func waitFor(t *testing.T, e *Engine, what string, cond func(builds, waiting int) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		e.mu.Lock()
		builds, waiting := e.builds, e.waiting
		e.mu.Unlock()
		if cond(builds, waiting) {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// heldContext is a cancellable context whose Err blocks until release
// is closed, so a build polling it between levels stays in flight for
// as long as a test needs, however fast the host explores.
type heldContext struct {
	context.Context
	release chan struct{}
}

func (c heldContext) Err() error {
	<-c.release
	return c.Context.Err()
}

// TestWaiterRebuildsAfterBuilderCancelled: a check waiting on another
// caller's in-flight build gets a graph of its own when that caller is
// cancelled, instead of the builder's cancellation — for a waiter on the
// same system and for one on a structurally identical clone. The
// builder's context holds it at its first level boundary until the
// waiter has joined and the cancellation is in.
func TestWaiterRebuildsAfterBuilderCancelled(t *testing.T) {
	base := odometer(t, 160)
	prop := NeverFires{PropName: "never", Match: func(string) bool { return false }}
	for _, tc := range []struct {
		name   string
		waiter func(*ts.System) *ts.System
	}{
		{"same system", func(s *ts.System) *ts.System { return s }},
		{"same structure", (*ts.System).Clone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := NewEngine()
			sys := base.Clone()
			cancelCtx, cancel := context.WithCancel(context.Background())
			defer cancel()
			builderCtx := heldContext{Context: cancelCtx, release: make(chan struct{})}
			builderErr := make(chan error, 1)
			go func() {
				_, err := engine.CheckContext(builderCtx, sys, prop, Options{Workers: 1})
				builderErr <- err
			}()
			waitFor(t, engine, "the builder to start", func(builds, _ int) bool { return builds == 1 })

			type outcome struct {
				res Result
				src GraphSource
				err error
			}
			waiter := make(chan outcome, 1)
			o := obs.New()
			go func() {
				res, src, err := engine.CheckSourced(obs.NewContext(context.Background(), o), tc.waiter(sys), prop, Options{Workers: 1})
				waiter <- outcome{res, src, err}
			}()
			waitFor(t, engine, "the waiter to join the build", func(_, waiting int) bool { return waiting == 1 })
			cancel()
			close(builderCtx.release)

			if err := <-builderErr; !resilience.Cancelled(err) {
				t.Fatalf("builder: want a cancellation, got %v", err)
			}
			got := <-waiter
			if got.err != nil {
				t.Fatalf("waiter with a live context failed: %v", got.err)
			}
			if want := 160 * 160; !got.res.Verified || got.res.StatesExplored != want {
				t.Fatalf("waiter: verified=%v states=%d, want verified over %d states", got.res.Verified, got.res.StatesExplored, want)
			}
			if got.src != GraphBuilt {
				t.Errorf("waiter: graph source %q after the builder's cancellation, want %q", got.src, GraphBuilt)
			}
			// The waiter's check is one miss, not also a hit: no graph
			// it waited on was ever served.
			if hits, builds, _ := engine.CacheCounters(); hits != 0 || builds != 2 {
				t.Errorf("hits = %d, builds = %d; want 0 hits, 2 builds (cancelled build + waiter's rebuild)", hits, builds)
			}
			reg := o.Metrics()
			for name, want := range map[string]int64{"mc.graph_cache_hits": 0, "mc.graph_cache_shared": 0, "mc.graph_cache_misses": 1} {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("waiter's %s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// taggedSystem is a three-state chain whose rules carry tag who=owner.
func taggedSystem(t *testing.T, owner string) *ts.System {
	t.Helper()
	sys := ts.NewSystem("tagged")
	if err := sys.AddVar("x", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	for _, step := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := sys.AddRule(ts.Rule{
			Name:    "step-" + step[0],
			Guard:   ts.Eq{Var: "x", Value: step[0]},
			Assigns: []ts.Assign{{Var: "x", Value: step[1]}},
			Tags:    map[string]string{"who": owner},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestSharedGraphTracesCarryCallerTags: two systems with identical SMV
// but different rule tags share one graph, and each one's
// counterexample carries its own tags — the tags the CPV validates.
func TestSharedGraphTracesCarryCallerTags(t *testing.T) {
	x, y := taggedSystem(t, "x"), taggedSystem(t, "y")
	if x.SMV() != y.SMV() {
		t.Fatal("test systems must render identical SMV")
	}
	engine := NewEngine()
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	props := []Property{
		NeverFires{PropName: "never", Match: func(n string) bool { return n == "step-b" }},
		Invariant{PropName: "inv", Holds: ts.Neq{Var: "x", Value: "c"}},
		Response{PropName: "resp", Trigger: func(n string) bool { return n == "step-a" }, Goal: func(string) bool { return false }},
	}
	for _, sys := range []*ts.System{x, y} {
		owner := sys.Rules()[0].Tags["who"]
		for i, p := range props {
			res, src, err := engine.CheckSourced(ctx, sys, p, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", owner, p.Name(), err)
			}
			want := GraphHit
			switch {
			case i == 0 && owner == "x":
				want = GraphBuilt
			case i == 0:
				want = GraphShared
			}
			if src != want {
				t.Errorf("%s %s: graph source %q, want %q", owner, p.Name(), src, want)
			}
			if res.Counterexample == nil || len(res.Counterexample.Steps) != 2 {
				t.Fatalf("%s %s: want a two-step counterexample, got %+v", owner, p.Name(), res)
			}
			for _, st := range res.Counterexample.Steps {
				if st.Tags["who"] != owner {
					t.Errorf("%s %s: step %s carries who=%s", owner, p.Name(), st.Rule, st.Tags["who"])
				}
			}
			if seq := CheckSequential(sys, p, Options{}); !reflect.DeepEqual(res.Counterexample, seq.Counterexample) {
				t.Errorf("%s %s: trace differs from the sequential checker's", owner, p.Name())
			}
		}
	}
	shared := o.Metrics().Counter("mc.graph_cache_shared").Value()
	if hits, builds, _ := engine.CacheCounters(); builds != 1 || hits != len(props)*2-1 || shared != 1 {
		t.Errorf("hits=%d builds=%d shared=%d, want %d/1/1", hits, builds, shared, len(props)*2-1)
	}
}

// heldGraphs lists the distinct graphs the engine's cache holds.
func heldGraphs(e *Engine) map[*graphBuild]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	held := make(map[*graphBuild]bool)
	for _, ent := range e.cache {
		held[ent.build] = true
	}
	return held
}

// TestRetentionFollowsLiveGenerations: once a clone is checked at its
// next generation, the engine no longer holds a graph that no live
// (system, generation) maps to — structural sharing must not keep every
// intermediate refinement's graph alive.
func TestRetentionFollowsLiveGenerations(t *testing.T) {
	base := randomSystem(t, 3, 2, 30)
	a, b := base.Clone(), base.Clone()
	engine := NewEngine()
	prop := NeverFires{PropName: "never", Match: func(string) bool { return false }}
	check := func(sys *ts.System, want GraphSource) *graphBuild {
		t.Helper()
		if _, src, err := engine.CheckSourced(context.Background(), sys, prop, Options{}); err != nil || src != want {
			t.Fatalf("graph source %q (error %v), want %q", src, err, want)
		}
		g, _, err := engine.graphFor(context.Background(), sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	assertHeld := func(stage string, want ...*graphBuild) {
		t.Helper()
		held := heldGraphs(engine)
		if len(held) != len(want) {
			t.Fatalf("%s: engine holds %d graphs, want %d", stage, len(held), len(want))
		}
		for _, g := range want {
			if !held[g] {
				t.Fatalf("%s: a live generation's graph is not held", stage)
			}
		}
	}

	g1 := check(a, GraphBuilt)
	if check(b, GraphShared) != g1 {
		t.Fatal("clone b was not served clone a's graph")
	}
	assertHeld("both clones unrefined", g1)

	refine(t, a)
	g2 := check(a, GraphBuilt)
	assertHeld("a refined, b not", g1, g2)

	refine(t, b)
	if check(b, GraphShared) != g2 {
		t.Fatal("clone b, refined like a, was not served a's refined graph")
	}
	assertHeld("both refined", g2)
}

// TestConcurrentClonesShareOneBuild: clones of one structure checked
// from many goroutines at once run a single exploration — the pointer
// miss fingerprints outside the lock and looks again before building —
// and every clone gets the sequential checker's verdict and trace.
func TestConcurrentClonesShareOneBuild(t *testing.T) {
	base := randomSystem(t, 6, 4, 60)
	prop := Invariant{PropName: "inv", Holds: ts.Neq{Var: "x0", Value: "v0_1"}}
	want := CheckSequential(base, prop, Options{})
	engine := NewEngine()
	const clones = 8
	srcs := make([]GraphSource, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		sys := base.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, src, err := engine.CheckSourced(context.Background(), sys, prop, Options{Workers: 2})
			srcs[i] = src
			if err != nil {
				t.Errorf("clone %d: %v", i, err)
				return
			}
			if res.Verified != want.Verified || res.StatesExplored != want.StatesExplored ||
				!reflect.DeepEqual(res.Counterexample, want.Counterexample) {
				t.Errorf("clone %d: result differs from the sequential checker's", i)
			}
		}(i)
	}
	wg.Wait()
	built := 0
	for _, src := range srcs {
		if src == GraphBuilt {
			built++
		}
	}
	if _, builds, _ := engine.CacheCounters(); builds != 1 || built != 1 {
		t.Fatalf("builds=%d, %d checks report %q; want one build (sources %v)", builds, built, GraphBuilt, srcs)
	}
}

// TestExploreGaugesTrackVisitedSet pins the explorer's residency gauges
// against the build they describe, with the dense rank table, with the
// hash index and for a derived build, whose visited set is its slot
// table: mc.visited_states is the state count, and
// mc.peak_resident_state_bytes is the arena plus the whole visited set
// (the dense table counted at its full size).
func TestExploreGaugesTrackVisitedSet(t *testing.T) {
	for _, wide := range []bool{false, true} {
		sys := randomSystem(t, 6, 4, 60)
		if wide {
			padWide(t, sys)
		}
		o := obs.New()
		g, err := explore(obs.NewContext(context.Background(), o), sys, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		reg := o.Metrics()
		if got := reg.Gauge("mc.visited_states").Value(); got != int64(g.NumStates()) {
			t.Errorf("wide=%v: mc.visited_states = %d, want the %d states built", wide, got, g.NumStates())
		}
		visited := reg.Gauge("mc.peak_resident_state_bytes").Value() - g.arena.memBytes()
		product := int64(1)
		for _, v := range sys.Vars() {
			product *= int64(len(v.Domain))
		}
		switch {
		case !wide && visited != 4*product:
			t.Errorf("dense: peak bytes count %d for the visited set, want the %d-byte rank table", visited, 4*product)
		case wide && (visited < 4*int64(g.NumStates())*4/3 || visited&(visited-1) != 0):
			t.Errorf("hash: peak bytes count %d for the visited set, want the power-of-two slot table over %d states", visited, g.NumStates())
		}
		wantHashed := int64(0)
		if wide {
			wantHashed = 1
		}
		if hashed := reg.Counter("mc.explorations_hashed").Value(); hashed != wantHashed {
			t.Errorf("wide=%v: mc.explorations_hashed = %d, want %d", wide, hashed, wantHashed)
		}
	}

	sys := randomSystem(t, 6, 4, 60)
	base, err := explore(context.Background(), sys, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refine(t, sys)
	rules, err := sys.CompileRules()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := planDerivation(base, rules, sys.Vars(), sys.InitialState())
	if !ok {
		t.Fatal("the refined system does not derive from its base graph")
	}
	o := obs.New()
	g, err := deriveGraph(obs.NewContext(context.Background(), o), sys, rules, d, systemFingerprint(sys), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := o.Metrics()
	if got := reg.Gauge("mc.visited_states").Value(); got != int64(g.NumStates()) {
		t.Errorf("derived: mc.visited_states = %d, want the %d states built", got, g.NumStates())
	}
	if visited, want := reg.Gauge("mc.peak_resident_state_bytes").Value()-g.arena.memBytes(), 4*2*int64(base.NumStates()); visited != want {
		t.Errorf("derived: peak bytes count %d for the visited set, want the %d-byte slot table", visited, want)
	}
	if derived := reg.Counter("mc.explorations_derived").Value(); derived != 1 {
		t.Errorf("derived: mc.explorations_derived = %d, want 1", derived)
	}
}
