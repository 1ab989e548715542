package ts

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func buildToy(t *testing.T) *System {
	t.Helper()
	sys := NewSystem("toy")
	for _, err := range []error{
		sys.AddVar("light", "red", "green"),
		sys.AddVar("cars", "stopped", "moving"),
		sys.SetInit("light", "red"),
		sys.SetInit("cars", "stopped"),
		sys.AddRule(Rule{
			Name:    "turn_green",
			Guard:   Eq{"light", "red"},
			Assigns: []Assign{{"light", "green"}},
		}),
		sys.AddRule(Rule{
			Name:    "go",
			Guard:   And{Eq{"light", "green"}, Eq{"cars", "stopped"}},
			Assigns: []Assign{{"cars", "moving"}},
		}),
		sys.AddRule(Rule{
			Name:    "turn_red",
			Guard:   Eq{"light", "green"},
			Assigns: []Assign{{"light", "red"}, {"cars", "stopped"}},
		}),
	} {
		if err != nil {
			t.Fatalf("building toy system: %v", err)
		}
	}
	return sys
}

func TestAddVarValidation(t *testing.T) {
	sys := NewSystem("v")
	if err := sys.AddVar("x"); err == nil {
		t.Error("empty domain accepted")
	}
	if err := sys.AddVar("y", "a", "a"); err == nil {
		t.Error("duplicate domain value accepted")
	}
	if err := sys.AddVar("z", "a"); err != nil {
		t.Fatalf("AddVar: %v", err)
	}
	if err := sys.AddVar("z", "b"); err == nil {
		t.Error("duplicate variable accepted")
	}
}

func TestSetInitValidation(t *testing.T) {
	sys := NewSystem("v")
	if err := sys.AddVar("x", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetInit("nope", "a"); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := sys.SetInit("x", "c"); err == nil {
		t.Error("out-of-domain init accepted")
	}
}

func TestAddRuleValidation(t *testing.T) {
	sys := NewSystem("v")
	if err := sys.AddVar("x", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRule(Rule{}); err == nil {
		t.Error("unnamed rule accepted")
	}
	if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"nope", "a"}}}); err == nil {
		t.Error("assignment to unknown variable accepted")
	}
	if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"x", "zzz"}}}); err == nil {
		t.Error("out-of-domain assignment accepted")
	}
	// Nil guard becomes True.
	if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"x", "b"}}}); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	r, ok := sys.RuleByName("r")
	if !ok || !r.Guard.Eval(sys, sys.InitialState()) {
		t.Error("nil guard did not default to True")
	}
}

func TestInitialStateAndGetSet(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	if sys.Get(s, "light") != "red" || sys.Get(s, "cars") != "stopped" {
		t.Errorf("initial = %v", sys.Assignments(s))
	}
	if err := sys.Set(s, "light", "green"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if sys.Get(s, "light") != "green" {
		t.Error("Set did not apply")
	}
	if err := sys.Set(s, "light", "blue"); err == nil {
		t.Error("out-of-domain Set accepted")
	}
	if sys.Get(s, "missing") != "" {
		t.Error("Get of unknown variable should be empty")
	}
}

func TestEnabledAndApply(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	r, _ := sys.RuleByName("turn_green")
	if !sys.Enabled(r, s) {
		t.Fatal("turn_green should be enabled initially")
	}
	s2 := sys.Apply(r, s)
	if sys.Get(s2, "light") != "green" {
		t.Error("Apply did not assign")
	}
	if sys.Get(s, "light") != "red" {
		t.Error("Apply mutated the input state")
	}
	goRule, _ := sys.RuleByName("go")
	if sys.Enabled(goRule, s) {
		t.Error("go enabled under red light")
	}
}

func TestSuccessors(t *testing.T) {
	sys := buildToy(t)
	succs := sys.Successors(sys.InitialState())
	if len(succs) != 1 || succs[0].Rule.Name != "turn_green" {
		t.Errorf("initial successors = %v", succs)
	}
}

func TestCondCombinators(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	tests := []struct {
		name string
		c    Cond
		want bool
	}{
		{"eq true", Eq{"light", "red"}, true},
		{"eq false", Eq{"light", "green"}, false},
		{"neq", Neq{"light", "green"}, true},
		{"in hit", In{"light", []string{"green", "red"}}, true},
		{"in miss", In{"light", []string{"green"}}, false},
		{"and empty", And{}, true},
		{"or empty", Or{}, false},
		{"not", Not{Eq{"light", "red"}}, false},
		{"true", True{}, true},
		{"or mixed", Or{Eq{"light", "green"}, Eq{"cars", "stopped"}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Eval(sys, s); got != tt.want {
				t.Errorf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRemoveRule(t *testing.T) {
	sys := buildToy(t)
	if !sys.RemoveRule("go") {
		t.Fatal("RemoveRule(go) = false")
	}
	if sys.RemoveRule("go") {
		t.Error("second RemoveRule(go) = true")
	}
	if _, ok := sys.RuleByName("go"); ok {
		t.Error("removed rule still present")
	}
	if len(sys.Rules()) != 2 {
		t.Errorf("rules = %d, want 2", len(sys.Rules()))
	}
}

func TestSMVOutput(t *testing.T) {
	sys := buildToy(t)
	smv := sys.SMV()
	for _, want := range []string{
		"MODULE main",
		"light : {red, green};",
		"init(light) := red;",
		"TRANS",
		"-- rule turn_green",
		"next(light) = green",
		"next(cars) = cars",
		"-- stutter",
	} {
		if !strings.Contains(smv, want) {
			t.Errorf("SMV output missing %q:\n%s", want, smv)
		}
	}
}

// TestFingerprintFollowsSMV: two variants of the toy system have the
// same fingerprint exactly when their SMV renderings are equal, over
// edits to every part SMV renders and rewrites it renders the same.
func TestFingerprintFollowsSMV(t *testing.T) {
	edit := func(f func(*System)) *System {
		sys := buildToy(t).Clone()
		f(sys)
		return sys
	}
	setRule := func(name string, f func(*Rule)) func(*System) {
		return func(sys *System) {
			sys.MapRules(func(r Rule) Rule {
				if r.Name == name {
					r.Assigns = append([]Assign(nil), r.Assigns...)
					f(&r)
				}
				return r
			})
		}
	}
	variants := map[string]*System{
		"toy":            buildToy(t),
		"renamed system": edit(func(sys *System) { sys.Name = "toy2" }),
		"extra var":      edit(func(sys *System) { sys.AddVar("horn", "off", "on") }),
		"init":           edit(func(sys *System) { sys.SetInit("light", "green") }),
		"init default":   edit(func(sys *System) { sys.SetInit("cars", "stopped") }),
		"removed rule":   edit(func(sys *System) { sys.RemoveRule("go") }),
		"renamed rule":   edit(setRule("go", func(r *Rule) { r.Name = "drive" })),
		"guard value":    edit(setRule("go", func(r *Rule) { r.Guard = And{Eq{"light", "green"}, Neq{"cars", "stopped"}} })),
		"guard shape":    edit(setRule("go", func(r *Rule) { r.Guard = Or{Eq{"light", "green"}, Eq{"cars", "stopped"}} })),
		"guard in":       edit(setRule("go", func(r *Rule) { r.Guard = And{In{"light", []string{"green"}}, Eq{"cars", "stopped"}} })),
		"guard not":      edit(setRule("go", func(r *Rule) { r.Guard = Not{And{Eq{"light", "green"}, Eq{"cars", "stopped"}}} })),
		"assign value":   edit(setRule("turn_red", func(r *Rule) { r.Assigns[1].Value = "moving" })),
		"assign order":   edit(setRule("turn_red", func(r *Rule) { r.Assigns[0], r.Assigns[1] = r.Assigns[1], r.Assigns[0] })),
		"assign overwritten": edit(setRule("turn_green", func(r *Rule) {
			r.Assigns = []Assign{{"light", "red"}, {"light", "green"}}
		})),
		"assign dropped": edit(setRule("turn_red", func(r *Rule) { r.Assigns = r.Assigns[:1] })),
	}
	for a, x := range variants {
		for b, y := range variants {
			sameSMV := x.SMV() == y.SMV()
			if sameFP := x.Fingerprint() == y.Fingerprint(); sameFP != sameSMV {
				t.Errorf("%s vs %s: same SMV %v, same fingerprint %v", a, b, sameSMV, sameFP)
			}
		}
	}
	// The rewrites that render the same must be among the variants, or
	// the loop above proves nothing about them.
	for _, name := range []string{"init default", "assign order", "assign overwritten"} {
		if variants[name].SMV() != variants["toy"].SMV() {
			t.Errorf("%s: SMV differs from the toy's", name)
		}
	}
}

func TestStateKeyAndClone(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	c := s.Clone()
	if s.Key() != c.Key() {
		t.Error("clone has different key")
	}
	c[0] = 1
	if s.Key() == c.Key() {
		t.Error("clone aliases original")
	}
}

func TestStatsMentionsCounts(t *testing.T) {
	sys := buildToy(t)
	stats := sys.Stats()
	if !strings.Contains(stats, "2 vars") || !strings.Contains(stats, "3 rules") {
		t.Errorf("Stats = %q", stats)
	}
}

// TestGenerationBumpsOnStructuralEdits pins the mutation counter the
// exploration caches key on: every structural edit bumps it, reads and
// failed edits leave it alone, and a clone starts an independent line.
func TestGenerationBumpsOnStructuralEdits(t *testing.T) {
	sys := NewSystem("gen")
	g0 := sys.Generation()
	if err := sys.AddVar("x", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() <= g0 {
		t.Fatal("AddVar did not bump the generation")
	}
	g1 := sys.Generation()
	if err := sys.SetInit("x", "b"); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() <= g1 {
		t.Fatal("SetInit did not bump the generation")
	}
	g2 := sys.Generation()
	if err := sys.AddRule(Rule{Name: "r", Guard: Eq{"x", "a"}, Assigns: []Assign{{"x", "b"}}}); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() <= g2 {
		t.Fatal("AddRule did not bump the generation")
	}
	g3 := sys.Generation()
	if sys.RemoveRule("absent") {
		t.Fatal("RemoveRule of absent rule reported success")
	}
	if sys.Generation() != g3 {
		t.Error("failed RemoveRule bumped the generation")
	}
	sys.MapRules(func(r Rule) Rule { return r })
	if sys.Generation() <= g3 {
		t.Error("MapRules did not bump the generation")
	}
	g4 := sys.Generation()
	if !sys.RemoveRule("r") {
		t.Fatal("RemoveRule failed")
	}
	if sys.Generation() <= g4 {
		t.Error("RemoveRule did not bump the generation")
	}
	g5 := sys.Generation()
	clone := sys.Clone()
	gc := clone.Generation()
	if err := clone.AddVar("y", "0"); err != nil {
		t.Fatal(err)
	}
	if clone.Generation() <= gc {
		t.Error("clone edits do not bump its generation")
	}
	if sys.Generation() != g5 {
		t.Error("editing the clone disturbed the original's generation")
	}
}

// randomCond draws a guard over sys's variables from every condition
// kind, out-of-domain values included, nesting up to depth.
func randomCond(rng *rand.Rand, sys *System, depth int) Cond {
	v := sys.Vars()[rng.Intn(len(sys.Vars()))]
	val := func() string {
		if rng.Intn(6) == 0 {
			return "out_of_domain"
		}
		return v.Domain[rng.Intn(len(v.Domain))]
	}
	k := rng.Intn(9)
	if depth == 0 && k >= 5 {
		k = rng.Intn(5)
	}
	switch k {
	case 0, 1:
		return Eq{v.Name, val()}
	case 2:
		return Neq{v.Name, val()}
	case 3:
		return In{v.Name, []string{val(), val()}}
	case 4:
		if rng.Intn(3) == 0 {
			return nil
		}
		return True{}
	case 5, 6:
		n := rng.Intn(4)
		a := make(And, n)
		for i := range a {
			a[i] = randomCond(rng, sys, depth-1)
		}
		return a
	case 7:
		return Or{randomCond(rng, sys, depth-1), randomCond(rng, sys, depth-1)}
	default:
		return Not{randomCond(rng, sys, depth-1)}
	}
}

// TestEnabledSetMatchesClosures checks the guard bitsets against the
// per-rule closures on every state of small generated systems with more
// than 64 rules, so masks span several words.
func TestEnabledSetMatchesClosures(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := NewSystem("masks")
		nVars := 1 + rng.Intn(4)
		for v := 0; v < nVars; v++ {
			dom := make([]string, 1+rng.Intn(4))
			for i := range dom {
				dom[i] = fmt.Sprintf("v%d_%d", v, i)
			}
			if err := sys.AddVar(fmt.Sprintf("x%d", v), dom...); err != nil {
				t.Fatal(err)
			}
		}
		nRules := 1 + rng.Intn(150)
		for r := 0; r < nRules; r++ {
			if err := sys.AddRule(Rule{Name: fmt.Sprintf("r%d", r), Guard: randomCond(rng, sys, 2)}); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := sys.CompileRules()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mask := make([]uint64, rs.Words())
		s := make(State, nVars)
		for {
			rs.EnabledSet(s, mask)
			for i := range rs.Rules {
				got := mask[i/64]&(1<<(i%64)) != 0
				if want := rs.Rules[i].Enabled(s); got != want {
					t.Fatalf("seed %d, state %v, rule %s (%s): mask says %v, closure %v",
						seed, s, rs.Rules[i].Name, sys.Rules()[i].Guard.SMV(), got, want)
				}
			}
			for i := len(rs.Rules); i < 64*len(mask); i++ {
				if mask[i/64]&(1<<(i%64)) != 0 {
					t.Fatalf("seed %d: bit %d set beyond the %d rules", seed, i, len(rs.Rules))
				}
			}
			// Next state in mixed-radix order; stop after the last.
			v := 0
			for ; v < nVars; v++ {
				if int(s[v])+1 < len(sys.Vars()[v].Domain) {
					s[v]++
					break
				}
				s[v] = 0
			}
			if v == nVars {
				break
			}
		}
	}
}
