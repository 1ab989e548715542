package mc

import (
	"strings"
	"testing"

	"prochecker/internal/ts"
)

// TestCertifyAcceptsCheckerTraces certifies the counterexamples the
// engine reports for each property class on the counter system,
// including a deadlock lasso and a cycle lasso.
func TestCertifyAcceptsCheckerTraces(t *testing.T) {
	cases := []struct {
		sys  *ts.System
		prop Property
	}{
		{counter(t, 3, false), Invariant{PropName: "inv", Holds: ts.Neq{Var: "n", Value: "iiiv"}}},
		{counter(t, 2, false), Invariant{PropName: "inv0", Holds: ts.Neq{Var: "n", Value: "v"}}},
		{counter(t, 3, true), NeverFires{PropName: "never", Match: func(n string) bool { return n == "reset" }}},
		{counter(t, 3, false), Response{PropName: "deadlock", Trigger: func(n string) bool { return n == "incv" },
			Goal: func(string) bool { return false }}},
		{counter(t, 3, true), Response{PropName: "cycle", Trigger: func(n string) bool { return n == "incv" },
			Goal: func(string) bool { return false }}},
	}
	for _, c := range cases {
		res := Check(c.sys, c.prop, Options{})
		if res.Counterexample == nil {
			t.Fatalf("%s: no counterexample", c.prop.Name())
		}
		if err := Certify(c.sys, c.prop, res); err != nil {
			t.Errorf("%s: %v", c.prop.Name(), err)
		}
	}
}

// TestCertifyRejectsForgedTraces tampers with valid counterexamples one
// way at a time; every forgery must fail certification.
func TestCertifyRejectsForgedTraces(t *testing.T) {
	sys := counter(t, 3, false)
	inv := Invariant{PropName: "inv", Holds: ts.Neq{Var: "n", Value: "iiiv"}}
	never := NeverFires{PropName: "never", Match: func(n string) bool { return n == "inciiv" }}
	resp := Response{PropName: "resp", Trigger: func(n string) bool { return n == "incv" },
		Goal: func(n string) bool { return n == "inciiv" }}
	deadlock := Response{PropName: "deadlock", Trigger: func(n string) bool { return n == "incv" },
		Goal: func(string) bool { return false }}

	valid := func(p Property) Result {
		t.Helper()
		res := Check(sys, p, Options{})
		if res.Counterexample == nil {
			t.Fatalf("%s: no counterexample", p.Name())
		}
		if err := Certify(sys, p, res); err != nil {
			t.Fatalf("%s: valid trace rejected: %v", p.Name(), err)
		}
		return res
	}
	forge := func(res Result, edit func(tr *Trace)) Result {
		tr := *res.Counterexample
		tr.Steps = append([]Step(nil), tr.Steps...)
		edit(&tr)
		res.Counterexample = &tr
		return res
	}
	invRes, neverRes, deadRes := valid(inv), valid(never), valid(deadlock)

	cases := []struct {
		name string
		prop Property
		res  Result
		want string
	}{
		{"unknown rule", inv, forge(invRes, func(tr *Trace) { tr.Steps[0].Rule = "nope" }), "unknown rule"},
		{"guard false", inv, forge(invRes, func(tr *Trace) { tr.Steps[0], tr.Steps[1] = tr.Steps[1], tr.Steps[0] }), "guard is false"},
		{"post-state", inv, forge(invRes, func(tr *Trace) { tr.Steps[0].After = map[string]string{"n": "v"} }), "post-state"},
		{"initial", inv, forge(invRes, func(tr *Trace) { tr.Initial = map[string]string{"n": "iv"} }), "initial"},
		{"invariant holds", inv, forge(invRes, func(tr *Trace) { tr.Steps = tr.Steps[:2] }), "satisfies the invariant"},
		{"no match", never, forge(neverRes, func(tr *Trace) { tr.Steps = tr.Steps[:1] }), "no matching rule"},
		{"no trace", inv, Result{}, "no counterexample"},
		{"discharged", resp, forge(deadRes, func(tr *Trace) {}), "no obligation is pending"},
		{"live deadlock", deadlock, forge(deadRes, func(tr *Trace) {
			tr.Steps = tr.Steps[:len(tr.Steps)-1]
			tr.LoopStart = len(tr.Steps)
		}), "deadlock state enables"},
		{"loop range", deadlock, forge(deadRes, func(tr *Trace) { tr.LoopStart = len(tr.Steps) + 1 }), "outside"},
	}
	for _, c := range cases {
		err := Certify(sys, c.prop, c.res)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Certify = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
