package prochecker

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"prochecker/internal/core/cegar"
	"prochecker/internal/core/props"
	"prochecker/internal/mc"
)

// TestVerdictCorpus pins every property's verdict on every shipped
// profile against testdata/verdicts/v1/<profile>.txt: for model-checked
// properties the CEGAR iteration count, each refinement, the states of
// the last exploration, the counterexample (rules, post-states and lasso
// entry) and the CPV feasibility lines; for the other kinds the verdict
// and its detail. Durations are left out, so the files are
// byte-reproducible. Regenerate with
//
//	go test -run TestVerdictCorpus -update .
func TestVerdictCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue run on every profile")
	}
	for _, impl := range Implementations() {
		t.Run(string(impl), func(t *testing.T) {
			got := renderVerdictCorpus(t, impl)
			path := filepath.Join("testdata", "verdicts", "v1", string(impl)+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading corpus (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("verdicts drifted from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// renderVerdictCorpus evaluates the whole catalogue on impl. Model-checked
// properties run the CEGAR loop directly so the outcome's refinements and
// trace are visible; the static vacuity pre-pass is applied first, as the
// evaluator does.
func renderVerdictCorpus(t *testing.T, impl Implementation) string {
	t.Helper()
	a, err := Analyze(impl)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ctx := context.Background()
	sys := a.model.Composed.System
	reach := mc.StaticReach(sys)
	var b strings.Builder
	fmt.Fprintf(&b, "# verdict corpus v1: %s\n", impl)
	for _, p := range props.Catalogue() {
		fmt.Fprintf(&b, "\n== %s (%s)\n", p.ID, p.Kind)
		if p.Kind != props.KindMC {
			v, err := a.eval.EvaluateContext(ctx, p)
			if err != nil {
				t.Fatalf("%s: %v", p.ID, err)
			}
			fmt.Fprintf(&b, "verdict: %s\ndetail: %s\n", verdictWord(v.Verified, v.Detected), v.Detail)
			continue
		}
		if vac, witness := mc.Vacuous(reach, sys, p.MC()); vac {
			fmt.Fprintf(&b, "verdict: vacuous\nwitness: %s\n", witness)
			continue
		}
		out, err := cegar.VerifyContext(ctx, a.model.Composed, p.MC(), cegar.Config{PreCapture: true})
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		word := verdictWord(out.Verified, out.Attack != nil)
		if out.Unknown {
			word = "inconclusive"
		}
		fmt.Fprintf(&b, "verdict: %s\niterations: %d\nstates: %d\n", word, out.Iterations, out.StatesExplored)
		for _, r := range out.Refinements {
			fmt.Fprintf(&b, "refinement: %s %s msg=%s\n", refinementKind(r.Kind), r.Rule, r.Msg)
		}
		if out.Attack != nil {
			writeTrace(&b, out.Attack)
		}
		for _, f := range out.AttackFeasibility {
			fmt.Fprintf(&b, "feasible: %s\n", f)
		}
	}
	return b.String()
}

func verdictWord(verified, detected bool) string {
	switch {
	case detected:
		return "attack"
	case verified:
		return "verified"
	default:
		return "inconclusive"
	}
}

func refinementKind(k cegar.RefinementKind) string {
	switch k {
	case cegar.PruneRule:
		return "prune-rule"
	case cegar.GuardReplayOnObservation:
		return "guard-replay"
	default:
		return fmt.Sprintf("kind-%d", k)
	}
}

// writeTrace renders a counterexample: the loop entry, the initial
// assignment and every step's rule and post-state, variables sorted.
func writeTrace(b *strings.Builder, tr *mc.Trace) {
	fmt.Fprintf(b, "trace: %d step(s), loop_start=%d\n", len(tr.Steps), tr.LoopStart)
	fmt.Fprintf(b, "  init %s\n", assignmentLine(tr.Initial))
	for i, s := range tr.Steps {
		fmt.Fprintf(b, "  %2d. %s\n      %s\n", i+1, s.Rule, assignmentLine(s.After))
	}
}

func assignmentLine(m map[string]string) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + m[n]
	}
	return strings.Join(parts, " ")
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(identical lines, differing length)"
}
