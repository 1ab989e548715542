package prochecker

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prochecker/internal/channel"
	"prochecker/internal/lint"
	"prochecker/internal/resilience"
)

// -update regenerates the golden lint reports and the verdict corpus
// (TestVerdictCorpus) from the live pipeline:
//
//	go test -run TestLintGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite golden lint reports and the verdict corpus")

// TestLintGoldenReports pins the full rendered lint report for each
// shipped profile on a benign link. The reports are part of the
// acceptance surface: all three must be clean at ERROR severity, and
// the WARN/INFO diagnostics they do carry are exactly the paper's
// deviation surface (srsLTE and OAI each accept replayed protected
// messages; every profile parks in the NORMAL_SERVICE terminal).
func TestLintGoldenReports(t *testing.T) {
	for _, impl := range Implementations() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			t.Parallel()
			a, err := Analyze(impl)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			rep := a.LintReport()
			if rep == nil {
				t.Fatal("analysis carries no lint report")
			}
			if errs := rep.Count(lint.SeverityError); errs != 0 {
				t.Errorf("benign %s extraction has %d lint ERRORs:\n%s", impl, errs, rep.Render())
			}
			got := rep.Render()
			golden := filepath.Join("testdata", "lint", string(impl)+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("lint report drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestLintGateSeverities drives Analysis.LintGate across the ladder on
// a profile known to carry WARNs but no ERRORs.
func TestLintGateSeverities(t *testing.T) {
	a, err := Analyze(SRSLTE)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if err := a.LintGate(lint.SeverityError); err != nil {
		t.Errorf("error-severity gate failed on a benign extraction: %v", err)
	}
	err = a.LintGate(lint.SeverityWarn)
	if err == nil {
		t.Fatal("warn-severity gate passed despite known WARN diagnostics")
	}
	if !errors.Is(err, resilience.ErrModelLint) {
		t.Errorf("gate error does not wrap ErrModelLint: %v", err)
	}
	if resilience.ExitCode(err) != resilience.ExitModelLint {
		t.Errorf("gate exit code = %d, want %d", resilience.ExitCode(err), resilience.ExitModelLint)
	}
}

// TestLintPC006Regression replays the PR 4 incident: a seeded
// fault-injection adversary (drop=0.2,corrupt=0.1, seed 14) perturbs
// the srsLTE conformance run so the extraction never observes
// guti_reallocation_command. Before this PR, threat.Compose silently
// patched the channel domain; the composition must now surface the
// force-merge as a deterministic PC006 diagnostic before any model
// checking happens.
func TestLintPC006Regression(t *testing.T) {
	cfg, err := channel.ParseFaultSpec("drop=0.2,corrupt=0.1", 14)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(SRSLTE, WithFaults(cfg))
	if err != nil {
		t.Fatalf("Analyze under faults: %v", err)
	}
	rep := a.LintReport()
	if rep == nil {
		t.Fatal("no lint report")
	}
	found := false
	for _, d := range rep.Diagnostics {
		if d.Code == "PC006" && d.Ref.Message == "guti_reallocation_command" {
			found = true
			if d.Severity != lint.SeverityWarn {
				t.Errorf("PC006 severity = %s, want warn", d.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("PC006 for guti_reallocation_command not reported; codes = %v\n%s",
			rep.Codes(), rep.Render())
	}

	// The benign extraction must not carry the diagnostic.
	benign, err := Analyze(SRSLTE)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range benign.LintReport().Codes() {
		if code == "PC006" {
			t.Error("benign extraction reports PC006")
		}
	}
}

// TestLintReportInJobResult checks the campaign service path: every
// completed job carries the lint summary of its analysis.
func TestLintReportInJobResult(t *testing.T) {
	res, err := RunJob(context.Background(), JobSpec{Impl: "conformant", Properties: []string{"S06"}})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if res.Lint == nil {
		t.Fatal("job result carries no lint summary")
	}
	if res.Lint.Errors != 0 {
		t.Errorf("conformant job lint errors = %d, want 0", res.Lint.Errors)
	}
	if len(res.Lint.Codes) == 0 {
		t.Error("lint summary lists no codes (expected at least PC003)")
	}
	if got := res.Lint.String(); !strings.HasPrefix(got, "0E/") {
		t.Errorf("LintSummary.String() = %q", got)
	}
}

// TestDiagnosticsDocRegistry keeps docs/diagnostics.md in sync with the
// registered catalogue: every code must have a documented entry carrying
// its title, and the doc must not describe codes that no longer exist.
func TestDiagnosticsDocRegistry(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "diagnostics.md"))
	if err != nil {
		t.Fatalf("reading docs/diagnostics.md: %v", err)
	}
	text := string(doc)
	registered := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		info := a.Info()
		registered[info.Code] = true
		heading := "## " + info.Code
		if !strings.Contains(text, heading) {
			t.Errorf("docs/diagnostics.md has no %q section", heading)
			continue
		}
		if !strings.Contains(text, info.Title) {
			t.Errorf("docs/diagnostics.md does not carry %s's title %q", info.Code, info.Title)
		}
		if !strings.Contains(text, info.Severity.String()) {
			t.Errorf("docs/diagnostics.md missing the %s severity marker for %s", info.Severity, info.Code)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			code := strings.Fields(rest)[0]
			if strings.HasPrefix(code, "PC") && !registered[code] {
				t.Errorf("docs/diagnostics.md documents unregistered code %s", code)
			}
		}
	}
}

// BenchmarkLintModel measures the lint pre-check phase alone: the model
// is built once outside the timed loop, so the figure is what the gate
// adds to every pipeline run (recorded as BENCH_lint.json by ci.sh).
func BenchmarkLintModel(b *testing.B) {
	a, err := Analyze(SRSLTE)
	if err != nil {
		b.Fatalf("Analyze: %v", err)
	}
	target := &lint.Target{FSM: a.model.FSM, Composed: a.model.Composed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := lint.Run(target)
		if rep == nil {
			b.Fatal("nil report")
		}
	}
}
