package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// capture runs f with stdout redirected and returns what it printed. The
// pipe is drained concurrently so large outputs (DOT/SMV dumps) cannot
// fill the pipe buffer and deadlock the writer.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestHelpExitsCleanly: -h and -help print the usage and exit 0, with no
// failure-class line.
func TestHelpExitsCleanly(t *testing.T) {
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-h", "-help"} {
		out, err := exec.Command(bin, flag).CombinedOutput()
		if err != nil {
			t.Fatalf("prochecker %s: %v, want exit 0\n%s", flag, err, out)
		}
		if !strings.Contains(string(out), "Usage of prochecker") || strings.Contains(string(out), "prochecker: failure class:") {
			t.Errorf("prochecker %s output:\n%s", flag, out)
		}
	}
}

func TestListProperties(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"S01", "V25", "security", "privacy", "LTEInspector-common"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "OAI", "-dot"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "EMM_REGISTERED") {
		t.Errorf("not a DOT FSM:\n%.200s", out)
	}
}

func TestSMVOutput(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "conformant", "-smv"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "MODULE main") || !strings.Contains(out, "TRANS") {
		t.Errorf("not SMV output:\n%.200s", out)
	}
}

func TestCheckSingleProperty(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "srsLTE", "-check", "S07"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "ATTACK") {
		t.Errorf("I3 not reported as attack on srsLTE:\n%s", out)
	}
}

func TestValidateP3(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "conformant", "-validate", "p3"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "attack succeeded:   true") {
		t.Errorf("P3 validation output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{"-impl", "nokia", "-dot"}); err == nil {
		t.Error("unknown implementation accepted")
	}
	if err := run([]string{"-validate", "p9"}); err == nil {
		t.Error("unknown validation accepted")
	}
	if err := run([]string{"-impl", "OAI", "-check", "NOPE"}); err == nil {
		t.Error("unknown property accepted")
	}
	if err := run([]string{"-conformance", "-faults", "teleport=1"}); err == nil {
		t.Error("bad fault spec accepted")
	}
	if err := run([]string{"-impl", "nokia", "-conformance"}); err == nil {
		t.Error("unknown implementation accepted for -conformance")
	}
}

func TestConformanceBenign(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "conformant", "-conformance"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "faults: none") || !strings.Contains(out, "cases passed") {
		t.Errorf("conformance output:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("benign run reported failures:\n%s", out)
	}
}

// TestConformanceUnderFaults is the end-to-end acceptance check: a full
// suite run under seeded drop+corrupt fault injection completes without
// a process crash and reports per-case failures.
func TestConformanceUnderFaults(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-impl", "srsLTE", "-conformance", "-faults", "drop=0.2,corrupt=0.2", "-seed", "42"})
	})
	if err != nil {
		t.Fatalf("faulted run errored at the process level: %v", err)
	}
	if !strings.Contains(out, "fault(s) injected") {
		t.Errorf("missing fault summary:\n%s", out)
	}
	// The same seed must reproduce the same report byte for byte.
	again, err := capture(t, func() error {
		return run([]string{"-impl", "srsLTE", "-conformance", "-faults", "drop=0.2,corrupt=0.2", "-seed", "42"})
	})
	if err != nil {
		t.Fatalf("second faulted run: %v", err)
	}
	if out != again {
		t.Error("seeded fault runs printed different reports")
	}
}

// TestManifestWritten runs the binary in a fresh process: the model
// checker shares graphs process-wide, so an in-process run could be
// served a graph an earlier test built and explore nothing itself.
func TestManifestWritten(t *testing.T) {
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if out, err := exec.Command(bin, "-impl", "conformant", "-check", "S06", "-quiet", "-manifest", path).CombinedOutput(); err != nil {
		t.Fatalf("prochecker: %v\n%s", err, out)
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	if m.Tool != "prochecker" || m.SchemaVersion != obs.ManifestSchemaVersion {
		t.Fatalf("manifest header = %+v", m)
	}
	if m.Config["impl"] != "conformant" || m.Config["check"] != "S06" {
		t.Errorf("config = %v", m.Config)
	}
	if len(m.Verdicts) != 1 || m.Verdicts[0].ID != "S06" {
		t.Fatalf("verdicts = %+v", m.Verdicts)
	}
	if m.Failure != nil {
		t.Errorf("clean run recorded a failure: %+v", m.Failure)
	}
	names := map[string]bool{}
	for _, n := range m.Spans.Names() {
		names[n] = true
	}
	for _, phase := range []string{"analyze", "conformance.suite", "property.evaluate"} {
		if !names[phase] {
			t.Errorf("manifest missing span %q", phase)
		}
	}
	if v, _ := m.Metrics["mc.states_explored"].(float64); v == 0 {
		t.Errorf("manifest metrics missing mc.states_explored: %v", m.Metrics["mc.states_explored"])
	}
}

// TestResponseSpansFollowTheirBuild: in a srsLTE -check all manifest,
// every response search has its own "mc.response" span, and it starts
// only after the "mc.explore" span of the build it reads has ended, so
// no build's exploration time contains a search. The build attribute
// ties the two. The run is a fresh process, so every build it reads is
// in its own manifest.
func TestResponseSpansFollowTheirBuild(t *testing.T) {
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if out, err := exec.Command(bin, "-impl", "srsLTE", "-check", "all", "-quiet", "-manifest", path).CombinedOutput(); err != nil {
		t.Fatalf("prochecker: %v\n%s", err, out)
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	explores := map[string]*obs.SpanNode{}
	var responses []*obs.SpanNode
	m.Spans.Walk(func(sp *obs.SpanNode) {
		switch sp.Name {
		case "mc.explore":
			explores[sp.Attrs["build"]] = sp
		case "mc.response":
			responses = append(responses, sp)
		}
	})
	if len(responses) == 0 {
		t.Fatal("no mc.response spans in the manifest")
	}
	derived := 0
	for _, r := range responses {
		build := r.Attrs["build"]
		ex := explores[build]
		if ex == nil {
			t.Fatalf("%s: mc.response reads build %q, which has no mc.explore span", r.Attrs["property"], build)
		}
		if ex.Attrs["index"] == "derived" {
			derived++
		}
		// Both offsets are taken from one monotonic clock; allow a
		// nanosecond for their float sum.
		if end := ex.StartMS + ex.DurMS; r.StartMS < end-1e-6 {
			t.Errorf("%s: mc.response starts at %.3f ms, before the mc.explore span of build %s ends at %.3f ms",
				r.Attrs["property"], r.StartMS, build, end)
		}
		if r.Attrs["nodes"] == "" || r.Attrs["truncated"] != "false" {
			t.Errorf("%s: mc.response attrs %v, want nodes and truncated=false", r.Attrs["property"], r.Attrs)
		}
	}
	if derived == 0 {
		t.Error("no response search read a derived build")
	}
}

// TestManifestOnFailure: a deadline-cut run still writes a well-formed
// manifest carrying the failure taxonomy classification and exit code.
func TestManifestOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{"-impl", "conformant", "-check", "all", "-timeout", "1ns", "-quiet", "-manifest", path})
	if err == nil {
		t.Fatal("expired deadline produced no error")
	}
	m, rerr := obs.ReadManifestFile(path)
	if rerr != nil {
		t.Fatalf("reading manifest after failure: %v", rerr)
	}
	if m.Failure == nil {
		t.Fatal("failed run wrote no failure record")
	}
	if m.Failure.Class != resilience.KindCancelled.String() || m.Failure.ExitCode != resilience.ExitCancelled {
		t.Errorf("failure = %+v", m.Failure)
	}
	if len(m.Failure.Errors) == 0 {
		t.Error("failure record carries no error messages")
	}
}

// TestMetricsAddrFlag exercises the -metrics-addr wiring: a bad
// address fails the run up front, a valid ephemeral one serves without
// disturbing the results. (The live /metrics scrape is covered by
// obs's own TestServeEndpoint and by ci.sh's smoke run, which curls a
// -serve-wait process from outside.)
func TestMetricsAddrFlag(t *testing.T) {
	if err := run([]string{"-impl", "conformant", "-check", "S06", "-quiet", "-metrics-addr", "256.0.0.1:0"}); err == nil {
		t.Error("bad metrics address accepted")
	}
	// A valid ephemeral address must not disturb the run itself.
	out, err := capture(t, func() error {
		return run([]string{"-impl", "conformant", "-check", "S06", "-quiet", "-metrics-addr", "127.0.0.1:0"})
	})
	if err != nil {
		t.Fatalf("run with metrics endpoint: %v", err)
	}
	if !strings.Contains(out, "S06") {
		t.Errorf("results missing:\n%s", out)
	}
}

func TestVerbosityFlagConflicts(t *testing.T) {
	if err := run([]string{"-quiet", "-v", "-list"}); err == nil {
		t.Error("-quiet -v accepted together")
	}
	if err := run([]string{"-serve-wait", "-list"}); err == nil {
		t.Error("-serve-wait without -metrics-addr accepted")
	}
}

// TestVerboseStreamsSpans checks -v writes span begin/end lines to
// stderr.
func TestVerboseStreamsSpans(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	_, runErr := capture(t, func() error {
		return run([]string{"-impl", "conformant", "-check", "S06", "-v"})
	})
	w.Close()
	os.Stderr = old
	stderr := <-done
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	for _, want := range []string{"begin run/analyze", "end   run/analyze", "property.evaluate"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("verbose stderr missing %q:\n%.500s", want, stderr)
		}
	}
}

func TestTimeoutCancelsCatalogue(t *testing.T) {
	// A 1ns deadline is dead before the pipeline starts: the run must
	// fail with a cancellation, not hang or crash.
	err := run([]string{"-impl", "conformant", "-check", "all", "-timeout", "1ns"})
	if err == nil {
		t.Fatal("expired deadline produced no error")
	}
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Errorf("want ErrCancelled, got %v", err)
	}
	if code := resilience.ExitCode(err); code != resilience.ExitCancelled {
		t.Errorf("exit code %d, want %d", code, resilience.ExitCancelled)
	}
}

// TestLintMode drives the -lint CLI path: report rendering, the
// severity gate's exit classification, manifest integration, and the
// gate-off escape hatch.
func TestLintMode(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "conformant", "-lint"}) })
	if err != nil {
		t.Fatalf("conformant -lint errored: %v", err)
	}
	if !strings.Contains(out, "model lint: UE/conformant") || !strings.Contains(out, "PC003") {
		t.Errorf("lint report malformed:\n%s", out)
	}

	// srsLTE carries WARNs: the warn gate must trip with exit 6.
	_, err = capture(t, func() error { return run([]string{"-impl", "srsLTE", "-lint", "-lint-gate", "warn"}) })
	if err == nil {
		t.Fatal("warn gate passed on srsLTE")
	}
	if !errors.Is(err, resilience.ErrModelLint) {
		t.Errorf("gate error does not wrap ErrModelLint: %v", err)
	}
	if code := resilience.ExitCode(err); code != resilience.ExitModelLint {
		t.Errorf("exit code %d, want %d", code, resilience.ExitModelLint)
	}

	// -lint-gate none reports without gating.
	if _, err := capture(t, func() error { return run([]string{"-impl", "srsLTE", "-lint", "-lint-gate", "info"}) }); err == nil {
		t.Error("info gate passed on srsLTE (it always carries at least PC003)")
	}
	if _, err := capture(t, func() error { return run([]string{"-impl", "srsLTE", "-lint", "-lint-gate", "none"}) }); err != nil {
		t.Errorf("-lint-gate none still gated: %v", err)
	}
	if err := run([]string{"-impl", "srsLTE", "-lint", "-lint-gate", "fatal"}); err == nil {
		t.Error("unknown -lint-gate value accepted")
	}
}

// TestLintManifest: the manifest of a -lint run carries the lint block.
func TestLintManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	_, err := capture(t, func() error {
		return run([]string{"-impl", "srsLTE", "-lint", "-quiet", "-manifest", path})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	if m.Lint == nil {
		t.Fatal("manifest carries no lint block")
	}
	if m.Lint.Errors != 0 {
		t.Errorf("benign srsLTE manifest reports %d lint errors", m.Lint.Errors)
	}
	if len(m.Lint.Diagnostics) == 0 {
		t.Fatal("lint block lists no diagnostics")
	}
	sawCode := false
	for _, d := range m.Lint.Diagnostics {
		if strings.HasPrefix(d.Code, "PC") && d.Severity != "" && d.Message != "" {
			sawCode = true
		}
	}
	if !sawCode {
		t.Errorf("lint diagnostics malformed: %+v", m.Lint.Diagnostics)
	}
	if m.Config["lint_gate"] != "error" {
		t.Errorf("config lint_gate = %q, want error", m.Config["lint_gate"])
	}
}
