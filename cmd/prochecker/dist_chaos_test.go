package main

// Exploration-level chaos harness: runs the real binary in direct mode
// with -snapshot-dir, SIGKILLs it while the model checker is mid-
// exploration (after the first checkpoint lands on disk), reruns the
// same command against the same snapshot directory, and asserts the
// resumed run (a) actually resumed from a checkpoint and (b) produced
// verdicts identical to an uninterrupted control run's.

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// manifestDoc is the subset of the run manifest the chaos test reads.
type manifestDoc struct {
	Metrics  map[string]any `json:"metrics"`
	Verdicts []struct {
		ID      string `json:"id"`
		Verdict string `json:"verdict"`
		Detail  string `json:"detail"`
	} `json:"verdicts"`
}

func readManifest(t *testing.T, path string) manifestDoc {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	var doc manifestDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing manifest %s: %v", path, err)
	}
	return doc
}

// verdictTriples projects a manifest's verdicts onto their deterministic
// fields (ID, verdict, detail) — durations legitimately differ between
// a fresh and a resumed run.
func verdictTriples(doc manifestDoc) [][3]string {
	out := make([][3]string, 0, len(doc.Verdicts))
	for _, v := range doc.Verdicts {
		out = append(out, [3]string{v.ID, v.Verdict, v.Detail})
	}
	return out
}

// checkArgs is the analysis command under test: a full catalogue check
// with level checkpoints.
func checkArgs(snapDir, manifestPath string) []string {
	return []string{
		"-impl", "srsLTE", "-check", "all",
		"-workers", "2",
		"-snapshot-dir", snapDir,
		"-manifest", manifestPath,
		"-quiet",
	}
}

// TestChaosKillMidExplorationResumesByteIdentical is the acceptance
// criterion for the snapshot/resume tentpole: an uncatchable kill in
// the middle of state-space exploration must cost only the levels since
// the last checkpoint, and the resumed run's verdict set must be
// indistinguishable from a run that was never interrupted.
func TestChaosKillMidExplorationResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness skipped in -short mode")
	}
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chaosSeed))

	// Control arm: same command, never interrupted.
	ctrlManifest := filepath.Join(t.TempDir(), "control.json")
	ctrl := exec.Command(bin, checkArgs(t.TempDir(), ctrlManifest)...)
	if out, err := ctrl.CombinedOutput(); err != nil {
		t.Fatalf("control run: %v\n%s", err, out)
	}
	want := verdictTriples(readManifest(t, ctrlManifest))
	if len(want) == 0 {
		t.Fatal("control run recorded no verdicts")
	}

	// Chaos arm: start the victim, wait for the first checkpoint to hit
	// disk (so there is something to resume from), then SIGKILL after a
	// short seeded jitter — mid-exploration with near certainty.
	snapDir := t.TempDir()
	victimManifest := filepath.Join(t.TempDir(), "victim.json")
	victim := exec.Command(bin, checkArgs(snapDir, victimManifest)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	victimExit := make(chan error, 1)
	go func() { victimExit <- victim.Wait(); close(victimExit) }()
	t.Cleanup(func() {
		victim.Process.Kill() //nolint:errcheck // already-exited is fine
		<-victimExit
	})

	deadline := time.Now().Add(60 * time.Second)
	for {
		snaps, _ := filepath.Glob(filepath.Join(snapDir, "snap-*.ckpt"))
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never wrote a checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	jitter := time.Duration(rng.Intn(100)) * time.Millisecond
	t.Logf("first checkpoint on disk; SIGKILL after %v (seed %d)", jitter, chaosSeed)
	time.Sleep(jitter)
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v (victim finished before the kill — lower the jitter)", err)
	}
	if err := <-victimExit; err == nil {
		t.Fatal("victim exited cleanly despite SIGKILL")
	}

	// Rerun against the same snapshot directory: must resume, complete,
	// and match the control verdicts exactly.
	resumedManifest := filepath.Join(t.TempDir(), "resumed.json")
	resumed := exec.Command(bin, checkArgs(snapDir, resumedManifest)...)
	if out, err := resumed.CombinedOutput(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}
	doc := readManifest(t, resumedManifest)
	if lvl, ok := doc.Metrics["mc.resume_level"].(float64); !ok || lvl <= 0 {
		t.Fatalf("resumed run did not restore a checkpoint (mc.resume_level=%v)", doc.Metrics["mc.resume_level"])
	}
	got := verdictTriples(doc)
	if len(got) != len(want) {
		t.Fatalf("resumed run produced %d verdicts, control %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d differs after kill+resume:\n  control: %v\n  resumed: %v", i, want[i], got[i])
		}
	}
}
