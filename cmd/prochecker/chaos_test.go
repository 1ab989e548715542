package main

// Crash-recovery chaos harness: builds the real binary, runs -serve as
// a subprocess with a WAL and store, SIGKILLs it mid-campaign at a
// seeded random point, restarts it against the same directories, and
// asserts that nothing was lost — the campaign finishes under its
// original ID with its original job set, and the final differential
// report is byte-identical to an uninterrupted run's.

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/server"
)

// chaosSeed drives every random choice the harness makes (kill
// timing), so a failure reproduces exactly.
const chaosSeed = 20260808

// buildBinary compiles the prochecker binary once per test run.
var buildBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "prochecker-chaos-*")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "prochecker")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// serveProc is one -serve subprocess under harness control.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	exit chan error
}

// startServe launches the binary in serve mode against the given
// store+WAL directories and waits for it to announce its address.
func startServe(t *testing.T, bin, storeDir, walDir string) *serveProc {
	t.Helper()
	// The snapshot root lives beside the store so exploration
	// checkpoints, like results, survive the restart cycle.
	args := []string{
		"-serve", "127.0.0.1:0",
		"-store", storeDir,
		"-wal", walDir,
		"-workers", "2",
		"-queue", "16",
		"-snapshot-dir", filepath.Join(storeDir, "snapshots"),
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, exit: make(chan error, 1)}
	go func() { p.exit <- cmd.Wait(); close(p.exit) }()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		<-p.exit
	})

	addrCh := make(chan string, 1)
	go func() {
		re := regexp.MustCompile(`serving jobs API on http://([^/]+)/`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
			// Keep draining so the subprocess never blocks on stderr.
		}
	}()
	select {
	case p.addr = <-addrCh:
	case err := <-p.exit:
		t.Fatalf("serve subprocess exited before announcing its address: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve subprocess never announced its address")
	}
	return p
}

func (p *serveProc) client() *server.Client {
	return &server.Client{Base: "http://" + p.addr, Backoff: 20 * time.Millisecond, Seed: chaosSeed}
}

// sigkill delivers an un-catchable kill — the crash under test — and
// waits for the process to be fully gone.
func (p *serveProc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	select {
	case <-p.exit:
	case <-time.After(10 * time.Second):
		t.Fatal("process survived SIGKILL")
	}
}

// sigterm asks for a graceful drain and waits for exit.
func (p *serveProc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-p.exit:
	case <-time.After(60 * time.Second):
		t.Fatal("process did not drain within 60s of SIGTERM")
	}
}

// chaosCampaign is the workload: 2 impls × 2 fault columns = 4 jobs,
// one property each, enough to straddle a crash.
func chaosCampaign() prochecker.CampaignSpec {
	return prochecker.CampaignSpec{
		Impls:      []string{"conformant", "srsLTE"},
		Faults:     []string{"", "drop=0.15"},
		Seed:       42,
		Properties: []string{"S06"},
	}
}

// TestChaosKillMidCampaignResumesByteIdentical is the acceptance
// criterion for the crash-recovery tentpole.
func TestChaosKillMidCampaignResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness skipped in -short mode")
	}
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(chaosSeed))

	// Control arm: the same campaign, uninterrupted.
	control := startServe(t, bin, t.TempDir(), t.TempDir())
	camp, err := control.client().SubmitCampaign(ctx, chaosCampaign())
	if err != nil {
		t.Fatal(err)
	}
	wantCamp, err := control.client().WaitCampaign(ctx, camp.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if wantCamp.State != jobs.StateDone {
		t.Fatalf("control campaign ended %s, want done", wantCamp.State)
	}
	if wantCamp.Report == "" {
		t.Fatal("control campaign rendered no report")
	}
	control.sigterm(t)

	// Chaos arm: fresh directories, SIGKILL at a seeded random point
	// after the campaign is accepted, then restart on the same dirs.
	storeDir, walDir := t.TempDir(), t.TempDir()
	victim := startServe(t, bin, storeDir, walDir)
	camp2, err := victim.client().SubmitCampaign(ctx, chaosCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if len(camp2.JobIDs) != len(wantCamp.JobIDs) {
		t.Fatalf("chaos campaign has %d jobs, control %d", len(camp2.JobIDs), len(wantCamp.JobIDs))
	}
	killAfter := time.Duration(50+rng.Intn(400)) * time.Millisecond
	t.Logf("SIGKILL %v after campaign accepted (seed %d)", killAfter, chaosSeed)
	time.Sleep(killAfter)
	victim.sigkill(t)

	// Restart against the same WAL+store; the campaign must still be
	// known under its original ID and run to completion.
	resumed := startServe(t, bin, storeDir, walDir)
	gotCamp, err := resumed.client().WaitCampaign(ctx, camp2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("campaign %s lost across SIGKILL+restart: %v", camp2.ID, err)
	}
	if gotCamp.State != jobs.StateDone {
		t.Fatalf("resumed campaign ended %s, want done", gotCamp.State)
	}

	// Zero lost or duplicated jobs: the job table holds exactly the
	// originally-accepted job IDs, each terminal and done.
	list, err := resumed.client().Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, j := range list {
		seen[j.ID]++
	}
	if len(list) != len(camp2.JobIDs) {
		t.Fatalf("job table holds %d jobs after resume, want %d", len(list), len(camp2.JobIDs))
	}
	for _, id := range camp2.JobIDs {
		if seen[id] != 1 {
			t.Fatalf("job %s appears %d times after resume, want exactly 1", id, seen[id])
		}
	}
	for _, j := range list {
		if j.State != jobs.StateDone {
			t.Fatalf("job %s ended %s (%s) after resume, want done", j.ID, j.State, j.Error)
		}
	}

	// Byte-identical differential report versus the uninterrupted run.
	if gotCamp.Report != wantCamp.Report {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
			wantCamp.Report, gotCamp.Report)
	}
	if strings.TrimSpace(gotCamp.Report) == "" {
		t.Fatal("resumed campaign rendered an empty report")
	}

	// A graceful drain checkpoints the WAL; one more restart adopts
	// everything without recomputation (cache hits only).
	resumed.sigterm(t)
	final := startServe(t, bin, storeDir, walDir)
	finalCamp, err := final.client().Campaign(ctx, camp2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finalCamp.State != jobs.StateDone || finalCamp.Report != wantCamp.Report {
		t.Fatalf("second restart lost campaign state: %s", finalCamp.State)
	}
	final.sigterm(t)
}
