package main

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/server"
)

func TestServiceFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-serve", ":0", "-submit"}, "excludes"},
		{[]string{"-serve", ":0", "-server", "http://x"}, "excludes"},
		{[]string{"-submit"}, "require -server"},
		{[]string{"-campaign", "OAI"}, "require -server"},
		{[]string{"-server", "http://x", "-submit", "-campaign", "OAI"}, "mutually exclusive"},
		{[]string{"-wait"}, "-wait requires"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("run(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}

func TestCLIRejectsUnknownImplementation(t *testing.T) {
	err := run([]string{"-impl", "amarisoft", "-check", "S06"})
	if err == nil {
		t.Fatal("unknown -impl accepted")
	}
	for _, want := range []string{"amarisoft", "conformant", "srsLTE", "OAI"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestCLIImplementationCaseInsensitive(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-impl", "SRSLTE", "-coverage"}) })
	if err != nil {
		t.Fatalf("run -impl SRSLTE: %v", err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("-coverage printed nothing")
	}
}

// newJobServer hosts a real job service for client-mode tests.
func newJobServer(t *testing.T) string {
	t.Helper()
	store, err := jobs.OpenStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := jobs.New(jobs.Config{
		Runner:    prochecker.JobRunner(2),
		Normalize: prochecker.NormalizeJobSpec,
		Store:     store,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(server.New(svc, nil))
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestClientSubmitAndWait(t *testing.T) {
	url := newJobServer(t)
	out, err := capture(t, func() error {
		return runClient(clientConfig{
			serverURL: url,
			submit:    true,
			wait:      true,
			poll:      5 * time.Millisecond,
			impl:      "srslte",
			seed:      7,
			check:     "S06",
			timeout:   2 * time.Minute,
		})
	})
	if err != nil {
		t.Fatalf("runClient: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{"job j-", "S06", "properties violated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("client output missing %q:\n%s", want, out)
		}
	}
}

func TestClientCampaignWaitPrintsDifferential(t *testing.T) {
	url := newJobServer(t)
	out, err := capture(t, func() error {
		return runClient(clientConfig{
			serverURL: url,
			campaign:  "conformant,OAI",
			wait:      true,
			poll:      5 * time.Millisecond,
			faults:    "",
			seed:      42,
			check:     "S06",
			timeout:   2 * time.Minute,
		})
	})
	if err != nil {
		t.Fatalf("runClient campaign: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{"campaign c-", "conformant", "OAI", "S06"} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign output missing %q:\n%s", want, out)
		}
	}
}

// TestServeModeSIGTERMDrain boots the real -serve mode, submits a job
// over HTTP, then delivers SIGTERM to the process and expects a clean
// drain: the submitted job finishes, runServe returns nil.
func TestServeModeSIGTERMDrain(t *testing.T) {
	storeDir := t.TempDir()

	// runServe announces its bound address on stderr; capture it
	// through a pipe to learn the ephemeral port.
	oldStderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	restore := func() {
		os.Stderr = oldStderr
		w.Close()
	}
	defer restore()

	done := make(chan error, 1)
	go func() {
		done <- runServe(serveConfig{
			addr:     "127.0.0.1:0",
			storeDir: storeDir,
			storeMax: 16,
			queueCap: 8,
			workers:  2,
			timeout:  time.Minute,
		})
	}()

	addrCh := make(chan string, 1)
	go func() {
		re := regexp.MustCompile(`serving jobs API on http://([^/]+)/`)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("runServe exited before announcing its address: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never announced its address")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := &server.Client{Base: "http://" + addr}
	job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "srslte", Seed: 7, Properties: []string{"S06"}})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = cl.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q), want done", job.State, job.Error)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		// No queued jobs were cancelled, so the drain is clean.
		if err != nil {
			t.Fatalf("runServe after SIGTERM = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runServe did not drain within 30s of SIGTERM")
	}

	// The drained store kept the result: a fresh service over the same
	// directory serves it as a cache hit.
	reopened, err := jobs.OpenStore(storeDir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("store holds %d results after drain, want 1", reopened.Len())
	}
}

// TestServeSIGTERMAfterFirstResponse runs the real binary in -serve
// mode and delivers SIGTERM the moment the API has answered its first
// request: the signal handler must already be installed, so the process
// drains and exits 0 instead of dying to the default signal action.
func TestServeSIGTERMAfterFirstResponse(t *testing.T) {
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cmd := exec.Command(bin, "-serve", "127.0.0.1:0", "-workers", "1")
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // already-exited is fine

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	re := regexp.MustCompile(`serving jobs API on (http://[^/]+)/`)
	var base string
	for base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("serve exited before announcing its address")
			}
			if m := re.FindStringSubmatch(line); m != nil {
				base = m[1]
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve never announced its address")
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(base + "/v1/jobs")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no successful API response within 30s (last error %v)", err)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	var stderr []string
	for line := range lines {
		stderr = append(stderr, line)
	}
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v, want exit 0\n%s", err, strings.Join(stderr, "\n"))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain within 60s of SIGTERM")
	}
	out := strings.Join(stderr, "\n")
	for _, want := range []string{"prochecker: draining", "prochecker: drained (0 queued job(s) cancelled)"} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr lacks %q:\n%s", want, out)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(" a , b ,c", ","); strings.Join(got, "|") != "a|b|c" {
		t.Fatalf("splitList = %v", got)
	}
	if got := splitList("  ", ","); got != nil {
		t.Fatalf("splitList(blank) = %v, want nil", got)
	}
	if got := splitList("drop=0.1; corrupt=0.2", ";"); strings.Join(got, "|") != "drop=0.1|corrupt=0.2" {
		t.Fatalf("splitList faults = %v", got)
	}
}

func TestParsePropertySelection(t *testing.T) {
	if got := parsePropertySelection(""); got != nil {
		t.Fatalf("empty selection = %v, want nil", got)
	}
	if got := parsePropertySelection("all"); got != nil {
		t.Fatalf("'all' selection = %v, want nil", got)
	}
	if got := parsePropertySelection("S06,S07"); strings.Join(got, "|") != "S06|S07" {
		t.Fatalf("selection = %v", got)
	}
}
