package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/obs"
	"prochecker/internal/server"
)

// campaignFaults are the campaign's two columns: a benign link and a
// lossy, corrupting one.
var campaignFaults = []string{"", "drop=0.05,corrupt=0.02"}

// minTracedRounds gives the traced campaign percentiles at least ten
// samples beyond their p90.
const minTracedRounds = 100

// rssRounds is the round count after which campaign-mixed reads the
// server's peak resident set.
const rssRounds = 60

// roundSeed derives the fault seed of one campaign round from the
// workload seed; every round gets a fresh one, so its cells are cold.
func roundSeed(seed int64, round int) int64 { return seed*1_000_003 + int64(round) }

// campaignSpec is the round's matrix: impls × campaignFaults, selecting
// the 17 properties that are not model-checked.
func campaignSpec(impls []string, seed int64) prochecker.CampaignSpec {
	return prochecker.CampaignSpec{
		Impls: impls, Faults: campaignFaults, Seed: seed,
		Properties: append([]string(nil), campaignSelection.ids...),
	}
}

// serveProc is one `prochecker -serve` process with a client on it.
type serveProc struct {
	cmd    *exec.Cmd
	client *server.Client
	ready  time.Duration // from spawn until GET /v1/jobs answered
}

// addrWriter receives the server's standard error and picks the API
// address out of its announcement line.
type addrWriter struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
}

var announceRE = regexp.MustCompile(`serving jobs API on http://(\S+)/v1/jobs`)

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf == nil {
		return len(p), nil // address already found; the rest is discarded
	}
	w.buf = append(w.buf, p...)
	if m := announceRE.FindSubmatch(w.buf); m != nil {
		w.found <- string(m[1])
		w.buf = nil
	} else if len(w.buf) > 1<<16 {
		w.buf = w.buf[len(w.buf)-1<<12:]
	}
	return len(p), nil
}

// startServer spawns the real service with a result store and a WAL under
// dir and two workers, and waits until it answers GET /v1/jobs.
func startServer(ctx context.Context, cfg *config, dir string) (*serveProc, error) {
	w := &addrWriter{buf: []byte{}, found: make(chan string, 1)}
	cmd := exec.Command(cfg.cli, "-serve", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"), "-wal", filepath.Join(dir, "wal"), "-workers", "2")
	cmd.Stdout, cmd.Stderr = w, w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting prochecker -serve: %w", err)
	}
	s := &serveProc{cmd: cmd}
	fail := func(err error) (*serveProc, error) {
		s.kill()
		return nil, err
	}
	var addr string
	select {
	case addr = <-w.found:
	case <-time.After(60 * time.Second):
		return fail(fmt.Errorf("prochecker -serve did not announce its address"))
	}
	s.client = &server.Client{Base: "http://" + addr}
	for {
		if _, err := s.client.Jobs(ctx); err == nil {
			break
		} else if time.Since(start) > 60*time.Second {
			return fail(fmt.Errorf("prochecker -serve not answering: %w", err))
		}
		time.Sleep(time.Millisecond)
	}
	s.ready = time.Since(start)
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *serveProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		// The server installs its SIGTERM handler only after it starts
		// answering, so a stop right after readiness can end it before the
		// handler exists. Nothing was running then, so that is a stop too.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("prochecker -serve drain: %w", err)
		}
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already failing; Wait below reaps it
		<-done
		return fmt.Errorf("prochecker -serve did not drain")
	}
	return nil
}

// kill ends the server at once and reaps it; safe after stop.
func (s *serveProc) kill() {
	if s.cmd.ProcessState != nil {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // the process may already be gone
	s.cmd.Wait()         //nolint:errcheck // reaping only
}

// peakRSSMB reads the server's peak resident set so far (VmHWM) from
// /proc, in MB.
func (s *serveProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuSeconds reads the server's user+system CPU time from /proc.
func (s *serveProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall, in clock ticks of 1/100 s.
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw)[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) / 100, nil
}

// roundResult is one round: a cold campaign followed to its terminal
// state, then the identical resubmission, served from the store.
type roundResult struct {
	cold, cached         time.Duration
	coldSubmit           time.Duration
	coldFollow           time.Duration
	coldJobs, cachedJobs []jobs.Job
}

// campaignRound runs one round and checks both campaigns: every cell
// done, cold cells computed, cached cells served from the cache, and
// every cell's verdicts accepted by the oracle. A non-nil tracer gets a
// span around the submit and the follow of each campaign.
func campaignRound(ctx context.Context, c *server.Client, spec prochecker.CampaignSpec, tr *tracer, op string, flip string) (roundResult, [2][]string, error) {
	var rr roundResult
	var all [2][]string
	for pass, cached := range []bool{false, true} {
		var problems []string
		name := "campaign.cold"
		if cached {
			name = "campaign.cached"
		}
		root, sp := 0, 0
		if tr != nil {
			root = tr.start(name, op, 0)
			sp = tr.start("jobs.submit", op, root)
		}
		start := time.Now()
		camp, err := c.SubmitCampaign(ctx, spec)
		submitted := time.Now()
		if tr != nil {
			tr.end(sp)
			sp = tr.start("server.follow", op, root)
		}
		if err != nil {
			return rr, all, fmt.Errorf("submitting campaign: %w", err)
		}
		// FollowCampaign panics on a nil callback, so pass a no-op one.
		final, err := c.FollowCampaign(ctx, camp.ID, func(obs.BusEvent) {})
		done := time.Now()
		if tr != nil {
			tr.end(sp)
			tr.end(root)
		}
		if err != nil {
			return rr, all, fmt.Errorf("following campaign %s: %w", camp.ID, err)
		}
		if final.State != jobs.StateDone {
			problems = append(problems, fmt.Sprintf("campaign %s ended %s", camp.ID, final.State))
		}
		if want := len(spec.Impls) * len(spec.Faults); len(final.Jobs) != want {
			problems = append(problems, fmt.Sprintf("campaign %s has %d cells, want %d", camp.ID, len(final.Jobs), want))
		}
		for _, j := range final.Jobs {
			switch {
			case j.State != jobs.StateDone || j.Result == nil:
				problems = append(problems, fmt.Sprintf("cell %s ended %s: %s", prochecker.JobLabel(j.Spec), j.State, j.Error))
				continue
			case j.CacheHit != cached:
				problems = append(problems, fmt.Sprintf("cell %s: cache hit %t, want %t", prochecker.JobLabel(j.Spec), j.CacheHit, cached))
			}
			problems = append(problems, checkVerdicts(j.Spec.Impl, campaignSelection, jobVerdicts(j.Result), flip)...)
		}
		if cached {
			rr.cached, rr.cachedJobs = done.Sub(start), final.Jobs
		} else {
			rr.cold, rr.coldJobs = done.Sub(start), final.Jobs
			rr.coldSubmit, rr.coldFollow = submitted.Sub(start), done.Sub(submitted)
		}
		all[pass] = problems
	}
	return rr, all, nil
}

func jobVerdicts(r *jobs.Result) []verdict {
	vs := make([]verdict, 0, len(r.Verdicts))
	for _, v := range r.Verdicts {
		vs = append(vs, verdict{ID: v.ID, Attack: v.AttackFound, Verified: v.Verified})
	}
	return vs
}

// rounds runs campaign rounds over impls until at least d has passed and
// at least minRounds were made. Each campaign counts as one operation.
func rounds(ctx context.Context, cfg *config, t *tally, s *serveProc, impls []string, first int, d time.Duration, minRounds int, tr *tracer) []roundResult {
	var out []roundResult
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < d; n++ {
		round := first + n
		t.attempted += 2
		rr, problems, err := campaignRound(ctx, s.client, campaignSpec(impls, roundSeed(cfg.seed, round)), tr, fmt.Sprintf("round-%d", round), cfg.flip)
		if err != nil {
			t.fail("round %d: %v", round, err)
			t.failed++ // the round's other campaign is lost with it
			continue
		}
		for pass, p := range problems {
			if len(p) > 0 {
				t.fail("round %d campaign %d: %v", round, pass+1, p)
			}
		}
		out = append(out, rr)
	}
	return out
}

// startMeasuredServer sets the server up setupRepeats times on the same
// store and WAL (every start but the last is drained again, so each
// later start replays the WAL) and returns the last one running with the
// setup times in seconds.
func startMeasuredServer(ctx context.Context, cfg *config, dir string) (*serveProc, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, err := startServer(ctx, cfg, dir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s.ready.Seconds())
		if i == setupRepeats-1 {
			return s, setups, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// runCampaign measures closed-loop campaign rounds against the real
// service: a cold {conformant, srsLTE, OAI} × {benign, faulted} campaign
// followed over SSE, then its cached resubmission.
func runCampaign(ctx context.Context, cfg *config, t *tally) (map[string]metric, error) {
	s, setups, err := startMeasuredServer(ctx, cfg, cfg.work)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	if cfg.trace {
		return traceCampaign(ctx, cfg, t, s)
	}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// The server keeps every job, so its resident set grows with the
	// rounds run; reading the peak after a fixed round count keeps it
	// independent of how fast the rounds went.
	start := time.Now()
	rrs := rounds(ctx, cfg, t, s, allProfiles, 0, 0, rssRounds, nil)
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rrs = append(rrs, rounds(ctx, cfg, t, s, allProfiles, rssRounds, cfg.run-time.Since(start), 0, nil)...)
	elapsed := time.Since(start)
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	var colds []float64
	for _, rr := range rrs {
		colds = append(colds, rr.cold.Seconds())
	}
	cells := float64(len(allProfiles) * len(campaignFaults))
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"result_s":       {median(colds), "s"},
		"cpu_s":          {ratio(cpu1-cpu0, float64(len(rrs))), "s"},
		"peak_rss_mb":    {rss, "MB"},
		"verdicts_per_s": {ratio(2*cells*float64(len(campaignSelection.ids)*len(rrs)), elapsed.Seconds()), "1/s"},
	}, nil
}

// traceCampaign makes the traced run of campaign-mixed: untraced rounds
// as the reference, traced rounds for the service-plane metrics, then the
// last round's six cells through the traced in-process pipeline and
// prochecker.RunJob, plus the model-checker and CEGAR probes on the
// first cell, whose layers the campaign itself never calls.
func traceCampaign(ctx context.Context, cfg *config, t *tally, s *serveProc) (map[string]metric, error) {
	ref := rounds(ctx, cfg, t, s, allProfiles, 0, cfg.run/2, 1, nil)
	tr := newTracer()
	traced := rounds(ctx, cfg, t, s, allProfiles, len(ref), cfg.run/2, minTracedRounds, tr)
	if err := s.stop(); err != nil {
		return nil, err
	}
	layers := serviceMetrics(traced)
	var refCold []float64
	for _, rr := range ref {
		refCold = append(refCold, rr.cold.Seconds())
	}
	layers["trace.total_s"] = layers["campaign.cold_ms.p50"] / 1000
	layers["trace.overhead_s"] = layers["trace.total_s"] - median(refCold)

	ls := newLayerStats()
	seed := roundSeed(cfg.seed, len(ref)+len(traced)-1)
	var first *built
	var runJob []float64
	for _, profile := range allProfiles {
		for _, faults := range campaignFaults {
			c := cell{profile: profile, faults: faults, seed: seed, sel: campaignSelection}
			t.attempted++
			b, vs, err := tracedCell(ctx, tr, ls, "cell:"+c.label(), c)
			if err != nil {
				t.fail("traced cell %s: %v", c.label(), err)
				continue
			}
			if first == nil {
				first = b
			}
			if problems := checkVerdicts(profile, campaignSelection, vs, cfg.flip); len(problems) > 0 {
				t.fail("traced cell %s: %v", c.label(), problems)
			}
			d, err := timeRunJob(ctx, cfg, t, c)
			if err != nil {
				return nil, err
			}
			runJob = append(runJob, d)
		}
	}
	if first == nil {
		return nil, fmt.Errorf("no traced cell succeeded")
	}
	if err := mcProbe(ctx, tr, ls, "mc-probe", first); err != nil {
		return nil, err
	}
	root := tr.start("op", "cegar-probe", 0)
	_, err := tracedPool(ctx, tr, ls, "cegar-probe", root, first, []string{"S06"})
	tr.end(root)
	if err != nil {
		return nil, err
	}
	for k, v := range ls.layerMetrics() {
		layers[k] = v
	}
	layers["jobs.runjob_ms"] = median(runJob)
	return finishTrace(cfg, layers, tr.finish())
}

// timeRunJob runs one cell in process through prochecker.RunJob, the
// analysis alone without the service around it, checks its verdicts and
// returns its wall time in milliseconds.
func timeRunJob(ctx context.Context, cfg *config, t *tally, c cell) (float64, error) {
	t.attempted++
	start := time.Now()
	res, err := prochecker.RunJob(ctx, prochecker.JobSpec{Impl: c.profile, Faults: c.faults, Seed: c.seed, Properties: c.sel.ids})
	d := ms(time.Since(start))
	if err != nil {
		return 0, fmt.Errorf("RunJob %s: %w", c.label(), err)
	}
	if problems := checkVerdicts(c.profile, c.sel, jobVerdicts(res), cfg.flip); len(problems) > 0 {
		t.fail("RunJob %s: %v", c.label(), problems)
	}
	return d, nil
}

// serviceSweep measures the jobs and server layers for a workload that
// does not use the service: a fresh server, traced rounds of the impls'
// campaign for at least d and minRounds, and RunJob on each cell.
func serviceSweep(ctx context.Context, cfg *config, t *tally, tr *tracer, impls []string, d time.Duration, minRounds int) (map[string]float64, error) {
	dir := filepath.Join(cfg.work, "service")
	s, err := startServer(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	rrs := rounds(ctx, cfg, t, s, impls, 0, d, minRounds, tr)
	if err := s.stop(); err != nil {
		return nil, err
	}
	m := serviceMetrics(rrs)
	var runJob []float64
	for _, profile := range impls {
		for _, faults := range campaignFaults {
			d, err := timeRunJob(ctx, cfg, t, cell{profile: profile, faults: faults, seed: roundSeed(cfg.seed, 0), sel: campaignSelection})
			if err != nil {
				return nil, err
			}
			runJob = append(runJob, d)
		}
	}
	m["jobs.runjob_ms"] = median(runJob)
	return m, nil
}

// serviceMetrics summarises rounds into the jobs, server and campaign
// per-layer metrics.
func serviceMetrics(rrs []roundResult) map[string]float64 {
	var cold, cached, submit, follow, queue, run []float64
	hits, cells := 0, 0
	var total time.Duration
	for _, rr := range rrs {
		cold = append(cold, ms(rr.cold))
		cached = append(cached, ms(rr.cached))
		submit = append(submit, ms(rr.coldSubmit))
		follow = append(follow, ms(rr.coldFollow))
		total += rr.cold + rr.cached
		for _, j := range rr.coldJobs {
			queue = append(queue, j.QueueMS)
			run = append(run, j.RunMS)
		}
		cells += len(rr.coldJobs) + len(rr.cachedJobs)
		for _, j := range rr.cachedJobs {
			if j.CacheHit {
				hits++
			}
		}
	}
	return map[string]float64{
		"campaign.cold_ms.p50":   median(cold),
		"campaign.cold_ms.p90":   percentile(cold, 0.9),
		"campaign.cached_ms.p50": median(cached),
		"campaign.cached_ms.p90": percentile(cached, 0.9),
		"campaign.cells_per_s":   ratio(float64(cells), total.Seconds()),
		"jobs.submit_ms":         median(submit),
		"server.follow_ms":       median(follow),
		"jobs.queue_ms.p50":      median(queue),
		"jobs.queue_ms.p90":      percentile(queue, 0.9),
		"jobs.run_ms.p50":        median(run),
		"jobs.run_ms.p90":        percentile(run, 0.9),
		"jobs.cache_hit_ratio":   ratio(float64(hits), float64(cells)),
	}
}
