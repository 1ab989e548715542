// Service mode: run the batch-analysis job service (-serve) or act as
// its HTTP client (-submit, -campaign, -wait).
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/server"
)

// serveConfig carries the -serve flags.
type serveConfig struct {
	addr         string
	storeDir     string
	storeMax     int
	queueCap     int
	workers      int
	timeout      time.Duration // per-attempt deadline
	walDir       string        // "" disables the write-ahead log
	retries      int           // attempts per job (<= 1 disables retries)
	retryBackoff time.Duration // base retry backoff
	seed         int64         // retry-jitter seed
	manifestPath string        // "" disables the shutdown manifest
	metricsAddr  string        // debug endpoint (pprof/metrics/healthz); "" disables
	eventBuf     int           // event-bus ring capacity (0 = default)
}

// runServe hosts the job service until SIGINT/SIGTERM, then drains
// gracefully: submissions get 503, running jobs finish, queued jobs are
// cancelled, and the WAL (when enabled) is checkpointed so a restart
// resumes exactly where the drain left off. A drain that had to cancel
// queued work exits with the taxonomy's cancelled code.
func runServe(cfg serveConfig) (err error) {
	// One registry, one event bus: the observer publishes spans onto the
	// bus, the job service publishes lifecycle transitions, and the
	// HTTP server's SSE endpoints (plus the flight recorder) read it.
	reg := obs.NewRegistry()
	bus := obs.NewBus(cfg.eventBuf, reg)
	o := obs.New(obs.WithRegistry(reg), obs.WithBus(bus))
	base := obs.NewContext(context.Background(), o)

	var store *jobs.Store
	var flightDir string
	if cfg.storeDir != "" {
		var serr error
		if store, serr = jobs.OpenStore(cfg.storeDir, cfg.storeMax); serr != nil {
			return serr
		}
		flightDir = filepath.Join(cfg.storeDir, "flight")
	}
	svc, err := jobs.New(jobs.Config{
		Runner:      prochecker.JobRunner(cfg.workers),
		Normalize:   prochecker.NormalizeJobSpec,
		Store:       store,
		WALDir:      cfg.walDir,
		Retry:       jobs.RetryPolicy{MaxAttempts: cfg.retries, Backoff: cfg.retryBackoff, Seed: cfg.seed},
		Queue:       cfg.queueCap,
		Workers:     cfg.workers,
		Timeout:     cfg.timeout,
		BaseContext: base,
		Metrics:     o.Metrics(),
		Events:      bus,
		FlightDir:   flightDir,
	})
	if err != nil {
		return err
	}
	recovery := svc.Recovery()
	if cfg.walDir != "" {
		fmt.Fprintf(os.Stderr,
			"prochecker: wal recovery from %s: %d record(s) replayed, %d result(s) adopted, %d job(s) requeued, %d terminal kept\n",
			cfg.walDir, recovery.Replayed, recovery.Adopted, recovery.Requeued, recovery.Terminal)
	}
	srv := server.New(svc, o.Metrics(), server.WithBus(bus))

	// Optional debug endpoint alongside the API: pprof,
	// Prometheus /metrics, and a /healthz whose readiness flips to 503
	// once the drain starts (orchestrators stop routing to a server
	// that is finishing up, instead of seeing "ok" until the port dies).
	var draining atomic.Bool
	if cfg.metricsAddr != "" {
		dbg, derr := obs.Serve(cfg.metricsAddr, o.Metrics())
		if derr != nil {
			return derr
		}
		defer dbg.Close()
		dbg.SetReadiness(func() error {
			if draining.Load() {
				return errors.New("draining")
			}
			return nil
		})
		fmt.Fprintf(os.Stderr, "prochecker: serving debug endpoint on http://%s (/debug/pprof/, /metrics, /healthz)\n", dbg.Addr)
	}

	// Deferred shutdown manifest: written on every exit path so an
	// aborted serve run still records its durability story.
	drainCancelled := 0
	checkpointed := false
	if cfg.manifestPath != "" {
		defer func() {
			m := o.Manifest()
			m.Config = map[string]string{
				"serve": cfg.addr, "store": storeLabel(cfg.storeDir), "wal": storeLabel(cfg.walDir),
			}
			if cfg.walDir != "" {
				m.Durability = &obs.ManifestDurability{
					WALDir:          cfg.walDir,
					RecordsReplayed: recovery.Replayed,
					ResultsAdopted:  recovery.Adopted,
					JobsRequeued:    recovery.Requeued,
					TerminalKept:    recovery.Terminal,
					QueuedCancelled: drainCancelled,
					Checkpointed:    checkpointed,
				}
			}
			if err != nil {
				m.Failure = &obs.ManifestFailure{
					Class:    resilience.Classify(err).String(),
					ExitCode: resilience.ExitCode(err),
					Errors:   []string{firstLine(err.Error())},
				}
			}
			if werr := m.WriteFile(cfg.manifestPath); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	// The handler goes in before the port opens: a SIGTERM that arrives
	// once requests can be answered must drain, never kill the process.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.addr, err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "prochecker: serving jobs API on http://%s/v1/jobs (store: %s, workers: %d)\n",
		ln.Addr(), storeLabel(cfg.storeDir), cfg.workers)

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-sigCtx.Done():
	}

	fmt.Fprintln(os.Stderr, "prochecker: draining — rejecting new jobs, finishing running ones")
	draining.Store(true)
	srv.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cancelled, drainErr := svc.Drain(drainCtx)
	drainCancelled = cancelled
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx) //nolint:errcheck // drain already settled the work
	if drainErr != nil {
		return drainErr
	}
	checkpointed = cfg.walDir != ""
	if checkpointed {
		fmt.Fprintf(os.Stderr, "prochecker: wal checkpointed in %s\n", cfg.walDir)
	}
	fmt.Fprintf(os.Stderr, "prochecker: drained (%d queued job(s) cancelled)\n", cancelled)
	if cancelled > 0 {
		return fmt.Errorf("drain cancelled %d queued job(s): %w", cancelled, resilience.ErrCancelled)
	}
	return nil
}

func storeLabel(dir string) string {
	if dir == "" {
		return "disabled"
	}
	return dir
}

// clientConfig carries the client-mode flags.
type clientConfig struct {
	serverURL    string
	submit       bool
	campaign     string // comma-separated implementation names
	wait         bool
	poll         time.Duration
	impl         string
	faults       string // ';'-separated specs in campaign mode
	seed         int64
	check        string // property selection ("" or "all" = full catalogue)
	timeout      time.Duration
	retries      int           // HTTP attempts per request (0 = default)
	retryBackoff time.Duration // base backoff between attempts
	follow       bool          // tail the SSE event stream instead of polling
}

// runClient submits work to a remote job service and optionally waits
// for it, mirroring the direct-mode output and exit codes.
func runClient(cfg clientConfig) error {
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	cl := &server.Client{Base: cfg.serverURL, Retries: cfg.retries, Backoff: cfg.retryBackoff, Seed: cfg.seed}
	props := parsePropertySelection(cfg.check)

	if cfg.campaign != "" {
		spec := prochecker.CampaignSpec{
			Impls:      splitList(cfg.campaign, ","),
			Faults:     splitList(cfg.faults, ";"),
			Seed:       cfg.seed,
			Properties: props,
		}
		camp, err := cl.SubmitCampaign(ctx, spec)
		if err != nil {
			return err
		}
		fmt.Printf("campaign %s submitted: %d job(s)\n", camp.ID, len(camp.JobIDs))
		switch {
		case cfg.follow:
			if camp, err = cl.FollowCampaign(ctx, camp.ID, printBusEvent()); err != nil {
				return err
			}
		case cfg.wait:
			if camp, err = cl.WaitCampaign(ctx, camp.ID, cfg.poll); err != nil {
				return err
			}
		default:
			return nil
		}
		for _, j := range camp.Jobs {
			attacks := 0
			var lintSum *jobs.LintSummary
			if j.Result != nil {
				attacks = j.Result.Attacks()
				lintSum = j.Result.Lint
			}
			fmt.Printf("%-7s %-28s %-10s cache=%-5v attacks=%d lint=%s\n",
				j.ID, prochecker.JobLabel(j.Spec), j.State, j.CacheHit, attacks, lintSum)
		}
		if camp.Report != "" {
			fmt.Println()
			fmt.Print(camp.Report)
		}
		return terminalError(fmt.Sprintf("campaign %s", camp.ID), string(camp.State), "", camp.ExitCode)
	}

	job, err := cl.SubmitJob(ctx, jobs.Spec{
		Impl:       cfg.impl,
		Faults:     cfg.faults,
		Seed:       cfg.seed,
		Properties: props,
	})
	if err != nil {
		return err
	}
	fmt.Printf("job %s submitted (state %s, key %.12s…)\n", job.ID, job.State, job.Key)
	switch {
	case cfg.follow:
		if job, err = cl.FollowJob(ctx, job.ID, printBusEvent()); err != nil {
			return err
		}
	case cfg.wait:
		if job, err = cl.WaitJob(ctx, job.ID, cfg.poll); err != nil {
			return err
		}
	default:
		return nil
	}
	if job.Result != nil {
		for _, v := range job.Result.Verdicts {
			verdict := "verified"
			if v.AttackFound {
				verdict = "ATTACK"
			} else if !v.Verified {
				verdict = "inconclusive"
			}
			fmt.Printf("%-4s %-12s %s\n", v.ID, verdict, v.Detail)
		}
		fmt.Printf("\n%d/%d properties violated (cache hit: %v)\n",
			job.Result.Attacks(), len(job.Result.Verdicts), job.CacheHit)
	}
	return terminalError(fmt.Sprintf("job %s", job.ID), string(job.State), job.Error, job.ExitCode)
}

// terminalError converts a terminal job/campaign record back into a
// process error wrapping the matching taxonomy sentinel, so the CLI
// exit code mirrors what the job would have produced locally.
func terminalError(what, state, detail string, exitCode int) error {
	if exitCode == resilience.ExitOK {
		return nil
	}
	kind := resilience.KindInternal
	for k := resilience.KindNone; k <= resilience.KindInternal; k++ {
		if k.ExitCode() == exitCode {
			kind = k
			break
		}
	}
	if detail == "" {
		detail = state
	} else {
		detail = state + ": " + detail
	}
	if sentinel := kind.Sentinel(); sentinel != nil && !errors.Is(sentinel, errInternalSentinel) {
		return fmt.Errorf("%s ended %s: %w", what, detail, sentinel)
	}
	return fmt.Errorf("%s ended %s", what, detail)
}

// errInternalSentinel mirrors resilience's unexported internal anchor:
// Classify treats any unrecognised error as internal, so wrapping is
// unnecessary there.
var errInternalSentinel = resilience.KindInternal.Sentinel()

// parsePropertySelection maps the -check flag onto a job property
// selection: empty or "all" selects the full catalogue; otherwise a
// comma-separated ID list.
func parsePropertySelection(check string) []string {
	if check == "" || check == "all" {
		return nil
	}
	return splitList(check, ",")
}

// printBusEvent renders followed events to stderr (one line each), so
// stdout stays reserved for the final verdict table. Span-begin and
// raw metric events are elided — the tail shows lifecycle, per-level
// exploration progress, completed phases and drop markers.
func printBusEvent() func(obs.BusEvent) {
	var mu sync.Mutex
	return func(ev obs.BusEvent) {
		line, ok := formatBusEvent(ev)
		if !ok {
			return
		}
		mu.Lock()
		fmt.Fprintln(os.Stderr, line)
		mu.Unlock()
	}
}

// formatBusEvent renders one bus event for humans; ok is false for
// event types the live tail elides.
func formatBusEvent(ev obs.BusEvent) (string, bool) {
	scope := ev.Scope
	if scope == "" {
		scope = "-"
	}
	switch ev.Type {
	case "job", "campaign", "snapshot":
		detail := ""
		if a := ev.Attrs["attempt"]; a != "" && a != "1" {
			detail += " attempt=" + a
		}
		if ev.Attrs["cache_hit"] == "true" {
			detail += " cache_hit"
		}
		if c := ev.Attrs["class"]; c != "" && c != "none" {
			detail += " class=" + c
		}
		if ev.Err != "" {
			detail += "  " + firstLine(ev.Err)
		}
		return fmt.Sprintf("[%s] %s %s%s", scope, ev.Type, ev.Name, detail), true
	case "progress":
		return fmt.Sprintf("[%s] level %d: %s states, frontier %s (%s)",
			scope, ev.Value, ev.Attrs["states"], ev.Attrs["frontier"], ev.Attrs["system"]), true
	case "span_end":
		status := ""
		if ev.Err != "" {
			status = "  error: " + firstLine(ev.Err)
		}
		return fmt.Sprintf("[%s] phase %s (%.1fms)%s", scope, ev.Name, ev.DurMS, status), true
	case "dropped":
		return fmt.Sprintf("[%s] ! %d event(s) dropped (stream fell behind ring retention)", scope, ev.Value), true
	case "note":
		return fmt.Sprintf("[%s] %s", scope, ev.Msg), true
	default: // span_start, metric: too chatty for a live tail
		return "", false
	}
}

// runReplayFlight verifies and prints one job's flight recording — the
// post-mortem path: every event the job emitted, in bus order, without
// re-running anything.
func runReplayFlight(path string) error {
	events, err := jobs.ReadFlight(path)
	if err != nil {
		return err
	}
	for _, ev := range events {
		line, ok := formatBusEvent(ev)
		if !ok {
			// The recording keeps everything; the replay prints
			// everything too, including types the live tail elides.
			data := ev.Name
			if ev.Type == "metric" {
				data = fmt.Sprintf("%s=%d", ev.Name, ev.Value)
			}
			line = fmt.Sprintf("[%s] %s %s", ev.Scope, ev.Type, data)
		}
		fmt.Printf("%6d  %s  %s\n", ev.Seq, ev.Time.Format("15:04:05.000"), line)
	}
	fmt.Printf("\n%d event(s) replayed from %s (crc verified)\n", len(events), path)
	return nil
}

// splitList splits on sep, trimming whitespace and keeping explicit
// empty entries out unless the whole input is empty (campaign fault
// lists use "" to mean one benign column).
func splitList(s, sep string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, sep)
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}
