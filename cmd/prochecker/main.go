// Command prochecker runs the analysis pipeline from the command line:
// extract a model from an implementation profile, render it, verify
// properties, run the conformance suite under fault injection, and
// validate the headline attacks on the testbed.
//
// Usage:
//
//	prochecker -impl srsLTE -dot            # extracted FSM as Graphviz
//	prochecker -impl OAI -smv               # threat model in SMV syntax
//	prochecker -impl conformant -check S06  # verify one property
//	prochecker -impl srsLTE -check all      # verify the full catalogue
//	prochecker -impl OAI -validate p1       # testbed validation
//	prochecker -list                        # list the 62 properties
//	prochecker -impl srsLTE -lint           # static model diagnostics (PC0xx)
//
//	# run the conformance suite under a seeded fault-injection adversary
//	prochecker -impl srsLTE -conformance -faults drop=0.05,corrupt=0.02 -seed 42
//
//	# bound any run with a deadline
//	prochecker -impl OAI -check all -timeout 30s
//
//	# pin the catalogue/exploration worker pool (default: GOMAXPROCS)
//	prochecker -impl srsLTE -check all -workers 4
//
//	# observability: manifest, live metrics endpoint, verbosity
//	prochecker -impl srsLTE -check all -manifest run.json -metrics-addr :6060
//	prochecker -impl srsLTE -check all -v        # stream span events
//	prochecker -impl srsLTE -check all -quiet    # results only
//
//	# service mode: job queue + HTTP API + content-addressed result store
//	prochecker -serve :8080 -store /var/lib/prochecker
//	prochecker -server http://127.0.0.1:8080 -submit -impl srsLTE -check S06 -wait
//	prochecker -server http://127.0.0.1:8080 -campaign conformant,srsLTE,OAI -faults drop=0.15 -wait
//
//	# crash-safe service: WAL-backed durable queue + taxonomy-driven retries
//	prochecker -serve :8080 -store /var/lib/prochecker -wal /var/lib/prochecker-wal \
//	    -retries 3 -retry-backoff 200ms
//
//	# live observability: tail a campaign over SSE, replay a job's flight
//	prochecker -server http://127.0.0.1:8080 -campaign conformant,srsLTE,OAI -follow
//	prochecker -replay-flight /var/lib/prochecker/flight/j-0001.jsonl
//
// Exit codes follow the resilience taxonomy: 0 clean, 1 internal
// error, 2 cancelled/deadline, 3 fault-induced failure, 4 analysis
// budget exhausted, 5 recovered test-case panic, 6 model-lint gate,
// 7 retry attempts exhausted (job quarantined), 8 worker lease
// expired (only jobs restored from an older write-ahead log).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prochecker"
	"prochecker/internal/channel"
	"prochecker/internal/conformance"
	"prochecker/internal/jobs"
	"prochecker/internal/lint"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ue"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prochecker:", err)
		fmt.Fprintf(os.Stderr, "prochecker: failure class: %s\n", resilience.Classify(err))
		os.Exit(resilience.ExitCode(err))
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("prochecker", flag.ContinueOnError)
	impl := fs.String("impl", string(prochecker.Conformant), "implementation profile: conformant | srsLTE | OAI")
	dot := fs.Bool("dot", false, "print the extracted FSM in Graphviz DOT format")
	smv := fs.Bool("smv", false, "print the threat-instrumented model in SMV syntax")
	logOut := fs.Bool("log", false, "print the information-rich execution log")
	coverage := fs.Bool("coverage", false, "print the NAS-layer coverage")
	check := fs.String("check", "", "verify one property by ID, or 'all'")
	lintMode := fs.Bool("lint", false, "run the model linter over the extracted FSM and threat composition, print the diagnostics, and gate the exit code on -lint-gate")
	lintGate := fs.String("lint-gate", "error", "with -lint, minimum severity that fails the run: info | warn | error | none")
	validate := fs.String("validate", "", "validate an attack on the testbed: p1 | p3")
	list := fs.Bool("list", false, "list the property catalogue")
	runConf := fs.Bool("conformance", false, "run the conformance suite and report per-case outcomes")
	faults := fs.String("faults", "", "fault-injection spec applied to the conformance run behind -conformance and analysis modes (-lint, -dot, -check, ...), e.g. drop=0.05,corrupt=0.02,dup=0.01,reorder=0.1")
	seed := fs.Int64("seed", 1, "base PRNG seed for -faults (runs are reproducible per seed)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no deadline); with -serve, bounds each execution attempt, and an expired attempt ends the job cancelled")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"worker pool size for -check: bounds both property-level parallelism and the model checker's exploration pool (1 = fully sequential)")
	quiet := fs.Bool("quiet", false, "suppress progress output on stderr (results only)")
	verbose := fs.Bool("v", false, "stream span begin/end events to stderr as they happen")
	manifestPath := fs.String("manifest", "", "write a machine-readable run manifest (JSON) to this path")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics (/metrics) and pprof (/debug/pprof/) on this address, e.g. :6060 or 127.0.0.1:0")
	serveWait := fs.Bool("serve-wait", false, "with -metrics-addr, keep the metrics endpoint up after the run completes until SIGINT/SIGTERM")
	serveAddr := fs.String("serve", "", "run the batch-analysis job service on this address, e.g. :8080 or 127.0.0.1:0")
	storeDir := fs.String("store", "", "with -serve, content-addressed result store directory (empty = caching disabled)")
	storeMax := fs.Int("store-max", jobs.DefaultStoreEntries, "with -serve -store, LRU bound on stored results")
	queueCap := fs.Int("queue", jobs.DefaultQueueCap, "with -serve, bounded job-queue capacity (full queue answers 429 with Retry-After)")
	walDir := fs.String("wal", "", "with -serve, write-ahead-log directory making the queue crash-safe (empty = in-memory only)")
	retries := fs.Int("retries", 0, "with -serve, attempts per job for retryable failure classes (exhaustion quarantines the job); with -server, HTTP attempts per request; 0 = per-mode default (no job retries, 3 HTTP attempts)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base exponential backoff between retry attempts (jittered; 0 = per-mode default)")
	serverURL := fs.String("server", "", "client mode: job-service base URL, e.g. http://127.0.0.1:8080")
	submit := fs.Bool("submit", false, "with -server, submit one job built from -impl/-faults/-seed/-check")
	campaignList := fs.String("campaign", "", "with -server, submit a campaign matrix: comma-separated implementations crossed with ';'-separated -faults specs")
	wait := fs.Bool("wait", false, "with -submit/-campaign, poll until terminal and print verdicts")
	poll := fs.Duration("poll", 150*time.Millisecond, "with -wait, polling interval")
	follow := fs.Bool("follow", false, "with -submit/-campaign, tail the job/campaign event stream (SSE) live until terminal, then print verdicts")
	eventBuf := fs.Int("event-buf", 0, "with -serve, event-bus ring capacity for SSE streaming and the flight recorder (0 = default)")
	replayFlight := fs.String("replay-flight", "", "replay a per-job flight recording (<store>/flight/<job-id>.jsonl) after verifying its CRC footer, then exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, not a failure
		}
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *quiet && *verbose {
		return errors.New("-quiet and -v are mutually exclusive")
	}
	if *serveWait && *metricsAddr == "" {
		return errors.New("-serve-wait requires -metrics-addr")
	}
	if *serveAddr != "" && (*serverURL != "" || *submit || *campaignList != "") {
		return errors.New("-serve is a server mode; it excludes -server/-submit/-campaign")
	}
	if (*submit || *campaignList != "") && *serverURL == "" {
		return errors.New("-submit/-campaign require -server URL")
	}
	if *submit && *campaignList != "" {
		return errors.New("-submit and -campaign are mutually exclusive")
	}
	if *wait && !*submit && *campaignList == "" {
		return errors.New("-wait requires -submit or -campaign")
	}
	if *follow && !*submit && *campaignList == "" {
		return errors.New("-follow requires -submit or -campaign")
	}
	if *follow && *wait {
		return errors.New("-follow and -wait are mutually exclusive (follow already ends at the terminal state)")
	}
	if *replayFlight != "" {
		return runReplayFlight(*replayFlight)
	}

	if *serveAddr != "" {
		return runServe(serveConfig{
			addr:         *serveAddr,
			storeDir:     *storeDir,
			storeMax:     *storeMax,
			queueCap:     *queueCap,
			workers:      *workers,
			timeout:      *timeout,
			walDir:       *walDir,
			retries:      *retries,
			retryBackoff: *retryBackoff,
			seed:         *seed,
			manifestPath: *manifestPath,
			metricsAddr:  *metricsAddr,
			eventBuf:     *eventBuf,
		})
	}
	if *submit || *campaignList != "" {
		return runClient(clientConfig{
			serverURL:    *serverURL,
			submit:       *submit,
			campaign:     *campaignList,
			wait:         *wait,
			poll:         *poll,
			impl:         *impl,
			faults:       *faults,
			seed:         *seed,
			check:        *check,
			timeout:      *timeout,
			retries:      *retries,
			retryBackoff: *retryBackoff,
			follow:       *follow,
		})
	}

	level := obs.LevelNormal
	switch {
	case *quiet:
		level = obs.LevelQuiet
	case *verbose:
		level = obs.LevelVerbose
	}

	// The observer is built only when some output depends on it —
	// manifest, metrics endpoint, verbose event stream, or the live
	// progress line for a full catalogue run on an interactive stderr.
	wantProgress := *check == "all" && level == obs.LevelNormal && stderrIsTTY()
	var o *obs.Observer
	if *manifestPath != "" || *metricsAddr != "" || *verbose || wantProgress {
		o = obs.New(obs.WithEventSink(level, stderrSink()))
	}

	ctx := obs.NewContext(context.Background(), o)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *metricsAddr != "" {
		srv, serr := obs.Serve(*metricsAddr, o.Metrics())
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "prochecker: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
		if *serveWait {
			defer waitForShutdown(srv.Addr)
		}
	}

	// Deferred manifest write: it runs on every exit path, so a
	// cancelled or failed run still leaves a well-formed manifest with
	// its failure classification and whatever spans were open.
	var verdicts []obs.ManifestVerdict
	var lintManifest *obs.ManifestLint
	if *manifestPath != "" {
		cfg := map[string]string{"impl": *impl, "workers": strconv.Itoa(*workers)}
		if *check != "" {
			cfg["check"] = *check
		}
		if *runConf {
			cfg["conformance"] = "true"
		}
		if *lintMode {
			cfg["lint_gate"] = *lintGate
		}
		if *faults != "" {
			cfg["faults"] = *faults
			cfg["seed"] = strconv.FormatInt(*seed, 10)
		}
		if *timeout > 0 {
			cfg["timeout"] = timeout.String()
		}
		defer func() {
			m := o.Manifest()
			m.Config = cfg
			m.Verdicts = verdicts
			m.Lint = lintManifest
			if err != nil {
				m.Failure = &obs.ManifestFailure{
					Class:    resilience.Classify(err).String(),
					ExitCode: resilience.ExitCode(err),
					Errors:   errorStrings(err),
				}
			}
			if werr := m.WriteFile(*manifestPath); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	if wantProgress && o != nil {
		stop := startProgress(o.Metrics(), len(prochecker.Properties()))
		defer stop()
	}

	if *list {
		for _, p := range prochecker.Properties() {
			common := ""
			if p.CommonLTEInspector != "" {
				common = " [LTEInspector-common]"
			}
			fmt.Printf("%-4s %-8s %-26s%s\n     %s\n", p.ID, p.Class, p.Kind, common, p.Text)
		}
		return nil
	}

	implementation, err := prochecker.ParseImplementation(*impl)
	if err != nil {
		return err
	}

	if *runConf {
		return runConformance(ctx, implementation, *faults, *seed)
	}

	switch *validate {
	case "":
	case "p1":
		res, err := prochecker.ValidateP1(implementation)
		if err != nil {
			return err
		}
		fmt.Printf("P1 service disruption on %s:\n", implementation)
		fmt.Printf("  stale challenge accepted: %v\n", res.StaleChallengeAccepted)
		fmt.Printf("  keys desynchronised:      %v\n", res.KeysDesynchronised)
		fmt.Printf("  service disrupted:        %v\n", res.ServiceDisrupted)
		fmt.Printf("  attack succeeded:         %v\n", res.Succeeded())
		return nil
	case "p3":
		res, err := prochecker.ValidateP3(implementation)
		if err != nil {
			return err
		}
		fmt.Printf("P3 selective denial on %s:\n", implementation)
		fmt.Printf("  commands dropped:   %d\n", res.CommandsDropped)
		fmt.Printf("  procedure aborted:  %v\n", res.ProcedureAborted)
		fmt.Printf("  GUTI unchanged:     %v\n", res.GUTIUnchangedAtUE)
		fmt.Printf("  attack succeeded:   %v\n", res.Succeeded())
		return nil
	default:
		return fmt.Errorf("unknown -validate %q (want p1 or p3)", *validate)
	}

	if !*dot && !*smv && !*logOut && !*coverage && !*lintMode && *check == "" {
		fs.Usage()
		return nil
	}

	gateSeverity, gateEnabled, err := parseLintGate(*lintGate)
	if err != nil {
		return err
	}

	faultCfg, err := channel.ParseFaultSpec(*faults, *seed)
	if err != nil {
		return err
	}
	a, err := prochecker.AnalyzeContext(ctx, implementation,
		prochecker.WithWorkers(*workers), prochecker.WithObserver(o),
		prochecker.WithFaults(faultCfg))
	if err != nil {
		return err
	}
	lintManifest = manifestLint(a.LintReport())
	switch {
	case *dot:
		fmt.Print(a.FSMDOT())
	case *smv:
		fmt.Print(a.SMV())
	case *logOut:
		fmt.Print(a.Log())
	case *coverage:
		fmt.Println(a.Coverage())
	}
	if *lintMode {
		fmt.Print(a.LintReport().Render())
		if gateEnabled {
			if gerr := a.LintGate(gateSeverity); gerr != nil {
				return gerr
			}
		}
	}
	if *check == "" {
		return nil
	}

	var results []prochecker.PropertyResult
	var checkErr error
	if *check == "all" {
		// Graceful degradation: report every completed verdict even when
		// some properties failed or the deadline cut the catalogue short.
		results, checkErr = a.CheckAllContext(ctx)
	} else {
		r, err := a.CheckPropertyContext(ctx, *check)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	attacks := 0
	for _, r := range results {
		verdict := "verified"
		if r.AttackFound {
			verdict = "ATTACK"
			attacks++
		} else if r.Vacuous {
			verdict = "vacuous"
		} else if !r.Verified {
			verdict = "inconclusive"
		}
		verdicts = append(verdicts, obs.ManifestVerdict{
			ID:      r.ID,
			Verdict: manifestVerdict(r),
			DurMS:   obs.DurMS(r.Duration),
			Detail:  r.Detail,
		})
		fmt.Printf("%-4s %-12s %6dms  %s\n", r.ID, verdict, r.Duration.Milliseconds(), r.Detail)
	}
	if len(results) > 1 || checkErr != nil {
		total := len(prochecker.Properties())
		fmt.Printf("\n%d/%d properties violated on %s (%d of %d evaluated)\n",
			attacks, len(results), implementation, len(results), total)
	}
	if checkErr != nil {
		return fmt.Errorf("partial catalogue: %w", checkErr)
	}
	return nil
}

// runConformance executes the implementation's conformance suite —
// optionally under a seeded fault-injection adversary — and reports
// per-case outcomes. Fault-induced case failures are expected results,
// not process failures; only pipeline-level errors (cancellation,
// unknown profile, bad fault spec) are returned.
func runConformance(ctx context.Context, impl prochecker.Implementation, faultSpec string, seed int64) error {
	var profile ue.Profile
	switch impl {
	case prochecker.Conformant:
		profile = ue.ProfileConformant
	case prochecker.SRSLTE:
		profile = ue.ProfileSRS
	case prochecker.OAI:
		profile = ue.ProfileOAI
	default:
		return fmt.Errorf("unknown implementation %q", impl)
	}
	cfg, err := channel.ParseFaultSpec(faultSpec, seed)
	if err != nil {
		return err
	}
	opts := conformance.RunOptions{}
	if cfg.Enabled() {
		opts.Adversary = cfg.AdversaryFactory()
	}
	rep, runErr := conformance.RunSuiteContext(ctx, profile, true, opts)
	fmt.Printf("conformance suite on %s (faults: %s, seed %d)\n\n", impl, cfg, seed)
	for _, res := range rep.Results {
		mark := "PASS"
		detail := ""
		if res.Err != nil {
			mark = "FAIL"
			detail = "  " + firstLine(res.Err.Error())
		}
		fmt.Printf("  %-4s %-44s faults=%-3d%s\n", mark, res.Name, res.Faults, detail)
	}
	fmt.Printf("\n%d/%d cases passed, %d channel fault(s) injected\n",
		rep.Passed(), len(rep.Results), rep.FaultCount())
	if runErr != nil && errors.Is(runErr, resilience.ErrCancelled) {
		return fmt.Errorf("partial suite: %w", runErr)
	}
	return runErr
}

// firstLine trims a multi-line error (e.g. a recovered panic with its
// stack) to its headline for the per-case table.
func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}

// parseLintGate maps the -lint-gate flag onto a lint severity; "none"
// disables gating (print-only mode).
func parseLintGate(s string) (lint.Severity, bool, error) {
	if strings.EqualFold(strings.TrimSpace(s), "none") {
		return 0, false, nil
	}
	sev, err := lint.ParseSeverity(s)
	if err != nil {
		return 0, false, fmt.Errorf("-lint-gate: %w", err)
	}
	return sev, true, nil
}

// manifestLint converts a lint report into the manifest's plain-data
// shape.
func manifestLint(rep *lint.Report) *obs.ManifestLint {
	if rep == nil {
		return nil
	}
	out := &obs.ManifestLint{}
	out.Errors, out.Warnings, out.Infos = rep.Counts()
	for _, d := range rep.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, obs.ManifestDiagnostic{
			Code:     d.Code,
			Severity: d.Severity.String(),
			Ref:      d.Ref.String(),
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}
	return out
}

// manifestVerdict maps a CLI result onto the manifest verdict
// vocabulary.
func manifestVerdict(r prochecker.PropertyResult) string {
	switch {
	case r.AttackFound:
		return "attack"
	case r.Vacuous:
		return "vacuously-holds"
	case r.Verified:
		return "verified"
	default:
		return "inconclusive"
	}
}

// errorStrings flattens an aggregated run error into one message per
// member for the manifest's failure record.
func errorStrings(err error) []string {
	var list resilience.ErrorList
	if errors.As(err, &list) {
		out := make([]string, 0, len(list))
		for _, e := range list {
			out = append(out, firstLine(e.Error()))
		}
		return out
	}
	return []string{firstLine(err.Error())}
}

// stderrIsTTY reports whether stderr is an interactive terminal — the
// gate for the carriage-return progress line, which would garble piped
// or redirected output.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// stderrSink renders observer events for -v: one line per span
// begin/end (with duration and error) and free-form notes, serialised
// through a mutex because spans end on worker goroutines.
func stderrSink() func(obs.Event) {
	var mu sync.Mutex
	start := time.Now()
	return func(ev obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		at := obs.DurMS(ev.Time.Sub(start))
		switch ev.Kind {
		case "begin":
			fmt.Fprintf(os.Stderr, "[%9.1fms] begin %s\n", at, ev.Span)
		case "end":
			status := ""
			if ev.Err != "" {
				status = "  error: " + firstLine(ev.Err)
			}
			fmt.Fprintf(os.Stderr, "[%9.1fms] end   %s (%.1fms)%s\n", at, ev.Span, obs.DurMS(ev.Dur), status)
		case "note":
			fmt.Fprintf(os.Stderr, "[%9.1fms] %s\n", at, ev.Msg)
		}
	}
}

// startProgress redraws a single carriage-return progress line on
// stderr every 250ms from the live metrics registry; the returned stop
// function clears the line and waits for the drawer to exit.
func startProgress(reg *obs.Registry, total int) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(finished)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				fmt.Fprintf(os.Stderr, "\r%*s\r", 78, "")
				return
			case <-tick.C:
				checked := reg.Counter("report.properties_checked").Value()
				states := reg.Counter("mc.states_explored").Value()
				rate := float64(states) / time.Since(start).Seconds()
				fmt.Fprintf(os.Stderr, "\rchecking %d/%d properties · %d states explored · %.0f states/s ",
					checked, total, states, rate)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// waitForShutdown blocks (from a deferred call, after the run body and
// the manifest write) until SIGINT/SIGTERM so -serve-wait keeps the
// metrics endpoint scrapeable after the run completes.
func waitForShutdown(addr string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(ch)
	fmt.Fprintf(os.Stderr, "prochecker: run complete; serving metrics on http://%s until interrupted\n", addr)
	<-ch
}
