package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"prochecker"
)

// setupRepeats is how many times one run sets up before measuring;
// setup_s is the median over all of them (and over every op's own setup).
const setupRepeats = 11

// minOps is the fewest verdict sets one checkall run measures, whatever
// its run time.
const minOps = 3

// childOutput is what a child operation reports on its standard output.
type childOutput struct {
	SetupMS  float64            `json:"setup_ms"`
	TotalMS  float64            `json:"total_ms"`
	Verdicts []verdict          `json:"verdicts,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Error    string             `json:"error,omitempty"`
}

// runChild executes one child operation in this fresh process, so that
// mc.DefaultEngine (process-wide, up to 32 cached graphs) starts empty:
//
//	setup   prochecker.AnalyzeContext alone
//	op      AnalyzeContext then CheckAllContext, as `prochecker -check all`
//	traced  the same pipeline with a span around every layer call, then
//	        the model-checker probe
func runChild(mode, impl string) int {
	ctx := context.Background()
	var out childOutput
	err := func() error {
		im, err := prochecker.ParseImplementation(impl)
		if err != nil {
			return err
		}
		switch mode {
		case "setup":
			start := time.Now()
			_, err := prochecker.AnalyzeContext(ctx, im)
			out.SetupMS = ms(time.Since(start))
			return err
		case "op":
			start := time.Now()
			a, err := prochecker.AnalyzeContext(ctx, im)
			out.SetupMS = ms(time.Since(start))
			if err != nil {
				return err
			}
			results, err := a.CheckAllContext(ctx)
			out.TotalMS = ms(time.Since(start))
			for _, r := range results {
				out.Verdicts = append(out.Verdicts, verdict{ID: r.ID, Attack: r.AttackFound, Verified: r.Verified})
			}
			return err
		case "traced":
			tr, ls := newTracer(), newLayerStats()
			start := time.Now()
			b, verdicts, err := tracedCell(ctx, tr, ls, "checkall", cell{profile: string(im), sel: fullCatalogue})
			out.TotalMS = ms(time.Since(start))
			if err != nil {
				return err
			}
			out.Verdicts = verdicts
			if err := mcProbe(ctx, tr, ls, "mc-probe", b); err != nil {
				return err
			}
			out.Spans, out.Layers = tr.finish(), ls.layerMetrics()
			return nil
		}
		return fmt.Errorf("unknown child mode %q", mode)
	}()
	if err != nil {
		out.Error = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// childRun is one finished child process with its resource usage.
type childRun struct {
	out   childOutput
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
}

// spawnChild runs one child operation in a fresh process of this binary.
func spawnChild(ctx context.Context, mode, profile string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-impl", profile)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err = cmd.Run()
	r := childRun{wall: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("child %s %s: %w", mode, profile, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.out); err != nil {
		return r, fmt.Errorf("child %s %s: decoding its report: %w", mode, profile, err)
	}
	if r.out.Error != "" {
		return r, fmt.Errorf("child %s %s: %s", mode, profile, r.out.Error)
	}
	return r, nil
}

// runCheckAll measures complete 62-property verdict sets of one profile,
// one per fresh child process, closed loop, until the run time is spent.
func runCheckAll(ctx context.Context, cfg *config, t *tally, profile string) (map[string]metric, error) {
	if cfg.trace {
		return traceCheckAll(ctx, cfg, t, profile)
	}
	var setups, results, cpus, rss []float64
	for i := 0; i < setupRepeats; i++ {
		r, err := spawnChild(ctx, "setup", profile)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.out.SetupMS/1000)
	}
	// Ops start until the run time is spent; one is not started when less
	// than half the previous op's time is left, so that a run lasts about
	// the run time instead of up to one op longer. A run makes at least
	// minOps ops, so that one op slowed by the host weighs at most a third.
	var wall, last time.Duration
	start := time.Now()
	for t.attempted < minOps || time.Since(start)+last/2 < cfg.run {
		t.attempted++
		r, err := spawnChild(ctx, "op", profile)
		last = r.wall
		if err != nil {
			t.fail("%v", err)
			continue
		}
		if problems := checkVerdicts(profile, fullCatalogue, r.out.Verdicts, cfg.flip); len(problems) > 0 {
			t.fail("%s verdict set: %v", profile, problems)
		}
		fmt.Printf("op %d: result_s %.4f cpu_s %.4f peak_rss_mb %.1f\n", t.attempted, r.out.TotalMS/1000, r.cpu.Seconds(), r.rssMB)
		setups = append(setups, r.out.SetupMS/1000)
		results = append(results, r.out.TotalMS/1000)
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		wall += r.wall
	}
	// A run holds only three to seven ops, and the host slows some of them
	// down by a third; the mean of so few spread half as much as their
	// median across seeds, so the op times are reported as means.
	n := float64(len(results))
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"result_s":       {ratio(sum(results), n), "s"},
		"cpu_s":          {ratio(sum(cpus), n), "s"},
		"peak_rss_mb":    {median(rss), "MB"},
		"verdicts_per_s": {ratio(float64(len(fullCatalogue.ids)*len(results)), wall.Seconds()), "1/s"},
	}, nil
}

// traceCheckAll makes the traced run of a checkall workload: one untraced
// verdict set as the reference, one traced verdict set plus the
// model-checker probe, the CLI's -manifest for the same profile to
// cross-check the deterministic counts, and a short service sweep (the
// profile's benign and faulted cells as a campaign) so the jobs and
// server layers are measured too.
func traceCheckAll(ctx context.Context, cfg *config, t *tally, profile string) (map[string]metric, error) {
	t.attempted++
	ref, err := spawnChild(ctx, "op", profile)
	if err != nil {
		return nil, err
	}
	if problems := checkVerdicts(profile, fullCatalogue, ref.out.Verdicts, cfg.flip); len(problems) > 0 {
		t.fail("%s untraced verdict set: %v", profile, problems)
	}

	t.attempted++
	traced, err := spawnChild(ctx, "traced", profile)
	if err != nil {
		return nil, err
	}
	if problems := checkVerdicts(profile, fullCatalogue, traced.out.Verdicts, cfg.flip); len(problems) > 0 {
		t.fail("%s traced verdict set: %v", profile, problems)
	}
	layers := traced.out.Layers

	t.attempted++
	counts, manifestVerdicts, err := cliManifest(ctx, cfg, profile)
	if err != nil {
		return nil, err
	}
	if problems := checkVerdicts(profile, fullCatalogue, manifestVerdicts, cfg.flip); len(problems) > 0 {
		t.fail("%s CLI manifest verdicts: %v", profile, problems)
	}
	ours := manifestCounts{
		Explorations: layers["mc.explorations"], Iterations: layers["cegar.iterations"],
		Refinements: layers["cegar.refinements"], Pruned: layers["dataflow.pruned"],
	}
	fmt.Printf("counts (explorations/iterations/refinements/pruned): traced %s, CLI -manifest %s\n", ours, counts)
	if ours != counts {
		t.fail("%s: traced counts %s differ from the CLI -manifest's %s", profile, ours, counts)
	}

	tr := newTracer()
	svc, err := serviceSweep(ctx, cfg, t, tr, []string{profile}, time.Second, 5)
	if err != nil {
		return nil, err
	}
	for k, v := range svc {
		layers[k] = v
	}
	layers["trace.total_s"] = traced.out.TotalMS / 1000
	layers["trace.overhead_s"] = (traced.out.TotalMS - ref.out.TotalMS) / 1000
	return finishTrace(cfg, layers, append(traced.out.Spans, offsetSpans(tr.finish(), len(traced.out.Spans))...))
}

// manifestCounts are the deterministic counts of one -check all run.
type manifestCounts struct {
	Explorations, Iterations, Refinements, Pruned float64
}

func (c manifestCounts) String() string {
	return fmt.Sprintf("%g/%g/%g/%g", c.Explorations, c.Iterations, c.Refinements, c.Pruned)
}

// cliManifest runs `prochecker -impl <profile> -check all -manifest` and
// reads back its deterministic counts and verdicts.
func cliManifest(ctx context.Context, cfg *config, profile string) (manifestCounts, []verdict, error) {
	path := filepath.Join(cfg.work, "manifest-"+profile+".json")
	cmd := exec.CommandContext(ctx, cfg.cli, "-impl", profile, "-check", "all", "-manifest", path, "-quiet")
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	if err := cmd.Run(); err != nil {
		return manifestCounts{}, nil, fmt.Errorf("prochecker -check all -manifest: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return manifestCounts{}, nil, err
	}
	var m struct {
		Metrics  map[string]json.RawMessage `json:"metrics"`
		Verdicts []struct {
			ID      string `json:"id"`
			Verdict string `json:"verdict"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifestCounts{}, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	num := func(name string) float64 {
		var v float64
		_ = json.Unmarshal(m.Metrics[name], &v) // an absent counter reads as zero
		return v
	}
	counts := manifestCounts{
		Explorations: num("mc.explorations"), Iterations: num("cegar.iterations"),
		Refinements: num("cegar.refinements"), Pruned: num("mc.vacuity_pruned"),
	}
	var vs []verdict
	for _, v := range m.Verdicts {
		vs = append(vs, verdict{
			ID:       v.ID,
			Attack:   v.Verdict == "attack",
			Verified: v.Verdict == "verified" || v.Verdict == "vacuously-holds",
		})
	}
	return counts, vs, nil
}
