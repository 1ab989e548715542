package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []string{"setup_s", "result_s", "cpu_s", "peak_rss_mb", "verdicts_per_s"}

// perLayer lists the per-layer metrics every traced run reports, with
// their units. A layer a workload never calls is measured by a probe
// (see README.md), so every workload reports every metric.
var perLayer = []struct{ name, unit string }{
	{"conformance.suite_ms", "ms"},
	{"conformance.cases", "count"},
	{"conformance.case_failures", "count"},
	{"extract.model_ms", "ms"},
	{"extract.fsm_transitions", "count"},
	{"threat.compose_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"lint.diagnostics", "count"},
	{"dataflow.vacuity_ms", "ms"},
	{"dataflow.pruned", "count"},
	{"dataflow.prune_ratio", "ratio"},
	{"mc.explore_ms", "ms"},
	{"mc.explore_states", "count"},
	{"mc.states_per_s", "1/s"},
	{"mc.pass_ms", "ms"},
	{"mc.pass_ms_max", "ms"},
	{"mc.explorations", "count"},
	{"mc.graph_cache_hits", "count"},
	{"mc.graph_cache_hit_ratio", "ratio"},
	{"cegar.verify_ms", "ms"},
	{"cegar.verify_ms_max", "ms"},
	{"cegar.iterations", "count"},
	{"cegar.refinements", "count"},
	{"cegar.refinements_guard_replay", "count"},
	{"cegar.refinements_prune_rule", "count"},
	{"cegar.attacks", "count"},
	{"cegar.useful_iteration_ratio", "ratio"},
	{"cegar.pool_utilisation", "ratio"},
	{"props.equivalence_ms", "ms"},
	{"props.knowledge_ms", "ms"},
	{"report.pool_ms", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_ms.p50", "ms"},
	{"jobs.queue_ms.p90", "ms"},
	{"jobs.run_ms.p50", "ms"},
	{"jobs.run_ms.p90", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.runjob_ms", "ms"},
	{"server.follow_ms", "ms"},
	{"campaign.cold_ms.p50", "ms"},
	{"campaign.cold_ms.p90", "ms"},
	{"campaign.cached_ms.p50", "ms"},
	{"campaign.cached_ms.p90", "ms"},
	{"campaign.cells_per_s", "1/s"},
	{"trace.total_s", "s"},
	{"trace.overhead_s", "s"},
	{"code.go_lines", "count"},
}

// offsetSpans renumbers spans recorded by a second tracer so they can
// share one trace file with the first tracer's n spans.
func offsetSpans(spans []span, n int) []span {
	for i := range spans {
		spans[i].ID += n
		if spans[i].Parent != 0 {
			spans[i].Parent += n
		}
	}
	return spans
}

// finishTrace writes the run's spans, per-layer self times and Go line
// counts to .bench_build/traces/, prints the self-time split, and returns
// the per-layer metrics.
func finishTrace(cfg *config, layers map[string]float64, spans []span) (map[string]metric, error) {
	lines, err := goLines(cfg.root)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, n := range lines {
		total += n
	}
	layers["code.go_lines"] = float64(total)
	self := selfByLayer(spans)

	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Workload      string             `json:"workload"`
		Seed          int64              `json:"seed"`
		Layers        map[string]float64 `json:"layers"`
		SelfMSByLayer map[string]float64 `json:"self_ms_by_layer"`
		GoLines       map[string]int     `json:"go_lines_by_module"`
		Spans         []span             `json:"spans"`
	}{cfg.workload, cfg.seed, layers, self, lines, spans}); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}

	fmt.Printf("spans: %d written to %s\nself time by layer (ms):\n", len(spans), path)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("  %-12s %12.1f\n", n, self[n])
	}
	fmt.Printf("non-test Go lines: %d over %d modules (per module in the trace file)\n", total, len(lines))

	m := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = metric{layers[pl.name], pl.unit}
	}
	return m, nil
}

// goLines counts the non-test Go lines of every module of the checkout
// (the root package, each package under internal/, cmd/ and examples/),
// leaving out the benchmark itself and build outputs.
func goLines(root string) (map[string]int, error) {
	out := make(map[string]int)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		module := filepath.ToSlash(filepath.Dir(rel))
		if module == "." {
			module = "prochecker"
		}
		out[strings.TrimPrefix(module, "internal/")] += bytes.Count(src, []byte("\n"))
		return nil
	})
	return out, err
}
