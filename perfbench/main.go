// Command perfbench is prochecker's end-to-end benchmark driver. It runs
// one named workload against the real program for a fixed time, checks
// every verdict against a hand-written oracle, and prints every metric by
// name and unit; its last line of output is one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing at all. With -trace 1 the driver instead makes one traced run
// that times each layer from outside, by wrapping spans around the calls
// into that layer's public functions, and reports the per-layer metrics;
// the spans themselves are written to .bench_build/traces/.
//
// Run it through perfbench/run.sh, which builds the driver and the CLI
// from the checkout first; README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries one invocation's settings.
type config struct {
	root     string        // checkout root
	cli      string        // built prochecker binary
	workload string        // workload name
	seed     int64         // workload seed
	run      time.Duration // measuring time
	trace    bool          // traced run (per-layer metrics) instead of end-to-end
	flip     string        // Table I attack whose oracle expectation is inverted
	work     string        // private working directory of this run
}

// tally counts operations and remembers why any failed.
type tally struct {
	attempted, failed int
	problems          []string
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name onto its driver.
var workloads = map[string]func(context.Context, *config, *tally) (map[string]metric, error){
	"checkall-srsLTE": func(ctx context.Context, c *config, t *tally) (map[string]metric, error) {
		return runCheckAll(ctx, c, t, "srsLTE")
	},
	"checkall-conformant": func(ctx context.Context, c *config, t *tally) (map[string]metric, error) {
		return runCheckAll(ctx, c, t, "conformant")
	},
	"campaign-mixed": runCampaign,
}

func main() {
	child := flag.String("child", "", "internal: run one child operation (setup | op | traced) and report it as JSON")
	impl := flag.String("impl", "", "internal: implementation profile of a child operation")
	workload := flag.String("workload", "", "workload to run: checkall-srsLTE | checkall-conformant | campaign-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the campaign fault seeds derive from it")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 makes one traced run reporting per-layer metrics instead of the end-to-end ones")
	root := flag.String("root", ".", "root of the prochecker checkout")
	cli := flag.String("cli", "", "path of the built prochecker CLI")
	flip := flag.String("flip-oracle", "", "invert the oracle's Table I expectation for this attack ID (e.g. I3), to show the oracle rejects it")
	flag.Parse()

	if *child != "" {
		os.Exit(runChild(*child, *impl))
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), " | "))
		os.Exit(2)
	}
	if *cli == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -cli is required, -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := &config{
		root: absRoot, cli: *cli, workload: *workload, seed: *seed,
		run: time.Duration(*seconds) * time.Second, trace: *trace == 1, flip: *flip,
	}
	tmp := filepath.Join(absRoot, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.work, err = os.MkdirTemp(tmp, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(cfg.work)

	t := &tally{}
	metrics, err := run(context.Background(), cfg, t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}
	if !cfg.trace {
		for _, name := range endToEnd {
			if _, ok := metrics[name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report %s\n", cfg.workload, name)
				os.RemoveAll(cfg.work)
				os.Exit(1)
			}
		}
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	printMetrics(metrics)
	line, err := json.Marshal(result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics lists the metrics one per line, ahead of the JSON line.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, 0 for none.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
