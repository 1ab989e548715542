package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func promLines(t *testing.T, r *Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b, "prochecker"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := strings.TrimRight(b.String(), "\n")
	if out == "" {
		return nil
	}
	return strings.Split(out, "\n")
}

func TestWritePrometheusFlatInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs.submitted").Add(7)
	r.Gauge("jobs.queue_depth").Set(3)

	got := strings.Join(promLines(t, r), "\n")
	want := strings.Join([]string{
		"# TYPE prochecker_jobs_queue_depth gauge",
		"prochecker_jobs_queue_depth 3",
		"# TYPE prochecker_jobs_submitted counter",
		"prochecker_jobs_submitted 7",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusParsesLabelConvention(t *testing.T) {
	r := NewRegistry()
	r.Counter(LabeledStr("mc.states", "worker", "0")).Add(10)
	r.Counter(LabeledStr("mc.states", "worker", "1")).Add(20)
	r.Counter(LabeledStr("jobs.terminal_by_impl", "impl", "srsue")).Inc()

	lines := promLines(t, r)
	wantLines := []string{
		`prochecker_jobs_terminal_by_impl{impl="srsue"} 1`,
		`prochecker_mc_states{worker="0"} 10`,
		`prochecker_mc_states{worker="1"} 20`,
	}
	for _, want := range wantLines {
		found := false
		for _, line := range lines {
			if line == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exposition missing sample %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	// Both worker instances must sit under ONE family header.
	headers := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE prochecker_mc_states ") {
			headers++
		}
	}
	if headers != 1 {
		t.Errorf("family prochecker_mc_states has %d TYPE headers, want 1", headers)
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rpc.latency_ms", []float64{10, 100})
	h.Observe(5)   // bucket le=10
	h.Observe(50)  // bucket le=100
	h.Observe(500) // +Inf

	got := strings.Join(promLines(t, r), "\n")
	want := strings.Join([]string{
		"# TYPE prochecker_rpc_latency_ms histogram",
		`prochecker_rpc_latency_ms_bucket{le="10"} 1`,
		`prochecker_rpc_latency_ms_bucket{le="100"} 2`,
		`prochecker_rpc_latency_ms_bucket{le="+Inf"} 3`,
		"prochecker_rpc_latency_ms_sum 555",
		"prochecker_rpc_latency_ms_count 3",
	}, "\n")
	if got != want {
		t.Fatalf("histogram exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusLabelledHistogramKeepsBucketOrder(t *testing.T) {
	r := NewRegistry()
	// Bounds where lexical ordering would scramble: "2" > "10" lexically.
	r.Histogram(LabeledStr("mc.level_ms", "worker", "1"), []float64{2, 10}).Observe(1)
	r.Histogram(LabeledStr("mc.level_ms", "worker", "0"), []float64{2, 10}).Observe(5)

	lines := promLines(t, r)
	var buckets []string
	for _, line := range lines {
		if strings.HasPrefix(line, "prochecker_mc_level_ms_bucket") {
			buckets = append(buckets, line)
		}
	}
	want := []string{
		`prochecker_mc_level_ms_bucket{worker="0",le="2"} 0`,
		`prochecker_mc_level_ms_bucket{worker="0",le="10"} 1`,
		`prochecker_mc_level_ms_bucket{worker="0",le="+Inf"} 1`,
		`prochecker_mc_level_ms_bucket{worker="1",le="2"} 1`,
		`prochecker_mc_level_ms_bucket{worker="1",le="10"} 1`,
		`prochecker_mc_level_ms_bucket{worker="1",le="+Inf"} 1`,
	}
	if len(buckets) != len(want) {
		t.Fatalf("got %d bucket lines, want %d:\n%s", len(buckets), len(want), strings.Join(buckets, "\n"))
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("bucket line %d = %q, want %q (le order must stay ascending within each instance)", i, buckets[i], want[i])
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"jobs.queue_depth": "jobs_queue_depth",
		"a-b.c":            "a_b_c",
		"0abc":             "_abc", // leading digit is not a valid first rune
		"x0abc":            "x0abc",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromEscape(t *testing.T) {
	if got := promEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("promEscape = %q", got)
	}
}

func TestSplitLabelsMalformedStaysFlat(t *testing.T) {
	for _, name := range []string{"plain", "odd{noequals}", "trail{k=v"} {
		base, labels := splitLabels(name)
		if base != name || labels != nil {
			t.Errorf("splitLabels(%q) = (%q, %v), want the name untouched", name, base, labels)
		}
	}
}

func TestPrometheusHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("obs.events_published").Add(2)
	srv := httptest.NewServer(r.PrometheusHandler("prochecker"))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(b.String(), "prochecker_obs_events_published 2") {
		t.Fatalf("scrape body missing counter sample:\n%s", b.String())
	}
}

// TestWritePrometheusValidates round-trips a fully loaded registry
// through the in-repo exposition validator — the same check ci.sh runs
// against live scrapes via cmd/promcheck.
func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("obs.events_published").Add(3)
	r.Counter(LabeledStr("mc.states", "worker", "2")).Add(9)
	r.Counter(LabeledStr("jobs.terminal_by_impl", "impl", `we"ird`)).Inc()
	r.Gauge("jobs.queue_depth").Set(1)
	h := r.Histogram(LabeledStr("mc.level_ms", "worker", "0"), nil)
	for _, v := range []float64{0.5, 3, 40, 9999, 123456} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b, "prochecker"); err != nil {
		t.Fatal(err)
	}
	samples, err := ValidatePrometheusText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition output fails its own validator: %v\npayload:\n%s", err, b.String())
	}
	if samples == 0 {
		t.Fatal("validator counted no samples")
	}
}

func TestValidatePrometheusTextRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "some_metric 1\n",
		"dup family":        "# TYPE a counter\n# TYPE a counter\na 1\n",
		"dup series":        "# TYPE a counter\na 1\na 2\n",
		"bad value":         "# TYPE a counter\na one\n",
		"bad name":          "# TYPE 0a counter\n0a 1\n",
		"bad kind":          "# TYPE a widget\na 1\n",
		"empty":             "\n",
		"no +Inf bucket":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"not cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"bounds descending": "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bucket without le": "# TYPE h histogram\nh_bucket{x=\"1\"} 1\n",
		"unquoted label":    "# TYPE a counter\na{k=v} 1\n",
	}
	for name, payload := range cases {
		if _, err := ValidatePrometheusText(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: validator accepted malformed payload:\n%s", name, payload)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b, "x"); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry wrote (%q, %v), want nothing", b.String(), err)
	}
}
