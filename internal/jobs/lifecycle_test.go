package jobs

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// lifecycleTrace renders what a scenario left behind, timestamps
// stripped: per job (in ID order) every WAL record and every scoped bus
// event in append order, then the queue-depth metric events, then the
// final jobs.* counters and gauges (histograms by count). Read
// before Close, so the WAL still holds the full history rather than the
// drain's compacted checkpoint.
func lifecycleTrace(t *testing.T, walDir string, bus *obs.Bus, reg *obs.Registry) string {
	t.Helper()
	perJob := map[string][]string{}

	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(bytes.NewReader(data))
		for {
			line, rerr := rd.ReadBytes('\n')
			if len(line) == 0 {
				break
			}
			rec, ok := decodeRecord(line)
			if !ok {
				t.Fatalf("undecodable wal line in %s: %q", seg, line)
			}
			parts := []string{"wal", string(rec.Type)}
			for _, kv := range [][2]string{
				{"state", string(rec.State)}, {"class", rec.Class}, {"error", rec.Error},
			} {
				if kv[1] != "" {
					parts = append(parts, kv[0]+"="+kv[1])
				}
			}
			if rec.Attempt > 0 {
				parts = append(parts, fmt.Sprintf("attempt=%d", rec.Attempt))
			}
			if rec.CacheHit {
				parts = append(parts, "cache_hit")
			}
			perJob[rec.ID] = append(perJob[rec.ID], strings.Join(parts, " "))
			if rerr != nil {
				break
			}
		}
	}

	var depth []string
	sub := bus.Subscribe(0)
	defer sub.Close()
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Type == "metric" {
			depth = append(depth, fmt.Sprintf("%s=%d", ev.Name, ev.Value))
			continue
		}
		parts := []string{"bus", ev.Type, ev.Name}
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, k+"="+ev.Attrs[k])
		}
		if ev.Err != "" {
			parts = append(parts, "err="+ev.Err)
		}
		perJob[ev.Scope] = append(perJob[ev.Scope], strings.Join(parts, " "))
	}

	ids := make([]string, 0, len(perJob))
	for id := range perJob {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		for _, line := range perJob[id] {
			fmt.Fprintf(&b, "%s %s\n", id, line)
		}
	}
	fmt.Fprintf(&b, "events %s\n", strings.Join(depth, " "))

	var metrics []string
	for name, v := range reg.Snapshot() {
		if !strings.HasPrefix(name, "jobs.") {
			continue
		}
		switch v := v.(type) {
		case int64:
			metrics = append(metrics, fmt.Sprintf("%s=%d", name, v))
		case obs.HistogramSnapshot:
			metrics = append(metrics, fmt.Sprintf("%s#%d", name, v.Count))
		}
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		fmt.Fprintf(&b, "metric %s\n", m)
	}
	return b.String()
}

// waitState polls until the job reaches want.
func waitState(t *testing.T, s *Service, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := s.Get(id); j.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestLifecyclePinned pins the observable lifecycle of every execution
// path — success, retry, quarantine, cancel while queued and while
// running — down to the WAL record sequence, the bus
// event sequence and the metric values, so a rework of the queue
// transitions cannot shift any of them.
func TestLifecyclePinned(t *testing.T) {
	spec := Spec{Impl: "srsLTE", Seed: 1}
	local := func(t *testing.T, runner Runner, retry RetryPolicy) (*Service, string, *obs.Bus, *obs.Registry) {
		dir, bus, reg := t.TempDir(), obs.NewBus(256, nil), obs.NewRegistry()
		s, err := New(Config{Runner: runner, Workers: 1, WALDir: dir, Events: bus, Metrics: reg, Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, dir, bus, reg
	}
	submit := func(t *testing.T, s *Service, sp Spec) string {
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}

	scenarios := []struct {
		name string
		run  func(t *testing.T) (string, *obs.Bus, *obs.Registry)
	}{
		{"local-done", func(t *testing.T) (string, *obs.Bus, *obs.Registry) {
			s, dir, bus, reg := local(t, (&fakeRunner{}).run, RetryPolicy{})
			id := submit(t, s, spec)
			waitState(t, s, id, StateDone)
			return dir, bus, reg
		}},
		{"local-retry-done", func(t *testing.T) (string, *obs.Bus, *obs.Registry) {
			fr := &flakyRunner{failures: 1, err: resilience.ErrFaultInjected}
			s, dir, bus, reg := local(t, fr.run, retryPolicy(3))
			id := submit(t, s, spec)
			waitState(t, s, id, StateDone)
			return dir, bus, reg
		}},
		{"local-quarantine", func(t *testing.T) (string, *obs.Bus, *obs.Registry) {
			fr := &flakyRunner{failures: 99, err: resilience.ErrFaultInjected}
			s, dir, bus, reg := local(t, fr.run, retryPolicy(2))
			id := submit(t, s, spec)
			waitState(t, s, id, StateQuarantined)
			return dir, bus, reg
		}},
		{"cancel-queued", func(t *testing.T) (string, *obs.Bus, *obs.Registry) {
			fr := &fakeRunner{gate: make(chan struct{})}
			s, dir, bus, reg := local(t, fr.run, RetryPolicy{})
			first := submit(t, s, spec)
			waitState(t, s, first, StateRunning)
			second := submit(t, s, Spec{Impl: "OAI", Seed: 1})
			if _, err := s.Cancel(second); err != nil {
				t.Fatal(err)
			}
			close(fr.gate)
			waitState(t, s, first, StateDone)
			return dir, bus, reg
		}},
		{"cancel-running-local", func(t *testing.T) (string, *obs.Bus, *obs.Registry) {
			fr := &fakeRunner{gate: make(chan struct{}), respect: true}
			s, dir, bus, reg := local(t, fr.run, RetryPolicy{})
			id := submit(t, s, spec)
			waitState(t, s, id, StateRunning)
			if _, err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, id, StateCancelled)
			return dir, bus, reg
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir, bus, reg := sc.run(t)
			got := lifecycleTrace(t, dir, bus, reg)
			if want := lifecycleGolden[sc.name]; got != want {
				t.Errorf("lifecycle drifted; got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// lifecycleGolden is the trace each TestLifecyclePinned scenario must
// leave behind.
var lifecycleGolden = map[string]string{
	"local-done": `j-0001 wal submitted
j-0001 wal started attempt=1
j-0001 wal terminal state=done class=none
j-0001 bus job queued
j-0001 bus job running attempt=1
j-0001 bus job done attempt=1 class=none
events jobs.queue_depth=1 jobs.queue_depth=0
metric jobs.cache_misses=1
metric jobs.completed=1
metric jobs.queue_depth=0
metric jobs.queue_latency_ms#1
metric jobs.running=0
metric jobs.store_entries=0
metric jobs.store_evictions=0
metric jobs.store_quarantined=0
metric jobs.submitted=1
metric jobs.terminal.none=1
metric jobs.terminal_by_impl{impl=srsLTE}=1
`,
	"local-retry-done": `j-0001 wal submitted
j-0001 wal started attempt=1
j-0001 wal started attempt=2
j-0001 wal terminal state=done class=none
j-0001 bus job queued
j-0001 bus job running attempt=1
j-0001 bus job retrying attempt=1
j-0001 bus job running attempt=2
j-0001 bus job done attempt=2 class=none
events jobs.queue_depth=1 jobs.queue_depth=0 jobs.queue_depth=0
metric jobs.cache_misses=1
metric jobs.completed=1
metric jobs.queue_depth=0
metric jobs.queue_latency_ms#1
metric jobs.retries=1
metric jobs.running=0
metric jobs.store_entries=0
metric jobs.store_evictions=0
metric jobs.store_quarantined=0
metric jobs.submitted=1
metric jobs.terminal.none=1
metric jobs.terminal_by_impl{impl=srsLTE}=1
`,
	"local-quarantine": `j-0001 wal submitted
j-0001 wal started attempt=1
j-0001 wal started attempt=2
j-0001 wal terminal state=quarantined class=retry-exhausted error=jobs: j-0001 quarantined after 2 attempts (last: attempt 2: fault injected): retry attempts exhausted
j-0001 bus job queued
j-0001 bus job running attempt=1
j-0001 bus job retrying attempt=1
j-0001 bus job running attempt=2
j-0001 bus job quarantined attempt=2 class=retry-exhausted err=jobs: j-0001 quarantined after 2 attempts (last: attempt 2: fault injected): retry attempts exhausted
events jobs.queue_depth=1 jobs.queue_depth=0 jobs.queue_depth=0
metric jobs.cache_misses=1
metric jobs.completed=1
metric jobs.quarantined=1
metric jobs.queue_depth=0
metric jobs.queue_latency_ms#1
metric jobs.retries=1
metric jobs.running=0
metric jobs.submitted=1
metric jobs.terminal.retry-exhausted=1
metric jobs.terminal_by_impl{impl=srsLTE}=1
`,
	"cancel-queued": `j-0001 wal submitted
j-0001 wal started attempt=1
j-0001 wal terminal state=done class=none
j-0001 bus job queued
j-0001 bus job running attempt=1
j-0001 bus job done attempt=1 class=none
j-0002 wal submitted
j-0002 wal terminal state=cancelled class=cancelled error=jobs: j-0002 cancelled while queued: run cancelled
j-0002 bus job queued
j-0002 bus job cancelled class=cancelled err=jobs: j-0002 cancelled while queued: run cancelled
events jobs.queue_depth=1 jobs.queue_depth=0 jobs.queue_depth=1
metric jobs.cache_misses=2
metric jobs.completed=2
metric jobs.queue_depth=0
metric jobs.queue_latency_ms#1
metric jobs.running=0
metric jobs.store_entries=0
metric jobs.store_evictions=0
metric jobs.store_quarantined=0
metric jobs.submitted=2
metric jobs.terminal.cancelled=1
metric jobs.terminal.none=1
metric jobs.terminal_by_impl{impl=OAI}=1
metric jobs.terminal_by_impl{impl=srsLTE}=1
`,
	"cancel-running-local": `j-0001 wal submitted
j-0001 wal started attempt=1
j-0001 wal terminal state=cancelled class=cancelled error=context canceled
j-0001 bus job queued
j-0001 bus job running attempt=1
j-0001 bus job cancelled attempt=1 class=cancelled err=context canceled
events jobs.queue_depth=1 jobs.queue_depth=0
metric jobs.cache_misses=1
metric jobs.completed=1
metric jobs.queue_depth=0
metric jobs.queue_latency_ms#1
metric jobs.running=0
metric jobs.submitted=1
metric jobs.terminal.cancelled=1
metric jobs.terminal_by_impl{impl=srsLTE}=1
`,
}
