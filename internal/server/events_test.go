package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/obs"
)

// gatedBusService is gatedService plus a live event bus of the given
// capacity wired through both the job service and the server.
func gatedBusService(t *testing.T, workers, queue, busCap int) (*Client, *Server, *obs.Bus, *obs.Registry, func()) {
	t.Helper()
	reg := obs.NewRegistry()
	bus := obs.NewBus(busCap, reg)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	runner := func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &jobs.Result{SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec}, nil
	}
	svc, err := jobs.New(jobs.Config{Runner: runner, Workers: workers, Queue: queue, Metrics: reg, Events: bus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := New(svc, reg, WithBus(bus))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}, srv, bus, reg, release
}

func TestJobEventsStreamLifecycle(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 1, 8, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	es, err := cl.StreamJobEvents(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	// First frame is always the synthetic snapshot.
	first, err := es.Next()
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	if first.Type != "snapshot" || first.Scope != job.ID || first.Seq != 0 {
		t.Fatalf("first frame = %+v, want id-less snapshot for %s", first, job.ID)
	}

	release()
	var states []string
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("mid-stream: %v (states so far %v)", err, states)
		}
		if ev.Scope != job.ID && ev.Type != "dropped" {
			t.Fatalf("stream leaked foreign event %+v", ev)
		}
		if ev.Type == "job" {
			states = append(states, ev.Name)
			if jobs.State(ev.Name).Terminal() {
				break
			}
		}
	}
	last := states[len(states)-1]
	if last != string(jobs.StateDone) {
		t.Fatalf("terminal lifecycle event = %q, want done (all: %v)", last, states)
	}
	// After the terminal event the server ends the stream.
	if ev, err := es.Next(); err == nil {
		t.Fatalf("stream stayed open past terminal event, got %+v", ev)
	}
}

// TestCampaignEventsResumeGapFree is the acceptance test for
// Last-Event-ID resume: a client that disconnects mid-campaign and
// reconnects with its last seen id gets every subsequent event exactly
// once — no gap, no duplicate.
func TestCampaignEventsResumeGapFree(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 1, 16, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	camp, err := cl.SubmitCampaign(ctx, prochecker.CampaignSpec{
		Impls: []string{"conformant", "srsLTE", "OAI"}, Faults: []string{""}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[string]bool, len(camp.JobIDs))
	for _, id := range camp.JobIDs {
		members[id] = true
	}

	// First connection: read until the first running event, then drop it.
	es, err := cl.StreamCampaignEvents(ctx, camp.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	var got []obs.BusEvent
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("first connection: %v", err)
		}
		if ev.Seq > 0 {
			got = append(got, ev)
		}
		if ev.Type == "job" && ev.Name == string(jobs.StateRunning) {
			break
		}
	}
	lastID := es.LastEventID()
	es.Close()
	if lastID == "" {
		t.Fatal("no identified frame arrived before the disconnect")
	}

	// While disconnected, the campaign runs to completion.
	release()
	if _, err := cl.WaitCampaign(ctx, camp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Second connection resumes from the recorded position.
	es2, err := cl.StreamCampaignEvents(ctx, camp.ID, lastID)
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	var summary *obs.BusEvent
	for {
		ev, err := es2.Next()
		if err != nil {
			t.Fatalf("resumed connection: %v", err)
		}
		if ev.Seq > 0 {
			got = append(got, ev)
		}
		if ev.Type == "campaign" && ev.Scope == camp.ID && jobs.State(ev.Name).Terminal() {
			summary = &ev
			break
		}
	}

	// No duplicate, no regression across the reconnect boundary.
	seen := make(map[uint64]bool)
	var prev uint64
	for i, ev := range got {
		if ev.Type == "dropped" {
			t.Fatalf("resume fell off ring retention (event %d: %+v)", i, ev)
		}
		if seen[ev.Seq] {
			t.Fatalf("sequence %d delivered twice (event %d)", ev.Seq, i)
		}
		seen[ev.Seq] = true
		if ev.Seq <= prev {
			t.Fatalf("sequence went backwards: %d after %d (event %d)", ev.Seq, prev, i)
		}
		prev = ev.Seq
	}
	// No gap: every member job's full lifecycle arrived exactly once.
	lifecycle := make(map[string]int)
	for _, ev := range got {
		if ev.Type == "job" && members[ev.Scope] {
			lifecycle[ev.Scope+"/"+ev.Name]++
		}
	}
	for id := range members {
		for _, state := range []string{string(jobs.StateQueued), string(jobs.StateRunning), string(jobs.StateDone)} {
			if n := lifecycle[id+"/"+state]; n != 1 {
				t.Errorf("lifecycle event %s/%s delivered %d times, want exactly 1", id, state, n)
			}
		}
	}
	if summary == nil || summary.Value != int64(len(camp.JobIDs)) {
		t.Fatalf("campaign summary = %+v, want member count %d", summary, len(camp.JobIDs))
	}
}

// TestEventsResumePastRetention verifies the slow-consumer surface: a
// client resuming from a position the ring has already recycled gets an
// explicit "dropped" marker (and the drop is counted) instead of a
// silent gap.
func TestEventsResumePastRetention(t *testing.T) {
	cl, _, bus, reg, release := gatedBusService(t, 1, 8, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Overrun the 4-slot ring while the job is still live.
	for i := 0; i < 32; i++ {
		bus.Publish(obs.BusEvent{Type: "note", Scope: job.ID, Msg: "filler " + strconv.Itoa(i)})
	}

	es, err := cl.StreamJobEvents(ctx, job.ID, "1")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var sawDropped bool
	for i := 0; i < 8; i++ {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("reading resumed stream: %v", err)
		}
		if ev.Type == "dropped" {
			if ev.Value <= 0 {
				t.Fatalf("dropped marker reports no gap: %+v", ev)
			}
			sawDropped = true
			break
		}
	}
	if !sawDropped {
		t.Fatal("resume past ring retention produced no dropped marker")
	}
	if got := reg.Counter("obs.events_dropped").Value(); got <= 0 {
		t.Fatalf("obs.events_dropped = %d, want > 0", got)
	}
	release()
}

// TestEventsStalledSubscriberNeverBlocksService: a subscriber that
// never reads must not stall publishers — jobs keep completing at full
// speed while the SSE connection sits idle.
func TestEventsStalledSubscriberNeverBlocksService(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 2, 64, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	release()

	first, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "stall", Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Open the stream and never read from it.
	es, err := cl.StreamJobEvents(ctx, first.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	for i := 1; i <= 40; i++ {
		job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "stall", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
			t.Fatalf("job %d never finished while a subscriber was stalled: %v", i, err)
		}
	}
}

func TestJobEventsAlreadyTerminalReplays(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 1, 8, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	release()

	job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	es, err := cl.StreamJobEvents(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	snap, err := es.Next()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Type != "snapshot" || !jobs.State(snap.Name).Terminal() {
		t.Fatalf("snapshot of finished job = %+v, want terminal state", snap)
	}
	var sawTerminal bool
	for {
		ev, err := es.Next()
		if err != nil {
			break // EOF: replay done, stream closed
		}
		if ev.Type == "job" && ev.Scope == job.ID && jobs.State(ev.Name).Terminal() {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("replay of a finished job's stream omitted the terminal event")
	}
}

func TestFollowJobTailsToCompletion(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 1, 8, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		release()
	}()
	var mu sync.Mutex
	var types []string
	final, err := cl.FollowJob(ctx, job.ID, func(ev obs.BusEvent) {
		mu.Lock()
		types = append(types, ev.Type)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("FollowJob: %v", err)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("final job state = %s, want done", final.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(types) == 0 {
		t.Fatal("FollowJob delivered no events")
	}
}

// TestFollowNilCallback: both follow methods treat a nil callback as
// "no callback" and still tail the stream to its terminal event.
func TestFollowNilCallback(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 1, 8, 0)
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cases := []struct {
		name   string
		follow func() (jobs.State, error)
	}{
		{"job", func() (jobs.State, error) {
			job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "a", Seed: 1})
			if err != nil {
				return "", err
			}
			final, err := cl.FollowJob(ctx, job.ID, nil)
			return final.State, err
		}},
		{"campaign", func() (jobs.State, error) {
			camp, err := cl.SubmitCampaign(ctx, prochecker.CampaignSpec{
				Impls: []string{"conformant", "srsLTE"}, Faults: []string{""}, Seed: 7,
			})
			if err != nil {
				return "", err
			}
			final, err := cl.FollowCampaign(ctx, camp.ID, nil)
			return final.State, err
		}},
	}
	for _, c := range cases {
		state, err := c.follow()
		if err != nil {
			t.Fatalf("%s: follow with nil callback: %v", c.name, err)
		}
		if state != jobs.StateDone {
			t.Fatalf("%s: final state = %s, want done", c.name, state)
		}
	}
}

func TestJobEventsUnknownJob404(t *testing.T) {
	cl, _, _, _, _ := gatedBusService(t, 1, 8, 0)
	_, err := cl.StreamJobEvents(context.Background(), "j-9999", "")
	if err == nil {
		t.Fatal("streaming an unknown job succeeded")
	}
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusNotFound {
		t.Fatalf("unknown job error = %v, want 404", err)
	}
}

func TestEventsWithoutBus501(t *testing.T) {
	cl, _, release := gatedService(t, 1, 8) // no bus
	defer release()
	job, err := cl.SubmitJob(context.Background(), jobs.Spec{Impl: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.StreamJobEvents(context.Background(), job.ID, "")
	if err == nil {
		t.Fatal("streaming on a bus-less server succeeded")
	}
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusNotImplemented {
		t.Fatalf("bus-less stream error = %v, want 501", err)
	}
}

// TestHealthzDraining: the campaign server's own /healthz flips to 503
// once draining begins, so load balancers stop routing while in-flight
// jobs finish.
func TestHealthzDraining(t *testing.T) {
	cl, srv, _, _, release := gatedBusService(t, 1, 8, 0)
	defer release()

	get := func() (int, string) {
		resp, err := cl.http().Get(cl.Base + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, strings.TrimSpace(string(buf[:n]))
	}
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("/healthz before drain = %d, want 200", code)
	}
	srv.StartDrain()
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", code)
	}
	if body != "draining" {
		t.Fatalf("/healthz draining body = %q, want \"draining\"", body)
	}
}

// TestMetricsEndpoint: the campaign server exposes its registry in
// Prometheus text format, valid per the in-repo validator.
func TestMetricsEndpoint(t *testing.T) {
	cl, _, _, _, release := gatedBusService(t, 1, 8, 0)
	ctx := context.Background()
	release()

	job, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := cl.http().Get(cl.Base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	samples, err := obs.ValidatePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics payload invalid: %v", err)
	}
	if samples == 0 {
		t.Fatal("/metrics exposed no samples")
	}
}

func TestCampaignEventsUnknown404(t *testing.T) {
	cl, _, _, _, _ := gatedBusService(t, 1, 8, 0)
	_, err := cl.StreamCampaignEvents(context.Background(), "c-9999", "")
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusNotFound {
		t.Fatalf("unknown campaign error = %v, want 404", err)
	}
}
