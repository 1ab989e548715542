package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"prochecker/internal/jobs"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// fakeCoord is an in-memory Coordinator: a fixed queue of grants plus a
// journal of every settle call the worker makes.
type fakeCoord struct {
	mu     sync.Mutex
	grants []*Grant // handed out in order, then nil (empty queue)

	acquireErrs int   // errors to return before the first grant
	renewErr    error // returned by every RenewLease when set

	renews    int
	completes []completeCall
	fails     []failCall
	unsettled int           // grants handed out and not yet settled
	settled   chan struct{} // closed once every grant has settled
}

type completeCall struct {
	leaseID string
	result  jobs.Result
}

type failCall struct {
	leaseID string
	class   string
	msg     string
}

func newFakeCoord(grants ...*Grant) *fakeCoord {
	return &fakeCoord{grants: grants, settled: make(chan struct{})}
}

func (c *fakeCoord) AcquireLease(ctx context.Context, worker string) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acquireErrs > 0 {
		c.acquireErrs--
		return nil, errors.New("coordinator unreachable")
	}
	if len(c.grants) == 0 {
		return nil, nil
	}
	g := c.grants[0]
	c.grants = c.grants[1:]
	c.unsettled++
	return g, nil
}

func (c *fakeCoord) RenewLease(ctx context.Context, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.renews++
	return c.renewErr
}

func (c *fakeCoord) CompleteLease(ctx context.Context, leaseID string, canonical []byte) error {
	var res jobs.Result
	if err := json.Unmarshal(canonical, &res); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completes = append(c.completes, completeCall{leaseID, res})
	c.settleLocked()
	return nil
}

func (c *fakeCoord) FailLease(ctx context.Context, leaseID, class, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails = append(c.fails, failCall{leaseID, class, msg})
	c.settleLocked()
	return nil
}

func (c *fakeCoord) settleLocked() {
	c.unsettled--
	if len(c.grants) == 0 && c.unsettled == 0 {
		select {
		case <-c.settled:
		default:
			close(c.settled)
		}
	}
}

func grantFor(leaseID, impl string, ttl time.Duration) *Grant {
	spec := jobs.Spec{Impl: impl, Seed: 1}
	return &Grant{
		Lease: jobs.Lease{ID: leaseID, JobID: "j-0001", Worker: "w1", Attempt: 1,
			Expiry: time.Now().Add(ttl)},
		Job:   jobs.Job{ID: "j-0001", Key: spec.Key(), Spec: spec, State: jobs.StateRunning},
		TTLMS: ttl.Milliseconds(),
	}
}

// runWorker drives w.Run until the coordinator reports every grant
// settled, then cancels.
func runWorker(t *testing.T, w *Worker, c *fakeCoord) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case <-c.settled:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never settled its grants")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

func TestWorkerCompletesJob(t *testing.T) {
	c := newFakeCoord(grantFor("l-0001", "impl-a", time.Minute))
	reg := obs.NewRegistry()
	w := &Worker{
		Coordinator: c,
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			return &jobs.Result{
				SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec,
				Verdicts: []jobs.Verdict{{ID: "S06", Class: "authentication", Verified: true}},
			}, nil
		},
		ID: "w1", Poll: time.Millisecond, Metrics: reg,
	}
	runWorker(t, w, c)

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.completes) != 1 || len(c.fails) != 0 {
		t.Fatalf("settles = %d completes / %d fails, want 1/0", len(c.completes), len(c.fails))
	}
	up := c.completes[0]
	if up.leaseID != "l-0001" {
		t.Fatalf("completed lease = %s, want l-0001", up.leaseID)
	}
	if up.result.Key != (jobs.Spec{Impl: "impl-a", Seed: 1}).Key() {
		t.Fatalf("uploaded key = %s, want the granted job's key", up.result.Key)
	}
	if len(up.result.Verdicts) != 1 {
		t.Fatalf("uploaded verdicts = %+v, want one", up.result.Verdicts)
	}
	if got := reg.Counter("dist.worker_jobs_completed").Value(); got != 1 {
		t.Fatalf("dist.worker_jobs_completed = %d, want 1", got)
	}
}

func TestWorkerFailureIsClassified(t *testing.T) {
	c := newFakeCoord(grantFor("l-0001", "impl-a", time.Minute))
	reg := obs.NewRegistry()
	w := &Worker{
		Coordinator: c,
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			return nil, fmt.Errorf("checker blew up: %w", resilience.ErrCasePanic)
		},
		ID: "w1", Poll: time.Millisecond, Metrics: reg,
	}
	runWorker(t, w, c)

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fails) != 1 || len(c.completes) != 0 {
		t.Fatalf("settles = %d fails / %d completes, want 1/0", len(c.fails), len(c.completes))
	}
	if c.fails[0].class != resilience.KindCasePanic.String() {
		t.Fatalf("reported class = %q, want %s", c.fails[0].class, resilience.KindCasePanic)
	}
	if got := reg.Counter("dist.worker_jobs_failed").Value(); got != 1 {
		t.Fatalf("dist.worker_jobs_failed = %d, want 1", got)
	}
}

// TestWorkerAbandonsOnShutdown: cancelling the run context mid-job
// makes the worker hand the lease back with the cancelled class, which
// the coordinator treats as an uncharged abandonment.
func TestWorkerAbandonsOnShutdown(t *testing.T) {
	c := newFakeCoord(grantFor("l-0001", "impl-a", time.Minute))
	started := make(chan struct{})
	w := &Worker{
		Coordinator: c,
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
		ID: "w1", Poll: time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fails) != 1 {
		t.Fatalf("fails = %+v, want one abandonment", c.fails)
	}
	if c.fails[0].class != resilience.KindCancelled.String() {
		t.Fatalf("shutdown class = %q, want %s", c.fails[0].class, resilience.KindCancelled)
	}
}

// TestWorkerLeaseLostCancelsRun: a failing heartbeat means the lease is
// gone — the worker aborts the now-pointless run instead of burning the
// rest of the job.
func TestWorkerLeaseLostCancelsRun(t *testing.T) {
	g := grantFor("l-0001", "impl-a", 30*time.Millisecond) // heartbeat every 10ms
	c := newFakeCoord(g)
	c.renewErr = errors.New("410 gone: unknown lease")
	reg := obs.NewRegistry()
	w := &Worker{
		Coordinator: c,
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			<-ctx.Done() // only the lost lease can end this job
			return nil, ctx.Err()
		},
		ID: "w1", Poll: time.Millisecond, Metrics: reg,
	}
	runWorker(t, w, c)

	if got := reg.Counter("dist.worker_lease_lost").Value(); got != 1 {
		t.Fatalf("dist.worker_lease_lost = %d, want 1", got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fails) != 1 || c.fails[0].class != resilience.KindCancelled.String() {
		t.Fatalf("fails = %+v, want one cancelled-class settle", c.fails)
	}
}

// TestWorkerBacksOffOnAcquireErrors: coordinator errors are retried
// with backoff (counted), and the queue drains once it recovers.
func TestWorkerBacksOffOnAcquireErrors(t *testing.T) {
	c := newFakeCoord(grantFor("l-0001", "impl-a", time.Minute))
	c.acquireErrs = 3
	reg := obs.NewRegistry()
	w := &Worker{
		Coordinator: c,
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			return &jobs.Result{SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec}, nil
		},
		ID: "w1", Poll: time.Millisecond, Backoff: time.Millisecond, Metrics: reg,
	}
	runWorker(t, w, c)

	if got := reg.Counter("dist.worker_acquire_errors").Value(); got != 3 {
		t.Fatalf("dist.worker_acquire_errors = %d, want 3", got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.completes) != 1 {
		t.Fatalf("completes = %d, want 1 after recovery", len(c.completes))
	}
}

// TestWorkerConcurrencyDrainsInParallel: N slots pull N grants without
// serialising on one another.
func TestWorkerConcurrencyDrainsInParallel(t *testing.T) {
	var grants []*Grant
	for i := 0; i < 4; i++ {
		grants = append(grants, grantFor(fmt.Sprintf("l-%04d", i+1), fmt.Sprintf("impl-%d", i), time.Minute))
	}
	c := newFakeCoord(grants...)
	var mu sync.Mutex
	inflight, peak := 0, 0
	released := false // later grants bring inflight back to 2
	gate := make(chan struct{})
	w := &Worker{
		Coordinator: c,
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			if inflight == 2 && !released { // both slots busy at once: release everyone
				released = true
				close(gate)
			}
			mu.Unlock()
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			mu.Lock()
			inflight--
			mu.Unlock()
			return &jobs.Result{SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec}, nil
		},
		ID: "w1", Concurrency: 2, Poll: time.Millisecond,
	}
	runWorker(t, w, c)

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.completes) != 4 {
		t.Fatalf("completes = %d, want 4", len(c.completes))
	}
	if peak < 2 {
		t.Fatalf("peak in-flight = %d, want 2 (slots run in parallel)", peak)
	}
}
