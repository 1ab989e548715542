package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/dist"
	"prochecker/internal/jobs"
	"prochecker/internal/obs"
)

// syntheticRunner returns a deterministic result instantly — fleet
// tests exercise the lease plumbing, not the analyzer.
func syntheticRunner(_ context.Context, spec jobs.Spec) (*jobs.Result, error) {
	return &jobs.Result{
		SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec,
		Verdicts: []jobs.Verdict{{ID: "S06", Class: "authentication", Verified: true}},
	}, nil
}

// newCoordServer builds a pure-coordinator server (no local worker
// pool): every submitted job sits queued until a fleet worker leases it
// through the HTTP API.
func newCoordServer(t *testing.T, mut func(*jobs.Config), opts ...Option) (*Client, *jobs.Service, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := jobs.Config{
		Runner:    syntheticRunner,
		Normalize: prochecker.NormalizeJobSpec,
		LeaseTTL:  time.Minute,
		Metrics:   reg,
	}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := jobs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, reg, opts...))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client(), Retries: 1}, svc, reg
}

// TestFleetWorkerDrainsCoordinator is the HTTP round-trip: jobs
// submitted to a workerless coordinator complete through a dist.Worker
// pulling over the lease API, carrying the worker identity back into
// the job records.
func TestFleetWorkerDrainsCoordinator(t *testing.T) {
	cl, _, reg := newCoordServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var ids []string
	for _, impl := range []string{"conformant", "srslte", "oai"} {
		j, err := cl.SubmitJob(ctx, jobs.Spec{Impl: impl, Seed: 42, Properties: []string{"S06"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	wreg := obs.NewRegistry()
	w := &dist.Worker{
		Coordinator: cl, Runner: syntheticRunner,
		ID: "fleet-1", Concurrency: 2, Poll: 2 * time.Millisecond, Metrics: wreg,
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- w.Run(wctx) }()

	for _, id := range ids {
		j, err := cl.WaitJob(ctx, id, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != jobs.StateDone || j.Result == nil {
			t.Fatalf("job %s = state %s, want done with result", id, j.State)
		}
		if j.Worker != "fleet-1" {
			t.Fatalf("job %s worker = %q, want fleet-1", id, j.Worker)
		}
	}
	wcancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker Run = %v, want context.Canceled", err)
	}

	if got := wreg.Counter("dist.worker_jobs_completed").Value(); got != 3 {
		t.Fatalf("dist.worker_jobs_completed = %d, want 3", got)
	}
	if got := reg.Counter("dist.leases_granted").Value(); got != 3 {
		t.Fatalf("dist.leases_granted = %d, want 3", got)
	}
	if got := reg.Gauge(obs.LabeledStr("jobs.leases_active", "worker", "fleet-1")).Value(); got != 0 {
		t.Fatalf("jobs.leases_active{worker=fleet-1} = %d, want 0 after drain", got)
	}
	leases, err := cl.Leases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Fatalf("active leases = %+v, want none", leases)
	}
}

func TestLeaseHTTPStatusMapping(t *testing.T) {
	cl, _, reg := newCoordServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Empty queue: 204 surfaces as a nil grant, not an error.
	if g, err := cl.AcquireLease(ctx, "w1"); g != nil || err != nil {
		t.Fatalf("acquire on empty queue = %+v, %v; want nil, nil", g, err)
	}
	// Heartbeat on an unknown lease: 410 Gone, not retried.
	err := cl.RenewLease(ctx, "l-9999")
	var he *httpError
	if !errors.As(err, &he) || he.status != 410 {
		t.Fatalf("renew of unknown lease = %v, want 410", err)
	}

	if _, err := cl.SubmitJob(ctx, jobs.Spec{Impl: "conformant", Seed: 1, Properties: []string{"S06"}}); err != nil {
		t.Fatal(err)
	}
	g, err := cl.AcquireLease(ctx, "w1")
	if err != nil || g == nil {
		t.Fatalf("acquire = %+v, %v", g, err)
	}

	// A result for the wrong spec: 400, and the lease survives.
	wrong, _ := syntheticRunner(ctx, jobs.Spec{Impl: "oai", Seed: 9})
	wrongBytes, _ := wrong.MarshalCanonical()
	err = cl.CompleteLease(ctx, g.Lease.ID, wrongBytes)
	if !errors.As(err, &he) || he.status != 400 {
		t.Fatalf("mismatched upload = %v, want 400", err)
	}

	res, _ := syntheticRunner(ctx, g.Job.Spec)
	res.Key = g.Job.Key
	canonical, merr := res.MarshalCanonical()
	if merr != nil {
		t.Fatal(merr)
	}
	if err := cl.CompleteLease(ctx, g.Lease.ID, canonical); err != nil {
		t.Fatal(err)
	}
	// Second upload for the settled lease: 409, counted as stale.
	err = cl.CompleteLease(ctx, g.Lease.ID, canonical)
	if !errors.As(err, &he) || he.status != 409 {
		t.Fatalf("stale upload = %v, want 409", err)
	}
	if err := cl.FailLease(ctx, g.Lease.ID, "internal", "late report"); !errors.As(err, &he) || he.status != 409 {
		t.Fatalf("stale failure report = %v, want 409", err)
	}
	if got := reg.Counter("dist.stale_results").Value(); got != 2 {
		t.Fatalf("dist.stale_results = %d, want 2", got)
	}
}

// TestTenantQuotaExhaustion pins the admission gate: a tenant over its
// quota gets 429 with a tenant-scoped Retry-After while other tenants
// keep submitting.
func TestTenantQuotaExhaustion(t *testing.T) {
	quotas, err := dist.ParseQuotaSpec("alice=2@1,bob=5@1,carol=5@1")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cl, _, _ := newCoordServer(t, func(c *jobs.Config) { c.Metrics = reg },
		WithTenantGate(dist.NewGate(quotas, reg)))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	alice := &Client{Base: cl.Base, HTTP: cl.HTTP, Tenant: "alice", Retries: 1}
	bob := &Client{Base: cl.Base, HTTP: cl.HTTP, Tenant: "bob", Retries: 1}
	carol := &Client{Base: cl.Base, HTTP: cl.HTTP, Tenant: "carol", Retries: 1}

	for i := 0; i < 2; i++ {
		if _, err := alice.SubmitJob(ctx, jobs.Spec{Impl: "conformant", Seed: int64(i), Properties: []string{"S06"}}); err != nil {
			t.Fatalf("alice submit %d = %v, want admitted", i, err)
		}
	}
	_, err = alice.SubmitJob(ctx, jobs.Spec{Impl: "conformant", Seed: 99, Properties: []string{"S06"}})
	var he *httpError
	if !errors.As(err, &he) || he.status != 429 {
		t.Fatalf("alice over quota = %v, want 429", err)
	}
	if he.retryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s", he.retryAfter)
	}

	// Alice's exhaustion leaves bob's bucket untouched.
	for i := 0; i < 5; i++ {
		if _, err := bob.SubmitJob(ctx, jobs.Spec{Impl: "srslte", Seed: int64(i), Properties: []string{"S06"}}); err != nil {
			t.Fatalf("bob submit %d = %v, want admitted", i, err)
		}
	}

	// A campaign is charged by cell count: 6 cells against a burst of 5
	// is refused atomically — no partial admission.
	_, err = carol.SubmitCampaign(ctx, prochecker.CampaignSpec{
		Impls:  []string{"conformant", "srslte", "oai"},
		Faults: []string{"", "drop=0.15"},
		Seed:   42, Properties: []string{"S06"},
	})
	if !errors.As(err, &he) || he.status != 429 {
		t.Fatalf("carol 6-cell campaign against burst 5 = %v, want 429", err)
	}
	if got := reg.Counter(obs.LabeledStr("dist.tenant_rejected", "tenant", "carol")).Value(); got != 1 {
		t.Fatalf("dist.tenant_rejected{tenant=carol} = %d, want 1", got)
	}
}

// TestTenantQuotaSurvivesRestart: journalled bucket balances replay
// through the WAL, so bouncing the coordinator does not refill an
// exhausted tenant.
func TestTenantQuotaSurvivesRestart(t *testing.T) {
	walDir := t.TempDir()
	// Near-zero refill rate keeps the balance flat across the restart.
	quotas, err := dist.ParseQuotaSpec("alice=3@0.001")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	reg := obs.NewRegistry()
	svc, err := jobs.New(jobs.Config{
		Runner: syntheticRunner, Normalize: prochecker.NormalizeJobSpec,
		LeaseTTL: time.Minute, WALDir: walDir, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc, reg, WithTenantGate(dist.NewGate(quotas, reg))))
	alice := &Client{Base: ts.URL, HTTP: ts.Client(), Tenant: "alice", Retries: 1}
	for i := 0; i < 3; i++ {
		if _, err := alice.SubmitJob(ctx, jobs.Spec{Impl: "conformant", Seed: int64(i), Properties: []string{"S06"}}); err != nil {
			t.Fatalf("alice submit %d = %v, want admitted", i, err)
		}
	}
	ts.Close()
	svc.Close() // checkpoints the WAL; tenant metas must survive compaction

	svc2, err := jobs.New(jobs.Config{
		Runner: syntheticRunner, Normalize: prochecker.NormalizeJobSpec,
		LeaseTTL: time.Minute, WALDir: walDir, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	ts2 := httptest.NewServer(New(svc2, obs.NewRegistry(), WithTenantGate(dist.NewGate(quotas, obs.NewRegistry()))))
	t.Cleanup(ts2.Close)

	alice2 := &Client{Base: ts2.URL, HTTP: ts2.Client(), Tenant: "alice", Retries: 1}
	_, err = alice2.SubmitJob(ctx, jobs.Spec{Impl: "conformant", Seed: 99, Properties: []string{"S06"}})
	var he *httpError
	if !errors.As(err, &he) || he.status != 429 {
		t.Fatalf("alice after restart = %v, want 429 (balance restored from WAL)", err)
	}

	// A tenant outside the quota map is ungoverned before and after the
	// restart.
	fresh := &Client{Base: ts2.URL, HTTP: ts2.Client(), Tenant: "bob", Retries: 1}
	if _, err := fresh.SubmitJob(ctx, jobs.Spec{Impl: "srslte", Seed: 1, Properties: []string{"S06"}}); err != nil {
		t.Fatalf("ungoverned tenant after restart = %v, want admitted", err)
	}
}
