package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// coordinator builds a pure-coordinator service (no local worker pool)
// so tests drive the lease protocol by hand.
func coordinator(t *testing.T, mut func(*Config)) (*Service, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		Runner:   (&fakeRunner{}).run,
		Metrics:  reg,
		LeaseTTL: time.Minute, // sweeper stays out of the way
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

// resultFor synthesises the deterministic result a worker would upload
// for the leased job.
func resultFor(t *testing.T, j Job) *Result {
	t.Helper()
	res, err := (&fakeRunner{}).run(context.Background(), j.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLeaseLifecycle(t *testing.T) {
	s, reg := coordinator(t, nil)
	sub, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	l, j, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if l.JobID != sub.ID || l.Worker != "w1" || l.Attempt != 1 {
		t.Fatalf("lease = %+v, want job %s worker w1 attempt 1", l, sub.ID)
	}
	if !l.Expiry.After(time.Now()) {
		t.Fatalf("lease expiry %v not in the future", l.Expiry)
	}
	if j.State != StateRunning || j.Worker != "w1" {
		t.Fatalf("job = state %s worker %q, want running on w1", j.State, j.Worker)
	}
	if got := s.Leases(); len(got) != 1 || got[0].ID != l.ID {
		t.Fatalf("Leases() = %+v, want the one grant", got)
	}
	if _, _, ok, err := s.AcquireLease("w2"); ok || err != nil {
		t.Fatalf("second acquire on empty queue = ok %v, err %v", ok, err)
	}

	renewed, err := s.RenewLease(l.ID)
	if err != nil {
		t.Fatal(err)
	}
	if renewed.Expiry.Before(l.Expiry) {
		t.Fatalf("renewal moved expiry backwards: %v -> %v", l.Expiry, renewed.Expiry)
	}
	if _, err := s.RenewLease("l-9999"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("renew of unknown lease = %v, want ErrUnknownLease", err)
	}

	done, err := s.CompleteLease(l.ID, resultFor(t, j))
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil || done.Worker != "w1" {
		t.Fatalf("completed job = %+v, want done with result on w1", done)
	}
	if done.ExitCode != resilience.ExitOK {
		t.Fatalf("exit code = %d, want %d", done.ExitCode, resilience.ExitOK)
	}
	if got := s.Leases(); len(got) != 0 {
		t.Fatalf("Leases() after completion = %+v, want none", got)
	}
	if got := reg.Counter("dist.leases_granted").Value(); got != 1 {
		t.Fatalf("dist.leases_granted = %d, want 1", got)
	}
	if got := reg.Counter("dist.leases_renewed").Value(); got != 1 {
		t.Fatalf("dist.leases_renewed = %d, want 1", got)
	}
	if got := reg.Gauge(obs.LabeledStr("jobs.leases_active", "worker", "w1")).Value(); got != 0 {
		t.Fatalf("jobs.leases_active{worker=w1} = %d, want 0 after release", got)
	}
	if got := reg.Gauge("jobs.running").Value(); got != 0 {
		t.Fatalf("jobs.running = %d, want 0", got)
	}
}

// TestLeaseStaleResultDiscarded pins the idempotent terminal
// transition: the first uploaded result wins, every later settle
// attempt against the released lease is discarded and counted.
func TestLeaseStaleResultDiscarded(t *testing.T) {
	s, reg := coordinator(t, nil)
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, j, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	res := resultFor(t, j)
	first, err := s.CompleteLease(l.ID, res)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.CompleteLease(l.ID, res); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("second upload = %v, want ErrStaleResult", err)
	}
	if _, err := s.FailLease(l.ID, "internal", "late failure"); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("late failure report = %v, want ErrStaleResult", err)
	}
	if got := reg.Counter("dist.stale_results").Value(); got != 2 {
		t.Fatalf("dist.stale_results = %d, want 2", got)
	}
	after, _ := s.Get(first.ID)
	if after.State != StateDone || after.Result == nil {
		t.Fatalf("job after stale uploads = %+v, want untouched done", after)
	}
}

func TestLeaseResultMismatchKeepsLease(t *testing.T) {
	s, _ := coordinator(t, nil)
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, j, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}

	bogus := resultFor(t, j)
	bogus.Key = "not-the-leased-key"
	if _, err := s.CompleteLease(l.ID, bogus); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("mismatched upload = %v, want ErrResultMismatch", err)
	}
	if _, err := s.CompleteLease(l.ID, nil); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("nil upload = %v, want ErrResultMismatch", err)
	}
	// The lease survives a bad upload so the worker can retransmit.
	if got := s.Leases(); len(got) != 1 {
		t.Fatalf("Leases() after mismatch = %+v, want the grant intact", got)
	}
	done, err := s.CompleteLease(l.ID, resultFor(t, j))
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s, want done", done.State)
	}
}

func TestLeaseExpiryRequeuesThenCompletes(t *testing.T) {
	s, reg := coordinator(t, func(c *Config) { c.Retry = retryPolicy(3) })
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if n := s.ExpireLeases(l.Expiry.Add(time.Second)); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}
	if got := reg.Counter("dist.leases_expired").Value(); got != 1 {
		t.Fatalf("dist.leases_expired = %d, want 1", got)
	}

	// The expired attempt requeues through the retry path (1ms backoff);
	// a second worker picks it up and finishes the job.
	var l2 Lease
	var j2 Job
	deadline := time.Now().Add(5 * time.Second)
	for {
		l2, j2, ok, err = s.AcquireLease("w2")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired job never requeued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if l2.Attempt != 2 || l2.Worker != "w2" {
		t.Fatalf("reacquired lease = %+v, want attempt 2 on w2", l2)
	}
	done, err := s.CompleteLease(l2.ID, resultFor(t, j2))
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Worker != "w2" {
		t.Fatalf("job = %+v, want done on w2", done)
	}
}

func TestLeaseExpiryWithoutRetriesFails(t *testing.T) {
	s, _ := coordinator(t, nil) // zero retry policy: single attempt
	sub, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if n := s.ExpireLeases(l.Expiry.Add(time.Second)); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}
	j, _ := s.Get(sub.ID)
	if j.State != StateFailed {
		t.Fatalf("state = %s (error %q), want failed", j.State, j.Error)
	}
	if j.Class != resilience.KindLeaseExpired.String() {
		t.Fatalf("class = %q, want %s", j.Class, resilience.KindLeaseExpired)
	}
	if j.ExitCode != resilience.ExitLeaseExpired {
		t.Fatalf("exit code = %d, want %d", j.ExitCode, resilience.ExitLeaseExpired)
	}
}

func TestLeaseExpiryExhaustsIntoQuarantine(t *testing.T) {
	s, _ := coordinator(t, func(c *Config) { c.Retry = retryPolicy(2) })
	sub, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		var l Lease
		var ok bool
		deadline := time.Now().Add(5 * time.Second)
		for {
			l, _, ok, err = s.AcquireLease("w1")
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never became acquirable", attempt)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if l.Attempt != attempt {
			t.Fatalf("lease attempt = %d, want %d", l.Attempt, attempt)
		}
		if n := s.ExpireLeases(l.Expiry.Add(time.Second)); n != 1 {
			t.Fatalf("ExpireLeases = %d, want 1", n)
		}
	}
	j, _ := s.Get(sub.ID)
	if j.State != StateQuarantined {
		t.Fatalf("state = %s (error %q), want quarantined", j.State, j.Error)
	}
	if j.Class != resilience.KindRetryExhausted.String() {
		t.Fatalf("class = %q, want %s", j.Class, resilience.KindRetryExhausted)
	}
}

// TestFailLeaseAbandonRequeuesUncharged pins the worker-shutdown path:
// a cancelled-class failure from a live coordinator hands the job back
// without spending an attempt.
func TestFailLeaseAbandonRequeuesUncharged(t *testing.T) {
	s, reg := coordinator(t, nil)
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	j, err := s.FailLease(l.ID, "cancelled", "worker shutting down")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued {
		t.Fatalf("state = %s, want queued", j.State)
	}
	if got := reg.Counter("dist.leases_abandoned").Value(); got != 1 {
		t.Fatalf("dist.leases_abandoned = %d, want 1", got)
	}
	l2, _, ok, err := s.AcquireLease("w2")
	if err != nil || !ok {
		t.Fatalf("reacquire = ok %v, err %v", ok, err)
	}
	if l2.Attempt != 1 {
		t.Fatalf("attempt after abandonment = %d, want 1 (uncharged)", l2.Attempt)
	}
}

func TestFailLeaseClassifiedFailure(t *testing.T) {
	s, _ := coordinator(t, nil)
	sub, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if _, err := s.FailLease(l.ID, "internal", "segfault in worker"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get(sub.ID)
	if j.State != StateFailed || j.Class != "internal" {
		t.Fatalf("job = state %s class %q, want failed/internal", j.State, j.Class)
	}
	if j.ExitCode != resilience.ExitInternal {
		t.Fatalf("exit code = %d, want %d", j.ExitCode, resilience.ExitInternal)
	}
}

func TestFailLeaseRetryableClassRetries(t *testing.T) {
	s, _ := coordinator(t, func(c *Config) { c.Retry = retryPolicy(3) })
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if _, err := s.FailLease(l.ID, "fault-injected", "transient channel fault"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		l2, _, ok, err := s.AcquireLease("w2")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if l2.Attempt != 2 {
				t.Fatalf("retry attempt = %d, want 2", l2.Attempt)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("retryable failure never requeued")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelLeasedJob: a coordinator-side cancel releases the lease and
// turns the worker's eventual upload into a discarded stale result.
func TestCancelLeasedJob(t *testing.T) {
	s, reg := coordinator(t, nil)
	sub, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, j, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	cancelled, err := s.Cancel(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", cancelled.State)
	}
	if got := s.Leases(); len(got) != 0 {
		t.Fatalf("Leases() after cancel = %+v, want none", got)
	}
	if _, err := s.CompleteLease(l.ID, resultFor(t, j)); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("upload after cancel = %v, want ErrStaleResult", err)
	}
	if got := reg.Counter("dist.stale_results").Value(); got != 1 {
		t.Fatalf("dist.stale_results = %d, want 1", got)
	}
}

func TestAcquireDuringDrainRefused(t *testing.T) {
	s, _ := coordinator(t, nil)
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, j, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}

	drained := make(chan error, 1)
	go func() {
		_, derr := s.Drain(context.Background())
		drained <- derr
	}()
	// Wait for drain mode, then confirm new grants are refused while
	// heartbeats and settles still work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, _, aerr := s.AcquireLease("w2")
		if errors.Is(aerr, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never engaged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v before the lease settled", err)
	default:
	}
	if _, err := s.RenewLease(l.ID); err != nil {
		t.Fatalf("renew during drain = %v, want success", err)
	}
	if _, err := s.CompleteLease(l.ID, resultFor(t, j)); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain = %v", err)
	}
}

// TestLeaseRecoveryReadopts: a coordinator restart re-adopts unexpired
// grants from the WAL — the job stays running under its worker and the
// worker's heartbeat and result land normally.
func TestLeaseRecoveryReadopts(t *testing.T) {
	walDir := t.TempDir()
	spec := Spec{Impl: "held-across-restart", Seed: 7}
	queued := Spec{Impl: "still-queued", Seed: 8}
	now := time.Now().UTC()
	seedWAL(t, walDir, []Record{
		{Type: RecSubmitted, ID: "j-0001", Key: spec.Key(), Spec: &spec, At: now},
		{Type: RecSubmitted, ID: "j-0002", Key: queued.Key(), Spec: &queued, At: now},
		{Type: RecStarted, ID: "j-0001", Attempt: 1, At: now},
		{Type: RecLease, ID: "j-0001", Lease: "l-0003", Worker: "w9",
			Action: LeaseGrant, Expiry: now.Add(time.Hour), At: now},
	})

	s, reg := coordinator(t, func(c *Config) { c.WALDir = walDir })
	st := s.Recovery()
	if st.LeasesRestored != 1 {
		t.Fatalf("LeasesRestored = %d, want 1", st.LeasesRestored)
	}
	if got := reg.Counter("jobs.recovered_leases").Value(); got != 1 {
		t.Fatalf("jobs.recovered_leases = %d, want 1", got)
	}
	j, okj := s.Get("j-0001")
	if !okj || j.State != StateRunning || !j.Recovered || j.Worker != "w9" {
		t.Fatalf("restored job = %+v, want recovered running on w9", j)
	}
	leases := s.Leases()
	if len(leases) != 1 || leases[0].ID != "l-0003" || leases[0].Worker != "w9" {
		t.Fatalf("Leases() = %+v, want restored l-0003 for w9", leases)
	}

	// New grants must not collide with the restored lease ID.
	l2, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire of queued job = ok %v, err %v", ok, err)
	}
	if l2.ID <= "l-0003" {
		t.Fatalf("new lease ID %s does not advance past restored l-0003", l2.ID)
	}

	// The original worker's heartbeat and result still land.
	if _, err := s.RenewLease("l-0003"); err != nil {
		t.Fatal(err)
	}
	done, err := s.CompleteLease("l-0003", resultFor(t, j))
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Worker != "w9" {
		t.Fatalf("job = %+v, want done on w9", done)
	}
}

// TestLeaseRecoveryExpiredGrantRequeues: a grant that ran out before
// the restart is not re-adopted — the job requeues like any interrupted
// attempt, uncharged.
func TestLeaseRecoveryExpiredGrantRequeues(t *testing.T) {
	walDir := t.TempDir()
	spec := Spec{Impl: "lease-ran-out", Seed: 7}
	now := time.Now().UTC()
	seedWAL(t, walDir, []Record{
		{Type: RecSubmitted, ID: "j-0001", Key: spec.Key(), Spec: &spec, At: now.Add(-time.Hour)},
		{Type: RecStarted, ID: "j-0001", Attempt: 1, At: now.Add(-time.Hour)},
		{Type: RecLease, ID: "j-0001", Lease: "l-0001", Worker: "w9",
			Action: LeaseGrant, Expiry: now.Add(-30 * time.Minute), At: now.Add(-time.Hour)},
	})

	s, _ := coordinator(t, func(c *Config) { c.WALDir = walDir })
	st := s.Recovery()
	if st.LeasesRestored != 0 || st.Requeued != 1 {
		t.Fatalf("recovery = %+v, want 0 restored / 1 requeued", st)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if l.Attempt != 1 {
		t.Fatalf("attempt = %d, want 1 (interrupted attempt uncharged)", l.Attempt)
	}
}

// TestLeaseRecoveryReleasedGrantRequeues: a grant followed by a release
// record leaves no live lease to re-adopt.
func TestLeaseRecoveryReleasedGrantRequeues(t *testing.T) {
	walDir := t.TempDir()
	spec := Spec{Impl: "released-before-crash", Seed: 7}
	now := time.Now().UTC()
	seedWAL(t, walDir, []Record{
		{Type: RecSubmitted, ID: "j-0001", Key: spec.Key(), Spec: &spec, At: now},
		{Type: RecStarted, ID: "j-0001", Attempt: 1, At: now},
		{Type: RecLease, ID: "j-0001", Lease: "l-0001", Worker: "w9",
			Action: LeaseGrant, Expiry: now.Add(time.Hour), At: now},
		{Type: RecLease, ID: "j-0001", Lease: "l-0001", Worker: "w9",
			Action: LeaseRelease, At: now},
	})

	s, _ := coordinator(t, func(c *Config) { c.WALDir = walDir })
	if st := s.Recovery(); st.LeasesRestored != 0 || st.Requeued != 1 {
		t.Fatalf("recovery = %+v, want 0 restored / 1 requeued", st)
	}
	if got := s.Leases(); len(got) != 0 {
		t.Fatalf("Leases() = %+v, want none", got)
	}
}

// TestLeaseSurvivesCheckpoint: WAL compaction preserves the active
// grant, so a restart after a checkpoint still re-adopts it.
func TestLeaseSurvivesCheckpoint(t *testing.T) {
	walDir := t.TempDir()
	s, _ := coordinator(t, func(c *Config) { c.WALDir = walDir })
	if _, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	l, _, ok, err := s.AcquireLease("w1")
	if err != nil || !ok {
		t.Fatalf("acquire = ok %v, err %v", ok, err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Inspect the compacted log directly: Close would cancel the leased
	// job and erase the grant we are asserting on.
	w, recs, err := OpenWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close() //nolint:errcheck // read-only inspection
	grants := 0
	for _, rec := range recs {
		if rec.Type == RecLease && rec.Action == LeaseGrant && rec.Lease == l.ID {
			grants++
		}
	}
	if grants != 1 {
		t.Fatalf("compacted WAL has %d grant records for %s, want 1", grants, l.ID)
	}
}

// TestLogMetaReplaceKeepsLatest: metas logged under one ID survive
// replay as a single live record holding the newest payload.
func TestLogMetaReplaceKeepsLatest(t *testing.T) {
	walDir := t.TempDir()
	s, _ := coordinator(t, func(c *Config) { c.WALDir = walDir })
	if err := s.LogMeta("tenant:alice", json.RawMessage(`{"tokens":5}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.LogMeta("tenant:alice", json.RawMessage(`{"tokens":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.LogMeta("audit", json.RawMessage(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	if metas := s.Metas(); len(metas) != 2 {
		t.Fatalf("live metas = %d, want 2 (replaced + appended)", len(metas))
	}
	s.Close()

	s2, _ := coordinator(t, func(c *Config) { c.WALDir = walDir })
	metas := s2.Metas()
	var alice []Record
	for _, m := range metas {
		if m.ID == "tenant:alice" {
			alice = append(alice, m)
		}
	}
	if len(alice) != 1 || string(alice[0].Meta) != `{"tokens":2}` {
		t.Fatalf("replayed tenant metas = %+v, want one record with the latest payload", alice)
	}
}
