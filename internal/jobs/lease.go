package jobs

// Distributed execution: the lease state machine that turns the service
// into a coordinator for a fleet of pull-mode workers. A worker
// acquires a queued job under a TTL'd lease, heartbeats to keep it, and
// uploads the canonical result (or a classified failure) to settle it.
// A lease that stops heartbeating expires: the sweeper releases it and
// the job requeues through the ordinary taxonomy-driven retry path with
// the lease-expired class. Every grant, renewal and release is
// journalled to the WAL, so crash recovery spans worker assignments — a
// restarted coordinator re-adopts unexpired leases instead of
// scheduling the same job under its worker's feet.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// DefaultLeaseTTL bounds a worker's silence when Config.LeaseTTL is
// zero: generous enough for a heartbeat every TTL/3 to survive GC
// pauses and transient network trouble, short enough that a crashed
// worker's jobs requeue promptly.
const DefaultLeaseTTL = 30 * time.Second

// Lease-protocol failure modes.
var (
	// ErrUnknownLease marks renew/complete/fail calls naming a lease
	// that was never granted or has already been released.
	ErrUnknownLease = errors.New("jobs: unknown lease")
	// ErrStaleResult marks a result or failure upload for a lease that
	// expired or was released: the job has moved on (first result
	// wins), so the upload is discarded, never double-completed.
	ErrStaleResult = errors.New("jobs: stale upload for released lease")
	// ErrResultMismatch marks an uploaded result whose key is not the
	// leased job's spec key.
	ErrResultMismatch = errors.New("jobs: uploaded result does not match leased spec")
)

// Lease is the API shape of one worker assignment: which job, which
// worker, which attempt, and until when the assignment holds without a
// heartbeat.
type Lease struct {
	ID      string    `json:"id"`
	JobID   string    `json:"job_id"`
	Worker  string    `json:"worker"`
	Attempt int       `json:"attempt"`
	Expiry  time.Time `json:"expiry"`
}

// LeaseTTL reports the TTL new and renewed leases are granted under.
func (s *Service) LeaseTTL() time.Duration { return s.cfg.LeaseTTL }

// AcquireLease hands the oldest queued job to the named worker under a
// fresh TTL'd lease. ok is false when nothing is queued; a draining
// coordinator grants nothing (ErrDraining). The grant is journalled
// (started + lease records) before it is acknowledged.
func (s *Service) AcquireLease(worker string) (Lease, Job, bool, error) {
	if worker == "" {
		worker = "anonymous"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Lease{}, Job{}, false, ErrDraining
	}
	t := s.takeLocked()
	if t == nil {
		return Lease{}, Job{}, false, nil
	}
	s.leaseSeq++
	t.leaseID = fmt.Sprintf("l-%04d", s.leaseSeq)
	t.worker = worker
	t.leaseExpiry = time.Now().Add(s.cfg.LeaseTTL)
	s.leases[t.leaseID] = t
	s.wal.Append(Record{ //nolint:errcheck // an unjournalled grant replays as queued
		Type: RecLease, ID: t.id, Lease: t.leaseID, Worker: worker,
		Action: LeaseGrant, Expiry: t.leaseExpiry.UTC(), At: time.Now().UTC(),
	})
	s.cfg.Metrics.Counter("dist.leases_granted").Inc()
	s.cfg.Metrics.Gauge(obs.LabeledStr("jobs.leases_active", "worker", worker)).Add(1)
	s.publishLeaseLocked(t, "granted")
	s.publishRunningLocked(t)
	return s.leaseLocked(t), s.snapshotLocked(t), true, nil
}

// RenewLease extends a held lease by the TTL — the heartbeat. Renewing
// keeps working while the coordinator drains, so in-flight remote jobs
// finish instead of being orphaned mid-drain.
func (s *Service) RenewLease(id string) (Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.leases[id]
	if !ok {
		return Lease{}, fmt.Errorf("%w: %s", ErrUnknownLease, id)
	}
	t.leaseExpiry = time.Now().Add(s.cfg.LeaseTTL)
	s.wal.Append(Record{ //nolint:errcheck // an unjournalled renewal expires at worst
		Type: RecLease, ID: t.id, Lease: id, Worker: t.worker,
		Action: LeaseRenew, Expiry: t.leaseExpiry.UTC(), At: time.Now().UTC(),
	})
	s.cfg.Metrics.Counter("dist.leases_renewed").Inc()
	return s.leaseLocked(t), nil
}

// CompleteLease settles a leased job with its uploaded result: the
// lease is released and the job completes like a local attempt. The
// terminal transition is idempotent — an upload for a lease that
// expired or was already released is discarded (first result wins,
// dist.stale_results counts the discard) instead of double-completing
// the job.
func (s *Service) CompleteLease(id string, res *Result) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.leases[id]
	if !ok {
		s.cfg.Metrics.Counter("dist.stale_results").Inc()
		return Job{}, fmt.Errorf("%w: %s", ErrStaleResult, id)
	}
	if res == nil || res.Key != t.key {
		got := "<nil>"
		if res != nil {
			got = res.Key
		}
		return Job{}, fmt.Errorf("%w: lease %s wants key %s, got %s", ErrResultMismatch, id, t.key, got)
	}
	s.releaseLeaseLocked(t, "completed")
	s.completeLocked(t, res)
	return s.snapshotLocked(t), nil
}

// FailLease settles a leased job with a worker-reported failure in the
// resilience class vocabulary. A cancelled class from a live
// coordinator is an abandonment — the worker is shutting down, not the
// job — so the attempt requeues uncharged, exactly like a
// crash-replayed interrupted attempt. Every other class goes through
// the ordinary taxonomy-driven retry/finalize path. Like CompleteLease,
// reports against a released lease are discarded as stale.
func (s *Service) FailLease(id, class, msg string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.leases[id]
	if !ok {
		s.cfg.Metrics.Counter("dist.stale_results").Inc()
		return Job{}, fmt.Errorf("%w: %s", ErrStaleResult, id)
	}
	if kind, _ := resilience.ParseKind(class); kind == resilience.KindCancelled && !s.draining {
		if t.attempts > 0 {
			t.attempts--
		}
		s.releaseLeaseLocked(t, "abandoned")
		s.cfg.Metrics.Counter("dist.leases_abandoned").Inc()
		s.enqueueLocked(t, 0)
		s.publishJobLocked(t, "requeued")
		s.publishQueueDepthLocked()
		return s.snapshotLocked(t), nil
	}
	s.releaseLeaseLocked(t, "failed")
	s.failLocked(t, ClassifiedError(class, msg))
	return s.snapshotLocked(t), nil
}

// Leases snapshots the active leases, ordered by lease ID.
func (s *Service) Leases() []Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Lease, 0, len(s.leases))
	for _, t := range s.leases {
		out = append(out, s.leaseLocked(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExpireLeases releases every lease whose expiry is at or before now,
// requeueing (or finalizing, when retries are spent or disabled) the
// leased jobs with the lease-expired class. The background sweeper
// calls it on a TTL/4 tick; tests call it directly for determinism. It
// returns how many leases expired.
func (s *Service) ExpireLeases(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, t := range s.leases {
		if t.leaseExpiry.After(now) {
			continue
		}
		n++
		s.releaseLeaseLocked(t, "expired")
		s.cfg.Metrics.Counter("dist.leases_expired").Inc()
		s.failLocked(t, fmt.Errorf("jobs: lease %s for %s held by %s expired after attempt %d: %w",
			id, t.id, t.worker, t.attempts, resilience.ErrLeaseExpired))
	}
	return n
}

// sweeper expires abandoned leases in the background until drain
// completes.
func (s *Service) sweeper() {
	defer close(s.sweepDone)
	tick := s.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-tk.C:
			s.ExpireLeases(time.Now())
		}
	}
}

// releaseLeaseLocked ends t's leased attempt: the lease leaves the
// table, a release record goes to the WAL, the per-worker gauge comes
// back down, and the lease event (completed, failed, abandoned, expired
// or cancelled) is published. The task keeps its worker name for
// snapshot attribution; the caller settles the job.
func (s *Service) releaseLeaseLocked(t *task, event string) {
	delete(s.leases, t.leaseID)
	s.wal.Append(Record{ //nolint:errcheck // a lost release replays as an expired lease
		Type: RecLease, ID: t.id, Lease: t.leaseID, Worker: t.worker,
		Action: LeaseRelease, At: time.Now().UTC(),
	})
	s.cfg.Metrics.Gauge(obs.LabeledStr("jobs.leases_active", "worker", t.worker)).Add(-1)
	s.publishLeaseLocked(t, event)
	t.leaseID = ""
	t.leaseExpiry = time.Time{}
	s.endAttemptLocked()
}

// leaseLocked freezes t's lease into its API shape.
func (s *Service) leaseLocked(t *task) Lease {
	return Lease{ID: t.leaseID, JobID: t.id, Worker: t.worker, Attempt: t.attempts, Expiry: t.leaseExpiry}
}

// publishLeaseLocked emits one lease lifecycle transition on the event
// bus, scoped to the job so per-job SSE streams and flight recordings
// carry the worker assignment history.
func (s *Service) publishLeaseLocked(t *task, name string) {
	if s.bus == nil {
		return
	}
	s.bus.Publish(obs.BusEvent{
		Type: "lease", Scope: t.id, Name: name,
		Attrs: map[string]string{
			"lease":   t.leaseID,
			"worker":  t.worker,
			"attempt": strconv.Itoa(t.attempts),
		},
	})
}
