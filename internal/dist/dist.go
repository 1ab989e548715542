// Package dist turns the job service into the coordinator of a
// distributed worker fleet. The protocol is lease-based pull: a worker
// asks the coordinator for work and receives a queued job under a TTL'd
// lease, heartbeats to keep the lease alive while it runs the job, and
// settles the lease with either the canonical result bytes (which land
// in the coordinator's content-addressed store) or a failure in the
// resilience class vocabulary. A worker that crashes or partitions away
// simply stops heartbeating: the lease expires, the coordinator
// requeues the job through the taxonomy-driven retry path, and another
// worker picks it up. First result wins — uploads against an expired or
// released lease are discarded as stale, so the terminal transition is
// idempotent no matter how late a zombie worker reports back.
//
// The package is deliberately transport-agnostic: Worker runs against
// the Coordinator interface, whose one production implementation is
// the HTTP client in internal/server speaking the /v1/leases API (the
// fleet benchmark drives it too). A jobs.Service with Workers > 0 runs
// jobs in-process without this package: its local executors take from
// the same queue the leases are granted from. Alongside the pull
// protocol, Gate provides the per-tenant token-bucket admission control
// the coordinator places in front of job submission.
package dist

import (
	"context"
	"time"

	"prochecker/internal/jobs"
)

// Grant is one leased work assignment: the lease to heartbeat, the job
// to run (its Spec is the work, its Key the expected result address),
// and the lease TTL so the worker can derive its heartbeat cadence
// (TTL/3) without sharing a clock with the coordinator.
type Grant struct {
	Lease jobs.Lease `json:"lease"`
	Job   jobs.Job   `json:"job"`
	TTLMS int64      `json:"ttl_ms"`
}

// TTL converts the wire-shaped lease TTL back to a duration.
func (g Grant) TTL() time.Duration { return time.Duration(g.TTLMS) * time.Millisecond }

// Coordinator is the worker's view of the lease protocol.
type Coordinator interface {
	// AcquireLease requests one queued job under a fresh lease for the
	// named worker. A (nil, nil) return means the queue is empty — poll
	// again later.
	AcquireLease(ctx context.Context, worker string) (*Grant, error)
	// RenewLease heartbeats a held lease, extending it by the TTL. An
	// error means the lease is gone (expired, job cancelled, coordinator
	// restarted past it): the worker should abandon the run.
	RenewLease(ctx context.Context, leaseID string) error
	// CompleteLease settles the lease with the result's canonical bytes
	// (jobs.Result.MarshalCanonical). An error means the upload was
	// refused — stale lease or mismatched result key.
	CompleteLease(ctx context.Context, leaseID string, canonical []byte) error
	// FailLease settles the lease with a failure in the resilience class
	// vocabulary (resilience.Kind.String()). The cancelled class from a
	// shutting-down worker abandons the attempt (requeued uncharged);
	// every other class goes through the coordinator's retry policy.
	FailLease(ctx context.Context, leaseID, class, msg string) error
}
