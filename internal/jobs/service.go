package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// State is a job's lifecycle position.
type State string

// The job states. Done, Failed, Cancelled and Quarantined are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateQuarantined marks a poison job: its retry policy spent every
	// attempt on a failure class that is normally transient, so instead
	// of retrying forever it is parked terminally with the
	// retry-exhausted class.
	StateQuarantined State = "quarantined"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateQuarantined
}

// Job is a point-in-time snapshot of one submitted job, JSON-shaped for
// the HTTP API. Result is populated once the job is done; Class and
// ExitCode map the terminal outcome onto the resilience taxonomy.
// Attempts counts execution attempts (retries make it exceed 1), and
// Recovered marks a job requeued from the WAL after a crash.
type Job struct {
	ID          string     `json:"id"`
	Key         string     `json:"key"`
	Spec        Spec       `json:"spec"`
	State       State      `json:"state"`
	CacheHit    bool       `json:"cache_hit,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	Recovered   bool       `json:"recovered,omitempty"`
	Error       string     `json:"error,omitempty"`
	Class       string     `json:"class,omitempty"`
	ExitCode    int        `json:"exit_code"`
	Result      *Result    `json:"result,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	QueueMS     float64    `json:"queue_ms"`
	RunMS       float64    `json:"run_ms"`
}

// Terminal reports whether the job has reached a final state.
func (j Job) Terminal() bool { return j.State.Terminal() }

// Runner executes one normalized spec end to end. The root prochecker
// package provides the production runner on top of AnalyzeContext.
type Runner func(ctx context.Context, spec Spec) (*Result, error)

// RetryPolicy bounds how a failed job is retried. Retry decisions are
// taxonomy-driven: only failure classes resilience marks Retryable
// (fault-injected, case-panic) get another attempt; deterministic
// failures (cancelled, budget, model-lint, internal) fail fast on the
// first attempt. A retryable job that spends every attempt is
// quarantined with the retry-exhausted class.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per job; <= 1 disables retries.
	MaxAttempts int
	// Backoff is the base of the exponential backoff before attempt
	// n+1: Backoff << (n-1), jittered. Defaults to 100ms when retries
	// are enabled.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Defaults to 5s.
	MaxBackoff time.Duration
	// Seed drives the jitter PRNG, so a retry schedule is reproducible
	// per seed.
	Seed int64
}

// withDefaults fills the zero fields of an enabled policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts > 1 {
		if p.Backoff <= 0 {
			p.Backoff = 100 * time.Millisecond
		}
		if p.MaxBackoff <= 0 {
			p.MaxBackoff = 5 * time.Second
		}
	}
	return p
}

// delay computes the jittered backoff before the attempt following
// attempt n (n >= 1), using the service's seeded PRNG.
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := p.Backoff << (n - 1)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// Jitter in [0.5, 1.5): desynchronises retry herds while staying
	// deterministic per seed.
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// Config assembles a Service.
type Config struct {
	// Runner executes specs; required.
	Runner Runner
	// Normalize canonicalises a spec before hashing and validates it;
	// optional (identity when nil).
	Normalize func(Spec) (Spec, error)
	// Store dedupes completed work; optional (no caching when nil).
	Store *Store
	// WALDir enables the write-ahead log: every job lifecycle
	// transition is journalled there, and New replays it so a crashed
	// or restarted service resumes exactly where it left off — finished
	// results are adopted from the Store, interrupted jobs are requeued
	// in original submission order. Empty disables durability.
	WALDir string
	// Retry is the per-job retry policy (zero value = single attempt).
	Retry RetryPolicy
	// Queue bounds the number of waiting jobs; submissions past the
	// bound are rejected with ErrQueueFull. Defaults to
	// DefaultQueueCap. Jobs requeued from the WAL were admitted before
	// the crash and may transiently exceed the bound.
	Queue int
	// Workers is the number of executors running jobs in-process; New
	// rejects fewer than one.
	Workers int
	// Timeout bounds each execution attempt (0 = none); an expired
	// attempt ends the job cancelled (deadlines are deterministic, so
	// they are not retried).
	Timeout time.Duration
	// BaseContext is the parent of every job's context — the place to
	// install a process-wide obs observer. Defaults to
	// context.Background().
	BaseContext context.Context
	// Metrics receives queue/cache/wal/retry instrumentation; optional
	// (nil-safe).
	Metrics *obs.Registry
	// Events receives job lifecycle transitions (and, through the scope
	// each worker installs on its job context, every span the runner
	// produces); optional. Publishing never blocks, so a bus costs the
	// pipeline nothing beyond the ring append.
	Events *obs.Bus
	// FlightDir enables the per-job flight recorder: each job's event
	// stream is written to <FlightDir>/<job-id>.jsonl with a CRC footer,
	// replayable offline for post-mortem debugging. Requires Events.
	FlightDir string
}

// DefaultQueueCap bounds the queue when Config.Queue <= 0.
const DefaultQueueCap = 64

// Submission failure modes.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("jobs: service draining")
	// ErrUnknownJob marks lookups/cancels of an ID never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// task is the service-internal mutable job record; every field after
// construction is guarded by Service.mu.
type task struct {
	id        string
	key       string
	spec      Spec
	state     State
	cacheHit  bool
	attempts  int // execution attempts started
	recovered bool
	err       error
	result    *Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while an executor runs it
}

// RecoveryStats summarises what New reconstructed from the WAL.
type RecoveryStats struct {
	// Replayed counts intact WAL records read.
	Replayed int `json:"records_replayed"`
	// Adopted counts finished jobs whose results were re-served from
	// the content-addressed store without recomputation.
	Adopted int `json:"results_adopted"`
	// Requeued counts jobs that were queued or running at crash time
	// (plus finished jobs whose stored result had been evicted) and
	// were put back on the queue in original submission order.
	Requeued int `json:"jobs_requeued"`
	// Terminal counts failed/cancelled/quarantined jobs restored
	// as-is.
	Terminal int `json:"terminal_restored"`
}

// Service owns the queue, the job table and (when configured) the
// write-ahead log making all of it crash-safe. A job moves through one
// set of transitions — enqueueLocked, takeLocked, completeLocked or
// failLocked, finishLocked — run by the service's executors.
type Service struct {
	cfg    Config
	base   context.Context
	wal    *WAL
	bus    *obs.Bus
	flight *FlightRecorder

	mu       sync.Mutex
	cond     *sync.Cond // signalled when pending grows, drain starts, or running or nworkers drop to 0
	rng      *rand.Rand // retry jitter; guarded by mu
	seq      int
	tasks    map[string]*task
	order    []string          // submission order, for List
	inflight map[string]string // key -> id of the queued/running job
	pending  []*task           // FIFO of runnable tasks
	nqueued  int               // tasks in StateQueued (backpressure bound)
	running  int               // attempts in flight
	nworkers int               // executor goroutines not yet exited
	metas    []Record          // opaque layer-above records, one per ID
	draining bool
	recovery RecoveryStats

	checkpointOnce sync.Once
}

// New builds and starts a Service; Close or Drain it when done. With
// Config.WALDir set, New first replays the log: finished jobs adopt
// their results from the store, interrupted jobs are requeued in
// original submission order, and the log is compacted down to the
// condensed live state before any new work is accepted.
func New(cfg Config) (*Service, error) {
	if cfg.Runner == nil {
		return nil, errors.New("jobs: Config.Runner is required")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("jobs: Config.Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueueCap
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	cfg.Retry = cfg.Retry.withDefaults()
	s := &Service{
		cfg:      cfg,
		base:     cfg.BaseContext,
		bus:      cfg.Events,
		rng:      rand.New(rand.NewSource(cfg.Retry.Seed)),
		tasks:    make(map[string]*task),
		inflight: make(map[string]string),
	}
	s.cond = sync.NewCond(&s.mu)

	// Pre-register the always-present instruments so a scrape of a
	// freshly booted, still-idle service already exposes the core
	// series (at zero) instead of an empty payload.
	if reg := cfg.Metrics; reg != nil {
		reg.Counter("jobs.submitted")
		reg.Counter("jobs.completed")
		reg.Gauge("jobs.queue_depth")
		reg.Gauge("jobs.running")
		reg.Histogram("jobs.queue_latency_ms", nil)
	}

	if cfg.WALDir != "" {
		_, span := obs.Start(cfg.BaseContext, "wal.replay", obs.A("dir", cfg.WALDir))
		wal, recs, err := OpenWAL(cfg.WALDir, cfg.Metrics)
		if err != nil {
			span.EndErr(err)
			return nil, err
		}
		s.wal = wal
		s.replay(recs)
		span.SetAttr("requeued", strconv.Itoa(s.recovery.Requeued))
		span.SetAttr("adopted", strconv.Itoa(s.recovery.Adopted))
		// Startup compaction: the replayed history condenses to one
		// record triple per job.
		s.mu.Lock()
		live := s.liveRecordsLocked()
		s.mu.Unlock()
		if err := s.wal.Compact(live); err != nil {
			span.EndErr(err)
			s.wal.Close() //nolint:errcheck // open failed midway
			return nil, err
		}
		span.End()
	}

	if cfg.FlightDir != "" && cfg.Events != nil {
		fr, err := NewFlightRecorder(cfg.FlightDir, cfg.Events, cfg.Metrics)
		if err != nil {
			s.wal.Close() //nolint:errcheck // startup failed midway
			return nil, err
		}
		s.flight = fr
	}

	s.nworkers = cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// replay reconstructs the job table from WAL records. Called from New
// before any worker starts, so no locking is needed — but the lock-free
// helpers it shares with the running service expect mu conventions, so
// it takes the lock anyway for uniformity.
func (s *Service) replay(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg := s.cfg.Metrics
	s.recovery.Replayed = len(recs)
	// Record types this version does not know (the lease records of
	// older logs) are skipped; compaction then drops them.
	for _, rec := range recs {
		switch rec.Type {
		case RecSubmitted:
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			t := &task{
				id:        rec.ID,
				key:       rec.Key,
				spec:      *rec.Spec,
				state:     StateQueued,
				submitted: rec.At,
			}
			s.tasks[t.id] = t
			s.order = append(s.order, t.id)
			if n := idSeq(t.id); n > s.seq {
				s.seq = n
			}
		case RecStarted:
			if t, ok := s.tasks[rec.ID]; ok {
				t.state = StateRunning
				t.attempts = rec.Attempt
				if t.started.IsZero() {
					t.started = rec.At
				}
			}
		case RecTerminal:
			t, ok := s.tasks[rec.ID]
			if !ok {
				continue
			}
			t.state = rec.State
			t.cacheHit = rec.CacheHit
			t.finished = rec.At
			if t.state != StateDone {
				t.err = reconstructError(rec.Class, rec.Error)
			}
		case RecMeta:
			s.putMetaLocked(rec)
		}
	}

	// Settle every job: adopt finished results from the store, requeue
	// whatever a crash interrupted, keep other terminal outcomes.
	for _, id := range s.order {
		t := s.tasks[id]
		switch {
		case t.state == StateDone:
			if _, res, ok := s.cfg.Store.Get(t.key); ok {
				t.result = res
				s.recovery.Adopted++
				reg.Counter("jobs.recovered_adopted").Inc()
				continue
			}
			// The store entry was evicted or quarantined: the result is
			// gone, so the job recomputes (results are deterministic per
			// spec, so the rerun is byte-identical).
			t.finished, t.cacheHit, t.attempts = time.Time{}, false, 0
			s.requeueReplayedLocked(t)
		case !t.state.Terminal():
			// Queued or mid-attempt at crash time. The interrupted
			// attempt is retried without counting against the policy.
			if t.attempts > 0 {
				t.attempts--
			}
			s.requeueReplayedLocked(t)
		default:
			s.recovery.Terminal++
		}
	}
}

// requeueReplayedLocked puts one replayed task back on the queue.
func (s *Service) requeueReplayedLocked(t *task) {
	t.recovered = true
	s.enqueueLocked(t, 0)
	s.recovery.Requeued++
	s.cfg.Metrics.Counter("jobs.recovered_requeued").Inc()
}

// reconstructError rebuilds a classifiable error from a serialized
// failure class: the message survives byte-identical while errors.Is
// and exit codes see the taxonomy sentinel through Unwrap.
func reconstructError(class, msg string) error {
	kind, _ := resilience.ParseKind(class)
	if msg == "" {
		msg = "failure replayed from wal"
	}
	sentinel := kind.Sentinel()
	if sentinel == nil {
		return errors.New(msg)
	}
	return &replayedError{msg: msg, sentinel: sentinel}
}

// replayedError carries a WAL-replayed failure message verbatim while
// unwrapping to its taxonomy sentinel.
type replayedError struct {
	msg      string
	sentinel error
}

func (e *replayedError) Error() string { return e.msg }
func (e *replayedError) Unwrap() error { return e.sentinel }

// idSeq parses the numeric suffix of a "j-0042" style ID.
func idSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return 0
	}
	return n
}

// Recovery reports what New reconstructed from the WAL (zero value when
// the service runs without one).
func (s *Service) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// LogMeta durably journals an opaque record for the layer above the job
// service (the HTTP server persists campaign membership through it) and
// keeps it across compactions. A record
// replaces any earlier one with the same ID, so mutable state
// re-journalled under a stable ID keeps only its latest payload; the WAL
// itself stays append-only, and replay collapses it the same way.
// Replayed and logged metas come back from Metas in first-append order.
func (s *Service) LogMeta(id string, payload json.RawMessage) error {
	rec := Record{Type: RecMeta, ID: id, Meta: payload, At: time.Now().UTC()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Append(rec); err != nil {
		return err
	}
	s.putMetaLocked(rec)
	return nil
}

// putMetaLocked files a meta record, replacing the live one with the
// same (non-empty) ID.
func (s *Service) putMetaLocked(rec Record) {
	for i := range s.metas {
		if rec.ID != "" && s.metas[i].ID == rec.ID {
			s.metas[i] = rec
			return
		}
	}
	s.metas = append(s.metas, rec)
}

// DropMeta forgets the live meta record with the given ID, so the next
// compaction leaves it out of the WAL. The layer above drops the metas
// it no longer reads (kinds only older logs hold); without it they
// would be rewritten by every compaction forever.
func (s *Service) DropMeta(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metas = slices.DeleteFunc(s.metas, func(rec Record) bool { return rec.ID == id })
}

// Metas returns the live meta records in first-append order.
func (s *Service) Metas() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.metas...)
}

// Submit normalizes and enqueues one spec. Dedup happens in two layers:
// a spec whose key matches a queued or running job coalesces onto that
// job (no new work), and a spec whose key is in the result store
// completes immediately as a cache hit. Submissions are rejected with
// ErrQueueFull past the queue bound and ErrDraining during shutdown.
// With a WAL, the submission is journalled before it is acknowledged.
func (s *Service) Submit(spec Spec) (Job, error) {
	if s.cfg.Normalize != nil {
		var err error
		if spec, err = s.cfg.Normalize(spec); err != nil {
			return Job{}, err
		}
	}
	key := spec.Key()
	reg := s.cfg.Metrics

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Job{}, ErrDraining
	}
	if id, ok := s.inflight[key]; ok {
		return s.snapshotLocked(s.tasks[id]), nil
	}

	_, res, hit := s.cfg.Store.Get(key)
	if hit {
		reg.Counter("jobs.cache_hits").Inc()
	} else {
		reg.Counter("jobs.cache_misses").Inc()
		if s.nqueued >= s.cfg.Queue {
			return Job{}, ErrQueueFull
		}
	}
	// The submitted record is the acknowledgement: a job whose record
	// cannot be journalled is never issued.
	s.seq++
	t := &task{id: fmt.Sprintf("j-%04d", s.seq), key: key, spec: spec, submitted: time.Now()}
	if err := s.wal.Append(Record{
		Type: RecSubmitted, ID: t.id, Key: key, Spec: &spec, At: t.submitted.UTC(),
	}); err != nil {
		s.seq--
		return Job{}, fmt.Errorf("jobs: journalling submission: %w", err)
	}
	s.tasks[t.id] = t
	s.order = append(s.order, t.id)
	reg.Counter("jobs.submitted").Inc()
	if hit {
		t.cacheHit, t.result = true, res
		s.finishLocked(t, StateDone, nil)
	} else {
		s.enqueueLocked(t, 0)
		s.publishJobLocked(t, string(StateQueued))
		s.publishQueueDepthLocked()
	}
	return s.snapshotLocked(t), nil
}

// terminalRecord is the WAL record of t's final state.
func terminalRecord(t *task) Record {
	rec := Record{
		Type: RecTerminal, ID: t.id, State: t.state,
		Class: terminalClass(t.state, t.err), CacheHit: t.cacheHit, At: t.finished.UTC(),
	}
	if t.err != nil {
		rec.Error = t.err.Error()
	}
	return rec
}

// Get returns a snapshot of one job.
func (s *Service) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return Job{}, false
	}
	return s.snapshotLocked(t), true
}

// List returns snapshots of every job in submission order.
func (s *Service) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.snapshotLocked(s.tasks[id]))
	}
	return out
}

// Cancel stops a job (see stopLocked). Cancelling a terminal job is a
// no-op returning its final snapshot.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	s.stopLocked(t)
	return s.snapshotLocked(t), nil
}

// stopLocked cancels a non-terminal job. A queued job (including one
// waiting out a retry backoff) ends cancelled at once. A running
// attempt has its context cancelled and ends when its runner returns.
func (s *Service) stopLocked(t *task) {
	switch {
	case t.state == StateQueued:
		s.nqueued--
		s.cfg.Metrics.Gauge("jobs.queue_depth").Add(-1)
		s.finishLocked(t, StateCancelled, fmt.Errorf("jobs: %s cancelled while queued: %w", t.id, resilience.ErrCancelled))
	case t.state == StateRunning && t.cancel != nil:
		t.cancel()
	}
}

// Drain begins graceful shutdown: new submissions are rejected, every
// still-queued job is cancelled, and the call blocks until the running
// jobs finish (or ctx expires, in which case the workers keep finishing
// in the background). When the drain completes it checkpoints the WAL —
// compacted, fsynced and closed — so a restart resumes exactly where
// the drain left off. It returns how many queued jobs were cancelled.
// Drain is idempotent; concurrent calls all wait.
func (s *Service) Drain(ctx context.Context) (int, error) {
	cancelled := 0
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, id := range s.order {
			if t := s.tasks[id]; t.state == StateQueued {
				s.stopLocked(t)
				cancelled++
			}
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		// One barrier for every running attempt and for the executors'
		// exit.
		s.mu.Lock()
		for s.running > 0 || s.nworkers > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		var cerr error
		s.checkpointOnce.Do(func() { cerr = s.checkpointAndCloseWAL() })
		// Every terminal event is on the bus by now; Close drains the
		// recorder's backlog so finished flights carry their footers.
		s.flight.Close()
		return cancelled, cerr
	case <-ctx.Done():
		return cancelled, fmt.Errorf("jobs: drain interrupted: %w", resilience.ErrCancelled)
	}
}

// Checkpoint compacts the WAL down to the condensed live state and
// fsyncs it. Safe to call at any time; Drain does it automatically on
// completion.
func (s *Service) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.mu.Lock()
	recs := s.liveRecordsLocked()
	s.mu.Unlock()
	return s.wal.Compact(recs)
}

// checkpointAndCloseWAL is the drain-complete barrier: compact, sync,
// close.
func (s *Service) checkpointAndCloseWAL() error {
	if s.wal == nil {
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		s.wal.Close() //nolint:errcheck // compaction failure already reported
		return err
	}
	return s.wal.Close()
}

// liveRecordsLocked condenses the job table into the minimal record
// sequence that replays back to the same state: per job a submitted
// record, a started record when it ever ran, a terminal record when it
// finished — plus every meta record.
func (s *Service) liveRecordsLocked() []Record {
	recs := make([]Record, 0, 2*len(s.order)+len(s.metas))
	for _, id := range s.order {
		t := s.tasks[id]
		spec := t.spec
		recs = append(recs, Record{
			Type: RecSubmitted, ID: t.id, Key: t.key, Spec: &spec, At: t.submitted.UTC(),
		})
		if t.attempts > 0 {
			recs = append(recs, Record{
				Type: RecStarted, ID: t.id, Attempt: t.attempts, At: t.started.UTC(),
			})
		}
		if t.state.Terminal() {
			recs = append(recs, terminalRecord(t))
		}
	}
	recs = append(recs, s.metas...)
	return recs
}

// Close shuts down hard: every job still queued or running is stopped
// (see stopLocked), then the service drains.
func (s *Service) Close() {
	s.mu.Lock()
	for _, id := range s.order {
		s.stopLocked(s.tasks[id])
	}
	s.mu.Unlock()
	s.Drain(context.Background()) //nolint:errcheck // background ctx never expires
}

// worker is one executor: take → run → complete, or retry or
// finalize, until the drain empties the queue.
func (s *Service) worker() {
	for {
		s.mu.Lock()
		t := s.takeLocked()
		for t == nil && !s.draining {
			s.cond.Wait()
			t = s.takeLocked()
		}
		if t == nil {
			s.nworkers--
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		var ctx context.Context
		var cancel context.CancelFunc
		if s.cfg.Timeout > 0 {
			ctx, cancel = context.WithTimeout(s.base, s.cfg.Timeout)
		} else {
			ctx, cancel = context.WithCancel(s.base)
		}
		t.cancel = cancel
		spec, attempt := t.spec, t.attempts
		s.publishJobLocked(t, string(StateRunning))
		s.publishQueueDepthLocked()
		s.mu.Unlock()

		// The job's ID becomes the scope of every span the runner starts,
		// so the process-wide event bus can be demultiplexed into per-job
		// streams (SSE endpoints, flight recorder).
		ctx = obs.WithScope(ctx, t.id)
		ctx, span := obs.Start(ctx, "job.run",
			obs.A("job", t.id), obs.A("impl", spec.Impl), obs.A("faults", spec.Faults),
			obs.A("attempt", strconv.Itoa(attempt)))
		res, err := s.cfg.Runner(ctx, spec)
		span.EndErr(err)
		cancel()

		s.mu.Lock()
		t.cancel = nil
		s.endAttemptLocked()
		if err == nil {
			s.completeLocked(t, res)
		} else {
			s.failLocked(t, err)
		}
		s.mu.Unlock()
	}
}

// enqueueLocked puts t (back) on the queue: queued, indexed as the
// in-flight job for its key, counted against the queue bound, and on
// the pending FIFO once delay (a retry backoff) has passed.
func (s *Service) enqueueLocked(t *task, delay time.Duration) {
	t.state, t.err = StateQueued, nil
	s.inflight[t.key] = t.id
	s.nqueued++
	s.cfg.Metrics.Gauge("jobs.queue_depth").Add(1)
	if delay <= 0 {
		s.pending = append(s.pending, t)
		s.cond.Signal()
		return
	}
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if t.state != StateQueued { // cancelled or drained meanwhile
			return
		}
		s.pending = append(s.pending, t)
		s.cond.Signal()
	})
}

// takeLocked pops the oldest queued task and starts an attempt on it,
// skipping tasks cancelled while they waited; nil when nothing is
// queued.
func (s *Service) takeLocked() *task {
	for len(s.pending) > 0 {
		t := s.pending[0]
		s.pending = s.pending[1:]
		if t.state != StateQueued {
			continue
		}
		reg := s.cfg.Metrics
		t.state = StateRunning
		t.attempts++
		if t.started.IsZero() {
			t.started = time.Now()
			reg.Histogram("jobs.queue_latency_ms", nil).Observe(obs.DurMS(t.started.Sub(t.submitted)))
		}
		s.nqueued--
		s.running++
		s.wal.Append(Record{ //nolint:errcheck // execution proceeds; replay reruns at worst
			Type: RecStarted, ID: t.id, Attempt: t.attempts, At: time.Now().UTC(),
		})
		reg.Gauge("jobs.queue_depth").Add(-1)
		reg.Gauge("jobs.running").Add(1)
		return t
	}
	return nil
}

// endAttemptLocked retires one running attempt; Drain waits for the
// count to reach zero.
func (s *Service) endAttemptLocked() {
	s.running--
	s.cfg.Metrics.Gauge("jobs.running").Add(-1)
	if s.running == 0 {
		s.cond.Broadcast()
	}
}

// completeLocked settles a successful attempt: the result is persisted
// to the content-addressed store and the job ends done.
func (s *Service) completeLocked(t *task, res *Result) {
	reg := s.cfg.Metrics
	res.Key = t.key
	t.result = res
	if _, perr := s.cfg.Store.Put(res); perr != nil {
		// The verdicts are still good; losing the cache entry only costs
		// a future recomputation.
		reg.Counter("jobs.store_put_errors").Inc()
	}
	reg.Gauge("jobs.store_entries").Set(int64(s.cfg.Store.Len()))
	reg.Gauge("jobs.store_evictions").Set(s.cfg.Store.Evictions())
	reg.Gauge("jobs.store_quarantined").Set(s.cfg.Store.Quarantined())
	s.finishLocked(t, StateDone, nil)
}

// failLocked settles a failed attempt. Retry decisions are
// taxonomy-driven: a resilience-retryable class gets another attempt
// after the policy's jittered backoff, unless the service is draining
// or the attempts are spent. Otherwise the job ends cancelled, failed,
// or — when the policy spent every attempt on a retryable class —
// quarantined as a poison job with the retry-exhausted class.
func (s *Service) failLocked(t *task, err error) {
	p := s.cfg.Retry
	kind := resilience.Classify(err)
	retryable := kind.Retryable() && p.MaxAttempts > 1
	switch {
	case retryable && !s.draining && t.attempts < p.MaxAttempts:
		s.cfg.Metrics.Counter("jobs.retries").Inc()
		s.enqueueLocked(t, p.delay(t.attempts, s.rng))
		s.publishJobLocked(t, "retrying")
	case kind == resilience.KindCancelled:
		s.finishLocked(t, StateCancelled, err)
	case retryable && t.attempts >= p.MaxAttempts:
		s.cfg.Metrics.Counter("jobs.quarantined").Inc()
		s.finishLocked(t, StateQuarantined, fmt.Errorf("jobs: %s quarantined after %d attempts (last: %v): %w",
			t.id, t.attempts, err, resilience.ErrRetryExhausted))
	default:
		s.finishLocked(t, StateFailed, err)
	}
}

// finishLocked ends t in a terminal state — the single point every
// terminal transition (cache hit, completion, cancellation, failure,
// quarantine) funnels through: stamped, dropped from the in-flight
// index, journalled, counted, and published as the terminal lifecycle
// event streaming clients and the flight recorder key off.
func (s *Service) finishLocked(t *task, state State, err error) {
	t.state, t.err, t.finished = state, err, time.Now()
	delete(s.inflight, t.key)
	s.wal.Append(terminalRecord(t)) //nolint:errcheck // final in memory; a lost record replays as interrupted and reruns
	reg := s.cfg.Metrics
	reg.Counter("jobs.completed").Inc()
	reg.Counter("jobs.terminal." + terminalClass(t.state, t.err)).Inc()
	if t.spec.Impl != "" {
		reg.Counter(obs.LabeledStr("jobs.terminal_by_impl", "impl", t.spec.Impl)).Inc()
	}
	s.publishJobLocked(t, string(t.state))
}

// publishJobLocked emits one job lifecycle transition on the event
// bus. Publishing never blocks (slow subscribers drop), so calling
// under the service lock is safe.
func (s *Service) publishJobLocked(t *task, name string) {
	if s.bus == nil {
		return
	}
	ev := obs.BusEvent{Type: "job", Scope: t.id, Name: name}
	attrs := make(map[string]string, 4)
	if t.attempts > 0 {
		attrs["attempt"] = strconv.Itoa(t.attempts)
	}
	if t.cacheHit {
		attrs["cache_hit"] = "true"
	}
	if t.recovered {
		attrs["recovered"] = "true"
	}
	if t.state.Terminal() {
		attrs["class"] = terminalClass(t.state, t.err)
	}
	if t.err != nil {
		ev.Err = t.err.Error()
	}
	if len(attrs) > 0 {
		ev.Attrs = attrs
	}
	s.bus.Publish(ev)
}

// publishQueueDepthLocked emits the queue depth as a metric delta
// event so live dashboards track backpressure without scraping.
func (s *Service) publishQueueDepthLocked() {
	if s.bus == nil {
		return
	}
	s.bus.Publish(obs.BusEvent{Type: "metric", Name: "jobs.queue_depth", Value: int64(s.nqueued)})
}

// terminalClass maps a terminal job onto the resilience vocabulary.
func terminalClass(state State, err error) string {
	switch state {
	case StateDone:
		return resilience.KindNone.String()
	case StateCancelled:
		return resilience.KindCancelled.String()
	default:
		return resilience.Classify(err).String()
	}
}

// snapshotLocked freezes a task into its API shape.
func (s *Service) snapshotLocked(t *task) Job {
	j := Job{
		ID:          t.id,
		Key:         t.key,
		Spec:        t.spec,
		State:       t.state,
		CacheHit:    t.cacheHit,
		Attempts:    t.attempts,
		Recovered:   t.recovered,
		Result:      t.result,
		SubmittedAt: t.submitted,
	}
	if t.err != nil {
		j.Error = t.err.Error()
	}
	if !t.started.IsZero() {
		started := t.started
		j.StartedAt = &started
		j.QueueMS = obs.DurMS(t.started.Sub(t.submitted))
	}
	if !t.finished.IsZero() {
		finished := t.finished
		j.FinishedAt = &finished
		if !t.started.IsZero() {
			j.RunMS = obs.DurMS(t.finished.Sub(t.started))
		}
	}
	if t.state.Terminal() {
		j.Class = terminalClass(t.state, t.err)
		if kind, ok := resilience.ParseKind(j.Class); ok {
			j.ExitCode = kind.ExitCode()
		} else {
			j.ExitCode = resilience.ExitInternal
		}
	}
	return j
}

// WorstExitCode folds a set of terminal jobs onto the single process
// exit code the resilience taxonomy assigns their most severe class
// (clean jobs contribute ExitOK).
func WorstExitCode(list []Job) int {
	worst := resilience.KindNone
	for _, j := range list {
		if k, ok := resilience.ParseKind(j.Class); ok && k > worst {
			worst = k
		}
	}
	return worst.ExitCode()
}

// SortProperties canonicalises a property selection in place: sorted,
// deduplicated. Shared by normalizers.
func SortProperties(ids []string) []string {
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids)
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
