// Package server exposes the batch-analysis job service over a
// stdlib-only HTTP JSON API:
//
//	POST   /v1/jobs                  submit one job, or a campaign matrix
//	GET    /v1/jobs                  list all jobs
//	GET    /v1/jobs/{id}             one job's status/result
//	GET    /v1/jobs/{id}/events      live SSE stream of the job's events
//	DELETE /v1/jobs/{id}             cancel a job
//	GET    /v1/campaigns             list campaigns
//	GET    /v1/campaigns/{id}        campaign status + differential report
//	GET    /v1/campaigns/{id}/events live SSE stream across the campaign's jobs
//	GET    /healthz                  readiness (503 while draining)
//	GET    /metrics                  Prometheus text exposition (queue/cache/pipeline metrics)
//
// The SSE streams are fed from the process-wide obs.Bus: `id:` carries
// the bus sequence number, so a client reconnecting with Last-Event-ID
// resumes gap-free while the events are still inside the ring's
// retention window (a "dropped" marker event flags the gap otherwise).
//
// A draining server (graceful SIGTERM shutdown) answers every
// submission with 503 while running jobs finish; a full queue answers
// 429. Both carry a Retry-After header so well-behaved clients back off
// without guessing.
//
// When the underlying jobs.Service runs with a WAL, campaigns are
// durable too: each accepted matrix is journalled as an opaque meta
// record, and a restarted server rebuilds its campaign table — same
// IDs, same membership — from the replayed log.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/obs"
	"prochecker/internal/report"
)

// Campaign is the API shape of one submitted matrix: member jobs, the
// aggregate state, and — once every member is terminal — the
// cross-implementation differential report.
type Campaign struct {
	ID     string                  `json:"id"`
	Spec   prochecker.CampaignSpec `json:"spec"`
	JobIDs []string                `json:"job_ids"`
	State  jobs.State              `json:"state"`
	// ExitCode folds the member jobs' terminal classes onto the
	// resilience taxonomy's worst exit code (meaningful once terminal).
	ExitCode int        `json:"exit_code"`
	Jobs     []jobs.Job `json:"jobs,omitempty"`
	// Diverging lists properties whose verdicts differ between columns
	// (set when the campaign is done).
	Diverging []string `json:"diverging,omitempty"`
	// Report is the rendered differential matrix (set when done).
	Report string `json:"report,omitempty"`
}

// Server routes the API onto a jobs.Service.
type Server struct {
	svc      *jobs.Service
	mux      *http.ServeMux
	bus      *obs.Bus
	draining atomic.Bool

	mu        sync.Mutex
	seq       int
	campaigns map[string]*campaignRecord
	order     []string
}

// campaignRecord is the server's durable view of one matrix submission.
type campaignRecord struct {
	id     string
	spec   prochecker.CampaignSpec
	jobIDs []string
}

// campaignMeta is the JSON payload journalled per campaign in the
// service's WAL, restoring the server's campaign table across restarts.
type campaignMeta struct {
	Spec   prochecker.CampaignSpec `json:"spec"`
	JobIDs []string                `json:"job_ids"`
}

// Option tunes New.
type Option func(*Server)

// WithBus attaches the event bus the SSE endpoints stream from. The
// bus should be the same one the jobs.Service (and the pipeline
// observer) publish to; without it the /events endpoints answer 501.
func WithBus(b *obs.Bus) Option {
	return func(s *Server) { s.bus = b }
}

// New builds a Server on the given service and exposes the metrics
// registry (the service's and the pipeline's shared one) on /metrics in
// Prometheus text format. Campaigns journalled to a WAL by a previous
// incarnation are restored with their original IDs and membership; a
// meta whose ID is not a campaign ID (older logs hold other kinds), or
// whose payload does not parse, is skipped and dropped from the
// service, so the next compaction leaves it out of the WAL.
func New(svc *jobs.Service, reg *obs.Registry, opts ...Option) *Server {
	s := &Server{svc: svc, campaigns: make(map[string]*campaignRecord)}
	for _, opt := range opts {
		opt(s)
	}
	for _, m := range svc.Metas() {
		n, ok := campaignSeq(m.ID)
		if !ok {
			svc.DropMeta(m.ID)
			continue
		}
		var meta campaignMeta
		if json.Unmarshal(m.Meta, &meta) != nil {
			svc.DropMeta(m.ID)
			continue
		}
		if _, dup := s.campaigns[m.ID]; dup {
			continue
		}
		rec := &campaignRecord{id: m.ID, spec: meta.Spec, jobIDs: meta.JobIDs}
		s.campaigns[rec.id] = rec
		s.order = append(s.order, rec.id)
		s.seq = max(s.seq, n)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGetCampaign)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	mux.Handle("GET /metrics", reg.PrometheusHandler("prochecker"))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain flips the server into shutdown mode: every subsequent
// submission is answered 503 while the already-accepted work finishes.
func (s *Server) StartDrain() { s.draining.Store(true) }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not our failure
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// Retry-After values (seconds) for backpressure responses: a full queue
// clears as soon as a worker frees a slot, a draining server needs its
// replacement to come up.
const (
	retryAfterQueueFull = 1
	retryAfterDraining  = 5
)

// submitStatus maps a submission failure onto its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// writeSubmitError answers a failed submission, attaching the
// Retry-After hint on the two retryable statuses.
func writeSubmitError(w http.ResponseWriter, err error) {
	status := submitStatus(err)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterQueueFull))
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
	}
	writeError(w, status, err)
}

// campaignSeq parses the number of a "c-0042" style campaign ID; ok is
// false for any other ID.
func campaignSeq(id string) (n int, ok bool) {
	digits, ok := strings.CutPrefix(id, "c-")
	if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// submitRequest is the POST /v1/jobs body: either a single inline job
// spec, or a campaign matrix.
type submitRequest struct {
	jobs.Spec
	Campaign *prochecker.CampaignSpec `json:"campaign,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeSubmitError(w, jobs.ErrDraining)
		return
	}
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Campaign != nil {
		s.submitCampaign(w, *req.Campaign)
		return
	}
	job, err := s.svc.Submit(req.Spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		Job jobs.Job `json:"job"`
	}{job})
}

// submitCampaign expands the matrix and submits every cell. Submission
// is all-or-nothing: if a cell is rejected (queue full, draining), the
// cells already enqueued for this campaign are cancelled and the whole
// request fails with that cell's status.
func (s *Server) submitCampaign(w http.ResponseWriter, spec prochecker.CampaignSpec) {
	specs, err := spec.Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var ids []string
	for _, js := range specs {
		job, err := s.svc.Submit(js)
		if err != nil {
			for _, id := range ids {
				s.svc.Cancel(id) //nolint:errcheck // best-effort rollback
			}
			writeSubmitError(w, fmt.Errorf("campaign cell %s: %w", prochecker.JobLabel(js), err))
			return
		}
		ids = append(ids, job.ID)
	}
	s.mu.Lock()
	s.seq++
	rec := &campaignRecord{id: fmt.Sprintf("c-%04d", s.seq), spec: spec, jobIDs: ids}
	s.campaigns[rec.id] = rec
	s.order = append(s.order, rec.id)
	s.mu.Unlock()
	s.bus.Publish(obs.BusEvent{
		Type: "campaign", Scope: rec.id, Name: "submitted",
		Value: int64(len(ids)),
		Attrs: map[string]string{"jobs": strings.Join(ids, ",")},
	})
	// Journal the campaign so a restarted server still answers for its
	// ID; membership is what matters, job state lives in the job WAL.
	if meta, err := json.Marshal(campaignMeta{Spec: spec, JobIDs: ids}); err == nil {
		s.svc.LogMeta(rec.id, meta) //nolint:errcheck // campaign still served from memory
	}
	writeJSON(w, http.StatusAccepted, struct {
		Campaign Campaign `json:"campaign"`
	}{s.campaignView(rec, false)})
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Job `json:"jobs"`
	}{s.svc.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Job jobs.Job `json:"job"`
	}{job})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Job jobs.Job `json:"job"`
	}{job})
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recs := make([]*campaignRecord, 0, len(s.order))
	for _, id := range s.order {
		recs = append(recs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]Campaign, 0, len(recs))
	for _, rec := range recs {
		out = append(out, s.campaignView(rec, false))
	}
	writeJSON(w, http.StatusOK, struct {
		Campaigns []Campaign `json:"campaigns"`
	}{out})
}

func (s *Server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rec, ok := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Campaign Campaign `json:"campaign"`
	}{s.campaignView(rec, true)})
}

// campaignView assembles the API shape from live job snapshots; with
// detail it embeds the member jobs and, once the campaign is done, the
// differential report.
func (s *Server) campaignView(rec *campaignRecord, detail bool) Campaign {
	members := make([]jobs.Job, 0, len(rec.jobIDs))
	for _, id := range rec.jobIDs {
		if j, ok := s.svc.Get(id); ok {
			members = append(members, j)
		}
	}
	c := Campaign{
		ID:       rec.id,
		Spec:     rec.spec,
		JobIDs:   rec.jobIDs,
		State:    aggregateState(members),
		ExitCode: jobs.WorstExitCode(members),
	}
	if detail {
		c.Jobs = members
	}
	if c.State == jobs.StateDone {
		var cols []report.DiffColumn
		for _, j := range members {
			if j.Result != nil {
				cols = append(cols, report.DiffColumn{
					Label:    prochecker.JobLabel(j.Spec),
					Verdicts: j.Result.Verdicts,
				})
			}
		}
		rows := report.Differential(cols)
		c.Diverging = report.Diverging(rows)
		if detail {
			c.Report = report.RenderDifferential(cols, rows)
		}
	}
	return c
}

// aggregateState folds member states: queued until anything starts,
// running while anything is still moving, then failed > cancelled >
// done by severity.
func aggregateState(members []jobs.Job) jobs.State {
	if len(members) == 0 {
		return jobs.StateDone
	}
	allQueued, anyOpen := true, false
	for _, j := range members {
		if j.State != jobs.StateQueued {
			allQueued = false
		}
		if !j.Terminal() {
			anyOpen = true
		}
	}
	if allQueued {
		return jobs.StateQueued
	}
	if anyOpen {
		return jobs.StateRunning
	}
	worst := jobs.StateDone
	for _, j := range members {
		switch j.State {
		case jobs.StateFailed:
			return jobs.StateFailed
		case jobs.StateCancelled:
			worst = jobs.StateCancelled
		}
	}
	return worst
}
