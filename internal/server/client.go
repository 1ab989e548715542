package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/resilience"
)

// Client talks to a Server over HTTP — the CLI's -submit/-campaign/
// -wait modes ride on it. Requests that hit transient trouble — a
// network error, a 429 full queue, a 503 draining server — are retried
// with jittered exponential backoff, honoring the server's Retry-After
// hint; every request body is re-creatable so retries are safe, and
// submissions are idempotent anyway (the service coalesces on the
// spec's content address).
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Retries is the total attempts per request. 0 means
	// DefaultClientRetries; 1 disables retrying.
	Retries int
	// Backoff is the base of the exponential backoff between attempts
	// (default 200ms), jittered and raised to any Retry-After hint.
	Backoff time.Duration
	// Seed drives the jitter PRNG so a retry schedule is reproducible.
	Seed int64

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
}

// DefaultClientRetries is the attempt bound when Client.Retries is 0.
const DefaultClientRetries = 3

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// jitter scales d by a random factor in [0.5, 1.5).
func (c *Client) jitter(d time.Duration) time.Duration {
	c.rngOnce.Do(func() { c.rng = rand.New(rand.NewSource(c.Seed)) })
	c.rngMu.Lock()
	f := 0.5 + c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// retryableStatus reports whether the HTTP status signals a transient
// server condition worth another attempt.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter parses the integer-seconds form of a Retry-After header
// (the only form the server emits); 0 when absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do issues one request — retrying transient failures — and decodes the
// JSON response into out, converting error envelopes into errors that
// carry the resilience taxonomy where the status implies one.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("server: encoding request: %w", err)
		}
		payload = b
	}
	url := strings.TrimRight(c.Base, "/") + path
	attempts := c.Retries
	if attempts <= 0 {
		attempts = DefaultClientRetries
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}

	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			// Exponential, jittered, raised to the server's hint.
			delay := c.jitter(backoff << (attempt - 2))
			if hint := lastRetryAfter(lastErr); hint > delay {
				delay = hint
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("server: %s %s: %w", method, path, resilience.ErrCancelled)
			case <-time.After(delay):
			}
		}

		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return fmt.Errorf("server: building request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http().Do(req)
		if err != nil {
			lastErr = fmt.Errorf("server: %s %s: %w", method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue // transient network trouble: retry
		}
		if resp.StatusCode >= 400 {
			var eb errorBody
			msg := resp.Status
			if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
				msg = eb.Error
			}
			hint := retryAfter(resp)
			resp.Body.Close()
			lastErr = &httpError{
				msg:        fmt.Sprintf("server: %s %s: %s (%s)", method, path, msg, resp.Status),
				status:     resp.StatusCode,
				retryAfter: hint,
			}
			if !retryableStatus(resp.StatusCode) {
				return lastErr
			}
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("server: decoding %s %s response: %w", method, path, err)
		}
		return nil
	}
	return lastErr
}

// httpError carries the status and Retry-After hint of a failed
// request through the retry loop.
type httpError struct {
	msg        string
	status     int
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

// lastRetryAfter extracts the server's backoff hint from the previous
// attempt's error, if it was an HTTP-level failure carrying one.
func lastRetryAfter(err error) time.Duration {
	var he *httpError
	if errors.As(err, &he) {
		return he.retryAfter
	}
	return 0
}

// SubmitJob submits one job spec.
func (c *Client) SubmitJob(ctx context.Context, spec jobs.Spec) (jobs.Job, error) {
	var out struct {
		Job jobs.Job `json:"job"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &out)
	return out.Job, err
}

// SubmitCampaign submits a matrix.
func (c *Client) SubmitCampaign(ctx context.Context, spec prochecker.CampaignSpec) (Campaign, error) {
	var out struct {
		Campaign Campaign `json:"campaign"`
	}
	body := struct {
		Campaign prochecker.CampaignSpec `json:"campaign"`
	}{spec}
	err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &out)
	return out.Campaign, err
}

// Job fetches one job.
func (c *Client) Job(ctx context.Context, id string) (jobs.Job, error) {
	var out struct {
		Job jobs.Job `json:"job"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out.Job, err
}

// Jobs lists every job.
func (c *Client) Jobs(ctx context.Context) ([]jobs.Job, error) {
	var out struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Cancel cancels one job.
func (c *Client) Cancel(ctx context.Context, id string) (jobs.Job, error) {
	var out struct {
		Job jobs.Job `json:"job"`
	}
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
	return out.Job, err
}

// Campaign fetches one campaign with its member jobs and, when done,
// the differential report.
func (c *Client) Campaign(ctx context.Context, id string) (Campaign, error) {
	var out struct {
		Campaign Campaign `json:"campaign"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &out)
	return out.Campaign, err
}

// WaitJob polls until the job reaches a terminal state (or ctx
// expires).
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (jobs.Job, error) {
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return job, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, fmt.Errorf("server: waiting for job %s: %w", id, resilience.ErrCancelled)
		case <-time.After(interval):
		}
	}
}

// WaitCampaign polls until every member job is terminal (or ctx
// expires).
func (c *Client) WaitCampaign(ctx context.Context, id string, interval time.Duration) (Campaign, error) {
	for {
		camp, err := c.Campaign(ctx, id)
		if err != nil {
			return camp, err
		}
		if camp.State.Terminal() {
			return camp, nil
		}
		select {
		case <-ctx.Done():
			return camp, fmt.Errorf("server: waiting for campaign %s: %w", id, resilience.ErrCancelled)
		case <-time.After(interval):
		}
	}
}
