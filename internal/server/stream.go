package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"prochecker/internal/jobs"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// EventStream is one open SSE subscription: a typed reader over a
// /events response body. Next decodes frames one at a time; the
// last-seen frame id is tracked so a dropped connection can be resumed
// with Last-Event-ID (Follow* do this automatically).
type EventStream struct {
	body   io.ReadCloser
	rd     *bufio.Reader
	lastID string
}

// StreamJobEvents opens the SSE stream for one job. lastEventID, when
// non-empty, resumes from just after that bus sequence; "" replays
// whatever the server ring still retains.
func (c *Client) StreamJobEvents(ctx context.Context, id, lastEventID string) (*EventStream, error) {
	return c.stream(ctx, "/v1/jobs/"+id+"/events", lastEventID)
}

// StreamCampaignEvents opens the SSE stream across one campaign's
// member jobs.
func (c *Client) StreamCampaignEvents(ctx context.Context, id, lastEventID string) (*EventStream, error) {
	return c.stream(ctx, "/v1/campaigns/"+id+"/events", lastEventID)
}

// stream issues the streaming GET. Unlike do, it neither retries nor
// buffers — reconnection policy belongs to the Follow* loops, which
// know the resume position.
func (c *Client) stream(ctx context.Context, path, lastEventID string) (*EventStream, error) {
	url := strings.TrimRight(c.Base, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("server: building request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("server: GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		resp.Body.Close()
		return nil, &httpError{
			msg:    fmt.Sprintf("server: GET %s: %s (%s)", path, msg, resp.Status),
			status: resp.StatusCode,
		}
	}
	es := &EventStream{body: resp.Body, rd: bufio.NewReader(resp.Body), lastID: lastEventID}
	return es, nil
}

// Next blocks until the next complete frame arrives and decodes it.
// io.EOF means the server ended the stream (for job/campaign streams:
// after the terminal event).
func (s *EventStream) Next() (obs.BusEvent, error) {
	var id, data string
	for {
		line, err := s.rd.ReadString('\n')
		if err != nil {
			return obs.BusEvent{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if data == "" {
				continue // heartbeat or padding: keep reading
			}
			if id != "" {
				s.lastID = id
			}
			var ev obs.BusEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return obs.BusEvent{}, fmt.Errorf("server: decoding event: %w", err)
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
			// Comment (heartbeat).
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimPrefix(strings.TrimPrefix(line, "id:"), " ")
		case strings.HasPrefix(line, "data:"):
			chunk := strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
			if data != "" {
				data += "\n"
			}
			data += chunk
		}
		// The event: field is implied by the decoded payload's Type.
	}
}

// LastEventID reports the id of the last identified frame — the resume
// position for a reconnect ("" when no identified frame arrived yet).
func (s *EventStream) LastEventID() string { return s.lastID }

// Close releases the underlying connection.
func (s *EventStream) Close() error { return s.body.Close() }

// follow tails one stream to completion: events go to fn (when
// non-nil), transport drops reconnect from the last identified frame, and isDone decides
// which event ends the tail. Consecutive connection failures are
// bounded by the client's retry budget (a delivered event resets it).
func (c *Client) follow(ctx context.Context, open func(lastID string) (*EventStream, error),
	fn func(obs.BusEvent), isDone func(obs.BusEvent) bool) error {
	attempts := c.Retries
	if attempts <= 0 {
		attempts = DefaultClientRetries
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	lastID := ""
	failures := 0
	for {
		if failures > 0 {
			if failures >= attempts {
				return fmt.Errorf("server: following events: stream kept failing after %d attempts", failures)
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("server: following events: %w", resilience.ErrCancelled)
			case <-time.After(c.jitter(backoff << (failures - 1))):
			}
		}
		es, err := open(lastID)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("server: following events: %w", resilience.ErrCancelled)
			}
			var he *httpError
			if errors.As(err, &he) && !retryableStatus(he.status) {
				return err
			}
			failures++
			continue
		}
		for {
			ev, rerr := es.Next()
			if rerr != nil {
				es.Close()
				if ctx.Err() != nil {
					return fmt.Errorf("server: following events: %w", resilience.ErrCancelled)
				}
				// EOF before the terminal event (server restarted,
				// connection cut): resume from the last identified frame.
				lastID = es.LastEventID()
				failures++
				break
			}
			failures = 0
			lastID = es.LastEventID()
			if fn != nil {
				fn(ev)
			}
			if isDone(ev) {
				es.Close()
				return nil
			}
		}
	}
}

// FollowJob tails a job live: every event (lifecycle, spans, per-level
// exploration progress) is handed to fn until the job goes terminal,
// reconnecting with Last-Event-ID across connection drops. It returns
// the final job snapshot. A nil fn just waits for the terminal event.
func (c *Client) FollowJob(ctx context.Context, id string, fn func(obs.BusEvent)) (jobs.Job, error) {
	err := c.follow(ctx,
		func(lastID string) (*EventStream, error) { return c.StreamJobEvents(ctx, id, lastID) },
		fn,
		func(ev obs.BusEvent) bool {
			return ev.Type == "job" && ev.Scope == id && jobs.State(ev.Name).Terminal()
		})
	if err != nil {
		return jobs.Job{}, err
	}
	return c.Job(ctx, id)
}

// FollowCampaign tails a campaign live until the synthetic campaign
// summary event reports every member terminal, then returns the final
// campaign (with the differential report). A nil fn just waits for the
// terminal event.
func (c *Client) FollowCampaign(ctx context.Context, id string, fn func(obs.BusEvent)) (Campaign, error) {
	err := c.follow(ctx,
		func(lastID string) (*EventStream, error) { return c.StreamCampaignEvents(ctx, id, lastID) },
		fn,
		func(ev obs.BusEvent) bool {
			return ev.Type == "campaign" && ev.Scope == id && jobs.State(ev.Name).Terminal()
		})
	if err != nil {
		return Campaign{}, err
	}
	return c.Campaign(ctx, id)
}
