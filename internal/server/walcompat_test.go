package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
)

// TestLeaseEraWALReplays starts a service and server on a WAL written
// by the version that still had the fleet lease protocol and the
// tenant quota gate (testdata/wal/lease-era, see its README). The log
// holds a job under a live lease, a released lease, a job that ended
// with an expired lease, a campaign meta and a tenant balance meta,
// which the server drops from the next checkpoint.
func TestLeaseEraWALReplays(t *testing.T) {
	walDir := t.TempDir()
	src := filepath.Join("..", "..", "testdata", "wal", "lease-era")
	segs, err := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("fixture segments: %v %v", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var ran []string
	svc, err := jobs.New(jobs.Config{
		Runner: func(_ context.Context, spec jobs.Spec) (*jobs.Result, error) {
			mu.Lock()
			ran = append(ran, spec.Impl)
			mu.Unlock()
			return &jobs.Result{SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec,
				Verdicts: []jobs.Verdict{{ID: "S06", Class: "authentication", Verified: true}}}, nil
		},
		Normalize: prochecker.NormalizeJobSpec,
		WALDir:    walDir,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	// Startup compaction has rewritten the log without lease records.
	live, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range live {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), `"type":"lease"`) {
			t.Fatalf("%s still holds lease records after startup compaction:\n%s", seg, data)
		}
	}
	if rec := svc.Recovery(); rec.Requeued != 2 || rec.Terminal != 1 {
		t.Fatalf("recovery = %+v, want 2 requeued and 1 terminal kept", rec)
	}

	ts := httptest.NewServer(New(svc, nil))
	t.Cleanup(ts.Close)
	cl := &Client{Base: ts.URL, HTTP: ts.Client()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The leased job and the released one requeue and finish on the
	// local executor, completing the restored campaign.
	camp, err := cl.WaitCampaign(ctx, "c-0001", 2*time.Millisecond)
	if err != nil {
		t.Fatalf("campaign c-0001 not restored: %v", err)
	}
	if camp.State != jobs.StateDone || !reflect.DeepEqual(camp.JobIDs, []string{"j-0002", "j-0003"}) {
		t.Fatalf("restored campaign = %s %v, want done [j-0002 j-0003]", camp.State, camp.JobIDs)
	}
	for _, j := range camp.Jobs {
		if !j.Recovered || j.Attempts != 1 || j.Result == nil {
			t.Fatalf("job %s = recovered %v, attempts %d, result %v; want a recovered job run once locally",
				j.ID, j.Recovered, j.Attempts, j.Result != nil)
		}
	}
	mu.Lock()
	gotRan := append([]string(nil), ran...)
	mu.Unlock()
	if !reflect.DeepEqual(gotRan, []string{"conformant", "srsLTE"}) {
		t.Fatalf("local executor ran %v, want [conformant srsLTE]", gotRan)
	}

	// The tenant balance is not mistaken for a campaign.
	var list struct {
		Campaigns []Campaign `json:"campaigns"`
	}
	if err := cl.do(ctx, http.MethodGet, "/v1/campaigns", nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != "c-0001" {
		t.Fatalf("campaigns = %+v, want only c-0001", list.Campaigns)
	}
	if _, err := cl.Campaign(ctx, "tenant:alice"); err == nil {
		t.Fatal("tenant:alice restored as a campaign")
	}

	// The expired-lease job keeps its class and exit code (8 is never
	// renumbered).
	j1, err := cl.Job(ctx, "j-0001")
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != jobs.StateFailed || j1.Class != "lease-expired" || j1.ExitCode != 8 {
		t.Fatalf("j-0001 = %s class %q exit %d, want failed lease-expired 8", j1.State, j1.Class, j1.ExitCode)
	}

	// New campaigns continue the restored ID sequence.
	next, err := cl.SubmitCampaign(ctx, prochecker.CampaignSpec{Impls: []string{"OAI"}, Seed: 7, Properties: []string{"S06"}})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "c-0002" {
		t.Fatalf("next campaign ID = %s, want c-0002", next.ID)
	}

	// The server dropped the tenant meta it skipped, so a checkpoint
	// leaves it out of the WAL and keeps the restored campaign.
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live, err = filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var wal strings.Builder
	for _, seg := range live {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(data)
	}
	if strings.Contains(wal.String(), `"id":"tenant:alice"`) || !strings.Contains(wal.String(), `"id":"c-0001"`) {
		t.Fatalf("checkpointed WAL keeps tenant:alice or lost c-0001:\n%s", wal.String())
	}
}

// TestLeaseRoutesGone: the fleet lease API no longer exists.
func TestLeaseRoutesGone(t *testing.T) {
	svc, err := jobs.New(jobs.Config{Runner: prochecker.JobRunner(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	rec := httptest.NewRecorder()
	New(svc, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/leases", strings.NewReader(`{"worker":"w1"}`)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/leases = %d, want 404", rec.Code)
	}
}

func TestCampaignSeq(t *testing.T) {
	for _, c := range []struct {
		id string
		n  int
		ok bool
	}{
		{"c-0001", 1, true},
		{"c-0042", 42, true},
		{"c-12345", 12345, true},
		{"tenant:alice", 0, false},
		{"tenant:c-0001", 0, false},
		{"c-", 0, false},
		{"c-12x", 0, false},
		{"c--1", 0, false},
		{"j-0001", 0, false},
		{"", 0, false},
	} {
		if n, ok := campaignSeq(c.id); n != c.n || ok != c.ok {
			t.Errorf("campaignSeq(%q) = %d, %v; want %d, %v", c.id, n, ok, c.n, c.ok)
		}
	}
}
