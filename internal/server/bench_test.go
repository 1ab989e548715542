package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
)

// benchClient builds a real-runner server for benchmarking.
func benchClient(b *testing.B) *Client {
	b.Helper()
	return benchClientWAL(b, "")
}

// benchClientWAL is benchClient with an optional write-ahead log, for
// measuring what durability costs over the in-memory queue.
func benchClientWAL(b *testing.B, walDir string) *Client {
	b.Helper()
	store, err := jobs.OpenStore(b.TempDir(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := jobs.New(jobs.Config{
		Runner:    prochecker.JobRunner(2),
		Normalize: prochecker.NormalizeJobSpec,
		Store:     store,
		WALDir:    walDir,
		Workers:   2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, nil))
	b.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

func runCampaign(b *testing.B, cl *Client, seed int64) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	camp, err := cl.SubmitCampaign(ctx, prochecker.CampaignSpec{
		Impls:      []string{"conformant", "srsLTE", "OAI"},
		Faults:     []string{"", "drop=0.15"},
		Seed:       seed,
		Properties: []string{"S06"},
	})
	if err != nil {
		b.Fatal(err)
	}
	camp, err = cl.WaitCampaign(ctx, camp.ID, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	if camp.State != jobs.StateDone {
		b.Fatalf("campaign state = %s, want done", camp.State)
	}
}

// BenchmarkServeCampaign measures the full HTTP round trip of a
// 3-implementation × 2-fault-spec campaign (6 cells, one property).
// The cold variant changes the seed every iteration so every cell is
// computed; the cached variant reuses one seed so after the first
// iteration every cell is served from the content-addressed store.
func BenchmarkServeCampaign(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		cl := benchClient(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCampaign(b, cl, int64(1000+i))
		}
	})
	b.Run("cached", func(b *testing.B) {
		cl := benchClient(b)
		runCampaign(b, cl, 42) // warm the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCampaign(b, cl, 42)
		}
	})
}

// BenchmarkServeCampaignDurable is BenchmarkServeCampaign/cold with
// the write-ahead log enabled: every submission, start and terminal
// transition is journalled (group-commit fsync). The acceptance bar is
// throughput within 5% of the in-memory queue.
func BenchmarkServeCampaignDurable(b *testing.B) {
	cl := benchClientWAL(b, b.TempDir())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, cl, int64(1000+i))
	}
}
