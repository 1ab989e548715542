package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"prochecker"
	"prochecker/internal/dist"
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

// fleetBenchClient builds a workerless coordinator whose jobs are
// executed by in-process fleet workers pulling over the HTTP lease API.
// The runner sleeps a fixed service time instead of running the real
// analyzer: it stands in for remote compute happening off-box, so the
// measured quantity is lease-dispatch concurrency — how much campaign
// wall-clock the coordinator can overlap across workers — rather than
// local CPU contention (the benchmark host may have a single core).
func fleetBenchClient(b *testing.B) *Client {
	b.Helper()
	store, err := jobs.OpenStore(b.TempDir(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := jobs.New(jobs.Config{
		Runner: func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
			return nil, errors.New("coordinator must not run jobs locally")
		},
		Normalize: prochecker.NormalizeJobSpec,
		Store:     store,
		LeaseTTL:  time.Minute,
		Queue:     256,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, nil))
	b.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

// fleetRunner models one remote job: a fixed service time, then a
// deterministic verdict set.
func fleetRunner(serviceTime time.Duration) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
		t := time.NewTimer(serviceTime)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
		return &jobs.Result{
			SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec,
			Verdicts: []jobs.Verdict{{ID: "S06", Class: "authentication", Verified: true}},
		}, nil
	}
}

// BenchmarkFleetCampaign measures a 3-implementation × 3-fault-spec
// campaign (9 cells, 40ms fixed service time each) end to end through
// the lease protocol with a 1-worker and a 2-worker fleet. The
// acceptance bar (ci.sh) is >= 1.5x campaign throughput with 2 workers.
func BenchmarkFleetCampaign(b *testing.B) {
	const serviceTime = 40 * time.Millisecond
	for _, nworkers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", nworkers), func(b *testing.B) {
			cl := fleetBenchClient(b)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{}, nworkers)
			for i := 0; i < nworkers; i++ {
				w := &dist.Worker{
					Coordinator: cl, Runner: fleetRunner(serviceTime),
					ID: fmt.Sprintf("bench-w%d", i), Poll: time.Millisecond, Seed: int64(i),
				}
				go func() { defer func() { done <- struct{}{} }(); w.Run(ctx) }() //nolint:errcheck
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCtx, benchCancel := context.WithTimeout(context.Background(), 2*time.Minute)
				camp, err := cl.SubmitCampaign(benchCtx, prochecker.CampaignSpec{
					Impls:      []string{"conformant", "srsLTE", "OAI"},
					Faults:     []string{"", "drop=0.15", "drop=0.3"},
					Seed:       int64(2000 + i),
					Properties: []string{"S06"},
				})
				if err != nil {
					benchCancel()
					b.Fatal(err)
				}
				camp, err = cl.WaitCampaign(benchCtx, camp.ID, time.Millisecond)
				benchCancel()
				if err != nil {
					b.Fatal(err)
				}
				if camp.State != jobs.StateDone {
					b.Fatalf("campaign state = %s, want done", camp.State)
				}
			}
			b.StopTimer()
			cancel()
			for i := 0; i < nworkers; i++ {
				<-done
			}
		})
	}
}
