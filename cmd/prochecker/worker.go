// Fleet worker mode: pull jobs from a remote coordinator over the
// lease API (-worker -server URL) and run them through the production
// job runner until interrupted.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prochecker"
	"prochecker/internal/obs"
	"prochecker/internal/server"
)

// workerConfig carries the -worker flags.
type workerConfig struct {
	serverURL    string
	id           string        // worker identity ("" = host-pid)
	concurrency  int           // parallel pull loops
	workers      int           // per-job analysis pool size
	snapshotDir  string        // root for per-job exploration checkpoints
	retries      int           // HTTP attempts per request (0 = default)
	retryBackoff time.Duration // base HTTP retry backoff
	seed         int64         // jitter seed
	metricsAddr  string        // debug endpoint; "" disables
}

// runWorker runs the fleet agent until SIGINT/SIGTERM. On shutdown the
// agent stops acquiring, fails its in-flight leases with the cancelled
// class (the coordinator requeues them uncharged for another worker),
// and exits clean.
func runWorker(cfg workerConfig) error {
	id := cfg.id
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	reg := obs.NewRegistry()
	if cfg.metricsAddr != "" {
		dbg, derr := obs.Serve(cfg.metricsAddr, reg)
		if derr != nil {
			return derr
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "prochecker: worker serving debug endpoint on http://%s\n", dbg.Addr)
	}

	cl := &server.Client{
		Base: cfg.serverURL, Retries: cfg.retries, Backoff: cfg.retryBackoff, Seed: cfg.seed,
	}
	w := prochecker.NewFleetWorker(cl, id, cfg.concurrency, prochecker.JobRunnerConfig{
		Workers:      cfg.workers,
		SnapshotRoot: cfg.snapshotDir,
	}, reg)
	w.Seed = cfg.seed

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "prochecker: worker %s pulling jobs from %s (concurrency %d)\n",
		id, cfg.serverURL, cfg.concurrency)
	err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "prochecker: worker %s stopped\n", id)
	if errors.Is(err, context.Canceled) {
		return nil // interrupted: in-flight leases were handed back
	}
	return err
}
