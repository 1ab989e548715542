// Differential tests for the exploration storage layer: whatever the
// worker count or snapshot/resume history, the engine must return byte-identical verdicts, StatesExplored counts
// and counterexample traces to the sequential reference. Run under
// -race in CI, these also exercise the frozen-index reads of the
// parallel expansion phase.
package mc_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/ts"
)

// TestWorkersMatchSequentialOnCatalogue sweeps worker counts over the
// full threat-composed model and catalogue: ids, verdicts and traces
// must not depend on how the parallel expansion splits the frontier.
func TestWorkersMatchSequentialOnCatalogue(t *testing.T) {
	sys := composedSystem(t)
	list := catalogueMC(t)
	for _, workers := range []int{1, 2, 8} {
		engine := mc.NewEngine()
		opts := mc.Options{Workers: workers}
		for _, p := range list {
			got, err := engine.CheckContext(context.Background(), sys, p, opts)
			if err != nil {
				t.Fatalf("workers=%d %s: engine error: %v", workers, p.Name(), err)
			}
			want := mc.CheckSequential(sys, p, mc.Options{})
			assertSameResult(t, p.Name(), got, want)
		}
	}
}

// TestSnapshotResumeMatchesSequential interrupts an exploration via the
// state budget, then re-runs with the full budget against the same
// snapshot directory: the resumed run must pick up at the last
// completed level (mc.resume_level) and still match the sequential
// reference byte for byte. A graph resumed from a copy of the truncated
// snapshot must also equal a fresh build row for row. In the second
// case that snapshot's rows span at least three edge segments (read off
// mc.edge_bytes).
func TestSnapshotResumeMatchesSequential(t *testing.T) {
	list := catalogueMC(t)
	for _, tc := range []struct {
		name      string
		sys       func(*testing.T) *ts.System
		maxStates int
		minSegs   int64
	}{
		{"one edge segment", composedSystem, 500, 1},
		{"three edge segments", func(t *testing.T) *ts.System {
			return mc.GuardReplay(t, composedSystem(t), "service_accept")
		}, 35000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys(t)
			dir := t.TempDir()

			// Phase 1: a budget small enough to truncate, leaving
			// snapshots of every completed level behind.
			o := obs.New()
			small := mc.Options{Workers: 4, MaxStates: tc.maxStates, SnapshotDir: dir}
			if _, err := mc.NewEngine().CheckContext(obs.NewContext(context.Background(), o), sys, list[0], small); err == nil {
				t.Fatal("small budget did not truncate; raise the model size or lower MaxStates")
			}
			if segs := o.Metrics().Counter("mc.edge_bytes").Value() / (512 << 10); segs < tc.minSegs {
				t.Fatalf("truncated build filled %d edge segments, want at least %d", segs, tc.minSegs)
			}
			snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
			if err != nil || len(snaps) == 0 {
				t.Fatalf("no snapshot written by the truncated run (err=%v)", err)
			}
			// The engine below supersedes the truncated snapshot, so the
			// row-for-row check resumes from a copy.
			rowsDir := t.TempDir()
			for _, path := range snaps {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(rowsDir, filepath.Base(path)), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// Phase 2: full budget, same directory — must resume, not
			// restart.
			o = obs.New()
			ctx := obs.NewContext(context.Background(), o)
			full := mc.Options{Workers: 4, SnapshotDir: dir}
			engine := mc.NewEngine()
			for _, p := range list {
				got, err := engine.CheckContext(ctx, sys, p, full)
				if err != nil {
					t.Fatalf("%s: resumed engine error: %v", p.Name(), err)
				}
				assertSameResult(t, p.Name(), got, mc.CheckSequential(sys, p, mc.Options{}))
			}
			if lvl := o.Metrics().Gauge("mc.resume_level").Value(); lvl == 0 {
				t.Fatal("exploration did not resume from a snapshot")
			}

			// Phase 3: the graph resumed from the truncated snapshot
			// equals a fresh build.
			o = obs.New()
			resumed, err := mc.ExploreGraph(obs.NewContext(context.Background(), o), sys, mc.Options{Workers: 4, SnapshotDir: rowsDir})
			if err != nil {
				t.Fatal(err)
			}
			if lvl := o.Metrics().Gauge("mc.resume_level").Value(); lvl == 0 {
				t.Fatal("row-for-row build did not resume from the truncated snapshot")
			}
			fresh, err := mc.ExploreGraph(context.Background(), sys, mc.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			mc.SameGraph(t, "resumed", resumed, fresh)
		})
	}
}

// TestCorruptSnapshotFallsBackToFreshBuild flips bytes in every
// checkpoint on disk; the loader must reject them (CRC) and explore
// from scratch with correct results, never an error or a wrong graph.
func TestCorruptSnapshotFallsBackToFreshBuild(t *testing.T) {
	sys := composedSystem(t)
	p := catalogueMC(t)[0]
	dir := t.TempDir()
	opts := mc.Options{Workers: 4, SnapshotDir: dir}
	if _, err := mc.NewEngine().CheckContext(context.Background(), sys, p, opts); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(snaps) == 0 {
		t.Fatal("seed run left no snapshot")
	}
	for _, path := range snaps {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mc.NewEngine().CheckContext(context.Background(), sys, p, opts)
	if err != nil {
		t.Fatalf("post-corruption run: %v", err)
	}
	assertSameResult(t, p.Name(), got, mc.CheckSequential(sys, p, mc.Options{}))
}

// TestCompletedSnapshotResumesForFree: a finished exploration writes an
// empty-frontier snapshot; a fresh engine on the same directory should
// restore the whole graph (resume level set, same results).
func TestCompletedSnapshotResumesForFree(t *testing.T) {
	sys := composedSystem(t)
	list := catalogueMC(t)
	dir := t.TempDir()
	opts := mc.Options{Workers: 4, SnapshotDir: dir}
	if _, err := mc.NewEngine().CheckContext(context.Background(), sys, list[0], opts); err != nil {
		t.Fatalf("first run: %v", err)
	}
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	engine := mc.NewEngine()
	for _, p := range list {
		got, err := engine.CheckContext(ctx, sys, p, opts)
		if err != nil {
			t.Fatalf("%s: restored engine error: %v", p.Name(), err)
		}
		assertSameResult(t, p.Name(), got, mc.CheckSequential(sys, p, mc.Options{}))
	}
	if lvl := o.Metrics().Gauge("mc.resume_level").Value(); lvl == 0 {
		t.Fatal("completed snapshot was not restored")
	}
}
