package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// capture redirects stdout around f so the smoke tests can assert the
// generated report content.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// The fast reproduction paths must emit a non-empty report: an empty
// one means a regression silently hollowed out the evaluation section.
func TestReproduceSQNSmoke(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-sqn"}) })
	if err != nil {
		t.Fatalf("run -sqn: %v", err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("-sqn produced an empty report")
	}
	if !strings.Contains(out, "SQN") {
		t.Fatalf("-sqn report does not mention SQN:\n%.400s", out)
	}
}

func TestReproduceTable2Smoke(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-table2"}) })
	if err != nil {
		t.Fatalf("run -table2: %v", err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("-table2 produced an empty report")
	}
	if !strings.Contains(out, "TABLE II") {
		t.Fatalf("-table2 report does not name TABLE II:\n%.400s", out)
	}
}

func TestReproduceFlowsSmoke(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-flows"}) })
	if err != nil {
		t.Fatalf("run -flows: %v", err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("-flows produced an empty report")
	}
}

func TestReproduceNoFlagsShowsUsage(t *testing.T) {
	// With no selection, run must not fail — it prints usage and exits
	// cleanly, mirroring the CLI contract.
	if _, err := capture(t, func() error { return run(nil) }); err != nil {
		t.Fatalf("run with no flags: %v", err)
	}
}

// TestReproduceFig8ModelSizes: -fig8 prints, once, the reachable state
// count of each model it compares, next to the per-property effort.
func TestReproduceFig8ModelSizes(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-fig8"}) })
	if err != nil {
		t.Fatalf("run -fig8: %v", err)
	}
	if !strings.Contains(out, "FIGURE 8") {
		t.Fatalf("-fig8 report does not name FIGURE 8:\n%.400s", out)
	}
	if n := strings.Count(out, "model size:"); n != 1 {
		t.Fatalf("-fig8 printed %d model-size lines, want 1:\n%s", n, out)
	}
	var pro, lte int
	line := out[strings.Index(out, "model size:"):]
	if _, err := fmt.Sscanf(line, "model size: Pro %d reachable states, LTE %d reachable states", &pro, &lte); err != nil || pro <= 0 || lte <= 0 {
		t.Fatalf("-fig8 model sizes: Pro %d, LTE %d (%v) in:\n%s", pro, lte, err, out)
	}
}
