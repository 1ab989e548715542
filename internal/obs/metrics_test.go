package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if r.Counter("c") != c {
		t.Fatal("Counter should return the same instrument for the same name")
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	g.SetMax(5) // below current: no-op
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(100)
	if got := g.Value(); got != 100 {
		t.Fatalf("gauge after SetMax = %d, want 100", got)
	}

	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 5, 50} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 4 || snap.Sum != 60.5 || snap.Min != 0.5 || snap.Max != 50 {
		t.Fatalf("histogram snapshot = %+v", snap)
	}
	wantBuckets := map[string]int64{"le_1": 1, "le_10": 2, "+Inf": 1}
	if !reflect.DeepEqual(snap.Buckets, wantBuckets) {
		t.Fatalf("buckets = %v, want %v", snap.Buckets, wantBuckets)
	}

	// Default bounds apply when nil is given, and first creation wins.
	hd := r.Histogram("hd", nil)
	if len(hd.bounds) != len(DefaultBuckets) {
		t.Fatalf("default bounds len = %d, want %d", len(hd.bounds), len(DefaultBuckets))
	}
	if r.Histogram("hd", []float64{99}) != hd {
		t.Fatal("second Histogram call should return the first instrument")
	}
}

func TestRegistrySnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("states").Add(42)
	r.Gauge("width").Set(7)
	r.Histogram("lat", []float64{10}).Observe(3)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	if snap["states"] != int64(42) || snap["width"] != int64(7) {
		t.Fatalf("snapshot = %v", snap)
	}
	// The whole snapshot must be JSON-marshalable (the manifest embeds it).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

// TestRegistryConcurrent hammers every instrument kind from many
// goroutines — including instrument creation races and concurrent
// snapshots — and checks the totals. Run under -race this is the
// registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", w%4)).Inc()
				r.Gauge("g").SetMax(int64(i))
				r.Histogram("h", nil).Observe(float64(i % 100))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	var own int64
	for i := 0; i < 4; i++ {
		own += r.Counter(fmt.Sprintf("own.%d", i)).Value()
	}
	if own != workers*perWorker {
		t.Fatalf("own counters sum = %d, want %d", own, workers*perWorker)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != perWorker-1 {
		t.Fatalf("gauge max = %d, want %d", got, perWorker-1)
	}
}

func TestServeEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("mc.states_explored").Add(1234)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	if !strings.Contains(srv.Addr, ":") {
		t.Fatalf("Addr = %q, want host:port", srv.Addr)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		rec := httptest.NewRecorder()
		if _, err := rec.Body.ReadFrom(resp.Body); err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return rec.Body.String()
	}

	if got := get("/metrics"); !strings.Contains(got, "# TYPE prochecker_mc_states_explored counter") {
		t.Fatalf("/metrics missing registry metric family:\n%s", got)
	}
	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}
	if got := get("/debug/pprof/"); !strings.Contains(got, "goroutine") {
		t.Fatal("/debug/pprof/ index should list profiles")
	}
	if got := get("/metrics"); !strings.Contains(got, "prochecker_mc_states_explored 1234") {
		t.Fatalf("/metrics missing Prometheus sample:\n%s", got)
	}
}

// TestServeReadinessHook drives the /healthz readiness hook through its
// states: no hook (200), hook erroring (503 with the error as body,
// the draining signal orchestrators act on), hook healthy again (200),
// hook removed (200).
func TestServeReadinessHook(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	probe := func() (int, string) {
		resp, err := http.Get("http://" + srv.Addr + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		rec := httptest.NewRecorder()
		if _, err := rec.Body.ReadFrom(resp.Body); err != nil {
			t.Fatalf("reading /healthz body: %v", err)
		}
		return resp.StatusCode, rec.Body.String()
	}

	if code, _ := probe(); code != http.StatusOK {
		t.Fatalf("hookless /healthz = %d, want 200", code)
	}
	srv.SetReadiness(func() error { return errors.New("draining") })
	code, body := probe()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", code)
	}
	if !strings.Contains(body, "draining") {
		t.Fatalf("draining /healthz body = %q, want the hook's error text", body)
	}
	srv.SetReadiness(func() error { return nil })
	if code, _ := probe(); code != http.StatusOK {
		t.Fatalf("ready-again /healthz = %d, want 200", code)
	}
	srv.SetReadiness(nil)
	if code, _ := probe(); code != http.StatusOK {
		t.Fatalf("hook-removed /healthz = %d, want 200", code)
	}

	var nilSrv *Server
	nilSrv.SetReadiness(func() error { return nil }) // nil-safe
}
