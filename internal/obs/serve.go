package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Server is the live observability endpoint: the metrics registry in
// Prometheus text exposition at /metrics, the full net/http/pprof suite
// at /debug/pprof/ for profiling long runs in flight, and a /healthz
// probe that consults the readiness hook.
type Server struct {
	// Addr is the bound address, with the real port when the caller
	// asked for :0.
	Addr  string
	ln    net.Listener
	srv   *http.Server
	ready atomic.Pointer[func() error]
}

// Serve starts the observability endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0"), exposing the registry under the "prochecker" metric
// prefix. It returns once the listener is bound; serving happens in a
// background goroutine until Close.
func Serve(addr string, r *Registry) (*Server, error) {
	s := &Server{}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.PrometheusHandler("prochecker"))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if hook := s.ready.Load(); hook != nil {
			if err := (*hook)(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	s.Addr, s.ln = ln.Addr().String(), ln
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close.
	return s, nil
}

// SetReadiness installs (or, with nil, removes) the hook /healthz
// consults: a non-nil error flips the probe to 503 with the error
// text as the body, so a draining campaign service stops looking
// healthy to orchestrators while it finishes in-flight jobs. Safe to
// call concurrently with probes.
func (s *Server) SetReadiness(hook func() error) {
	if s == nil {
		return
	}
	if hook == nil {
		s.ready.Store(nil)
		return
	}
	s.ready.Store(&hook)
}

// Close stops the endpoint and releases the port.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
