package session

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// AdminMux returns the admin HTTP routes every front end serves on its
// separate -admin listener, so operational traffic never competes with
// query traffic:
//
//	/metrics          Prometheus text exposition: the server's registry
//	                  under probe_<name>_*, then whatever extra appends
//	/debug/traces     the trace store: the last Config.TraceBuffer
//	                  interesting requests (traced, slow, sampled) as
//	                  JSON, or as indented text with ?format=text
//	/debug/pprof/     the standard Go profiling handlers
//	/healthz          liveness: 200 while the process runs
//	/readyz           readiness: 503 once Shutdown starts draining or
//	                  while ready returns an error (its text is the
//	                  body), 200 otherwise
//
// The front end adds its own routes to the returned mux. The handler
// stays valid during and after Shutdown (readiness is how a load
// balancer sees the drain), so the admin HTTP server should be closed
// after Shutdown returns, not before.
//
// pprof handlers are registered on the mux explicitly — importing
// net/http/pprof for its DefaultServeMux side effect would leak
// profiling onto any default-mux server the embedding process runs.
func (s *Server) AdminMux(ready func() error, extra func(*bytes.Buffer) error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		err := s.metrics.WritePrometheus(&buf, "probe_"+s.name)
		if err == nil {
			err = extra(&buf)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/traces", s.serveTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if err := ready(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// serveTraces dumps the trace store, newest first: JSON by default,
// the rendered-text form with ?format=text.
func (s *Server) serveTraces(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.traces.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.traces.WriteJSON(w)
}
