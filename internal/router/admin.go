package router

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
)

// AdminHandler returns the router's admin HTTP surface: the session
// layer's routes (session.Server.AdminMux: /metrics, /debug/traces,
// /debug/pprof/, /healthz, /readyz) with
//
//	/metrics  probe_router_*: per-shard fan-out latency histograms,
//	          fan-out call counters, shard/replica health gauges, merge
//	          overhead, front-side request counters
//	/readyz   also 503 until the grid is learned and while a shard has
//	          no live node (Ready), the failing condition in the body
func (r *Router) AdminHandler() http.Handler {
	return r.AdminMux(r.Ready, func(buf *bytes.Buffer) error {
		name := "probe_router_go_goroutines"
		fmt.Fprintf(buf, "# TYPE %s gauge\n%s %d\n", name, name, runtime.NumGoroutine())
		return nil
	})
}
