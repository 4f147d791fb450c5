package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
)

// AdminHandler returns the HTTP handler for the server's admin
// endpoint: the session layer's routes (session.Server.AdminMux:
// /metrics, /debug/traces, /debug/pprof/, /healthz, /readyz) with
//
//	/metrics          extended by every database and transaction
//	                  (probe_db_*, probe_tx_*) metric plus scrape-time
//	                  pool and MVCC gauges (retained versions/pages,
//	                  pinned snapshots), the page file's space
//	                  series (probe_db_store_*) and the tree's leaf
//	                  fill (probe_db_tree_*)
//	/readyz           also 503 while the SetReadyCheck condition fails
//	/debug/vars       expvar-style JSON snapshot of the registries
func (s *Server) AdminHandler() http.Handler {
	mux := s.AdminMux(s.readyErr, s.writeDBMetrics)
	mux.HandleFunc("/debug/vars", s.serveVars)
	return mux
}

// writeDBMetrics appends the database's registries (probe_db_*,
// probe_tx_*) and the point-in-time gauges (buffer-pool occupancy,
// MVCC retention, goroutines) that are cheaper to read at scrape time
// than to maintain continuously.
func (s *Server) writeDBMetrics(buf *bytes.Buffer) error {
	db := s.database()
	// Sampled: file_pages over live_pages is the space amplification,
	// entries over leaf_pages the mean leaf fill.
	ds, m := db.DurabilityStats(), db.Metrics()
	m.Gauge("store.file_pages").Set(int64(ds.FilePages))
	m.Gauge("store.live_pages").Set(int64(ds.LivePages))
	m.Int("store.pages_reused").Set(int64(ds.PagesReused))
	m.Gauge("tree.leaf_pages").Set(int64(db.LeafPages()))
	m.Gauge("tree.entries").Set(int64(db.Len()))
	if err := m.WritePrometheus(buf, "probe_db"); err != nil {
		return err
	}
	if err := db.TxMetrics().WritePrometheus(buf, "probe_tx"); err != nil {
		return err
	}
	pi := db.PoolInfo()
	mv := db.MVCCStats()
	for _, g := range []struct {
		name string
		v    int
	}{
		{"probe_pool_pages_capacity", pi.Capacity},
		{"probe_pool_pages_resident", pi.Resident},
		{"probe_pool_pages_pinned", pi.Pinned}, // writers' pins only: reads pin no page
		{"probe_mvcc_version_seq", int(mv.Seq)},
		{"probe_mvcc_pinned_snapshots", mv.PinnedSnapshots},
		{"probe_mvcc_retained_versions", mv.RetainedVersions},
		{"probe_mvcc_retained_pages", mv.RetainedPages},
		{"probe_mvcc_freed_pages", int(mv.FreedPages)},
		{"probe_go_goroutines", runtime.NumGoroutine()},
	} {
		fmt.Fprintf(buf, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.v)
	}
	return nil
}

// serveVars is the expvar-shaped JSON view: one object with the
// server's and the database's registries nested under "server", "db"
// and "tx". Registries render themselves, so this does not import
// expvar or register anything globally.
func (s *Server) serveVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"server\": %s, \"db\": %s, \"tx\": %s}\n",
		s.Metrics().String(), s.database().Metrics().String(), s.database().TxMetrics().String())
}
