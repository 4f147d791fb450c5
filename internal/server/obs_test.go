package server

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"probe"
)

// TestAdminEndpoint drives real traffic through the server and then
// scrapes the admin handler: /metrics must expose a counter, a gauge,
// and a latency histogram with observations in parseable Prometheus
// text; /healthz stays 200; /readyz flips to 503 the moment a drain
// starts and stays there.
func TestAdminEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	srv, addr, _ := startServer(t, Config{DrainTimeout: 5 * time.Second}, randPoints(rng, 2000, 0))
	cl := dial(t, addr)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{500, 500}); err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
	}

	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE probe_server_server_requests_total counter",
		"probe_server_server_requests_total 3",
		"# TYPE probe_server_server_open_sessions gauge",
		"# TYPE probe_server_server_latency_range histogram",
		"probe_server_server_latency_range_count 3",
		"probe_server_server_latency_range_bucket{le=\"+Inf\"} 3",
		"probe_db_range_search_count_total 3",
		"# TYPE probe_db_store_pages_reused_total counter",
		"# TYPE probe_db_store_file_pages gauge",
		"# TYPE probe_db_store_live_pages gauge",
		"# TYPE probe_db_tree_leaf_pages gauge",
		"# TYPE probe_db_tree_entries gauge",
		"# TYPE probe_pool_pages_resident gauge",
		"# TYPE probe_go_goroutines gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz status %d before drain", code)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, "\"server\"") || !strings.Contains(body, "\"db\"") {
		t.Fatalf("/debug/vars status %d body %q", code, body)
	}

	// Pin an in-flight request so Shutdown sits in its grace period,
	// making the mid-drain readiness state observable.
	if !srv.BeginRequest() {
		t.Fatal("could not claim a request slot")
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Shutdown(context.Background()) }()
	deadline := time.After(3 * time.Second)
	for {
		code, _ := get("/readyz")
		if code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("/readyz never went 503 during drain")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatal("/healthz must stay 200 during drain")
	}
	srv.EndRequest()
	if err := <-drainDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("/readyz must stay 503 after drain")
	}
}

// TestTraceRoundTrip: a traced request comes back with the server's
// per-phase timing breakdown on DONE and the rendered span tree on a
// preceding TEXT frame; an untraced request carries neither.
func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, addr, _ := startServer(t, Config{}, randPoints(rng, 2000, 0))
	cl := dial(t, addr)
	ctx := context.Background()

	if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{800, 800}); err != nil {
		t.Fatal(err)
	}
	if tm := cl.LastTiming(); tm.Total != 0 {
		t.Fatalf("untraced request got a timing breakdown: %+v", tm)
	}

	cl.SetTrace(true)
	if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{800, 800}); err != nil {
		t.Fatal(err)
	}
	tm := cl.LastTiming()
	if tm.Total <= 0 {
		t.Fatalf("traced request timing: %+v, want Total > 0", tm)
	}
	if sum := tm.Queue + tm.Plan + tm.Exec + tm.Stream; sum > tm.Total {
		t.Fatalf("phases (%v) exceed total (%v)", sum, tm.Total)
	}
	tree := cl.LastTrace()
	if !strings.Contains(tree, "range") {
		t.Fatalf("trace tree %q does not name the operator", tree)
	}
	if !strings.Contains(tree, "pool-gets=") {
		t.Fatalf("trace tree %q carries no pool attribution", tree)
	}

	// Tracing follows the toggle off again.
	cl.SetTrace(false)
	if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{10, 10}); err != nil {
		t.Fatal(err)
	}
	if cl.LastTiming().Total != 0 || cl.LastTrace() != "" {
		t.Fatal("trace state leaked across SetTrace(false)")
	}
}

// TestPagesHistogramIgnoresTrace: server.pages.<op> records a
// request's data pages, traced or not, so a traced and an untraced
// RANGE of one box add the same value to it, the DataPages their DONE
// reports.
func TestPagesHistogramIgnoresTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	srv, addr, _ := startServer(t, Config{}, randPoints(rng, 2000, 0))
	cl := dial(t, addr)
	ctx := context.Background()
	h := srv.Metrics().Histogram("server.pages.range")
	var added [2]int64
	for i, traced := range []bool{false, true} {
		cl.SetTrace(traced)
		before := h.Snapshot().Sum
		_, qs, err := cl.Range(ctx, []uint32{100, 100}, []uint32{600, 600})
		if err != nil {
			t.Fatal(err)
		}
		added[i] = h.Snapshot().Sum - before
		if added[i] != int64(qs.DataPages) {
			t.Errorf("traced=%v: pages.range grew by %d, DONE reports %d data pages", traced, added[i], qs.DataPages)
		}
	}
	if added[0] == 0 || added[0] != added[1] {
		t.Fatalf("pages.range grew by %d untraced and %d traced, want one nonzero value", added[0], added[1])
	}
}

// TestPoolHistogramsIgnoreTrace: server.pool_gets.<op> and
// server.pool_misses.<op> record a request's pool cost, traced or not,
// so a traced and an untraced RANGE of one box, each on a cold pool,
// add the same values to them, the ones their DONE reports.
func TestPoolHistogramsIgnoreTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	srv, addr, _ := startServer(t, Config{}, randPoints(rng, 2000, 0))
	cl := dial(t, addr)
	ctx := context.Background()
	gets := srv.Metrics().Histogram("server.pool_gets.range")
	misses := srv.Metrics().Histogram("server.pool_misses.range")
	var added [2][2]int64
	for i, traced := range []bool{false, true} {
		if err := srv.database().DropCaches(); err != nil {
			t.Fatal(err)
		}
		cl.SetTrace(traced)
		g, m := gets.Snapshot().Sum, misses.Snapshot().Sum
		_, qs, err := cl.Range(ctx, []uint32{100, 100}, []uint32{600, 600})
		if err != nil {
			t.Fatal(err)
		}
		added[i] = [2]int64{gets.Snapshot().Sum - g, misses.Snapshot().Sum - m}
		if want := [2]int64{int64(qs.PoolGets), int64(qs.PoolMisses)}; added[i] != want {
			t.Errorf("traced=%v: pool_gets, pool_misses grew by %v, DONE reports %v", traced, added[i], want)
		}
	}
	if added[0][0] == 0 || added[0][1] == 0 || added[0] != added[1] {
		t.Fatalf("pool_gets, pool_misses grew by %v untraced and %v traced, want one nonzero pair", added[0], added[1])
	}
}

// TestUntracedRangeStatsOverTheWire: an untraced RANGE's DONE carries
// its read's pool and physical counters, the ones a library read of
// the same box reports on the same cold pool.
func TestUntracedRangeStatsOverTheWire(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	srv, addr, _ := startServer(t, Config{}, randPoints(rng, 3000, 0))
	cl := dial(t, addr)
	ctx := context.Background()
	db := srv.database()
	for _, b := range [][4]uint32{{100, 600, 100, 600}, {0, 1023, 0, 1023}, {700, 720, 10, 900}} {
		lo, hi := []uint32{b[0], b[2]}, []uint32{b[1], b[3]}
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		_, got, err := cl.Range(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		want, err := db.RangeSearchFunc(probe.Box2(b[0], b[1], b[2], b[3]), func(probe.Point) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if want.PoolMisses == 0 || want.PhysReads == 0 {
			t.Fatalf("%v: a cold read counted no misses: %+v", b, want)
		}
		for _, f := range []struct {
			name      string
			got, want uint64
		}{
			{"data pages", uint64(got.DataPages), uint64(want.DataPages)},
			{"seeks", uint64(got.Seeks), uint64(want.Seeks)},
			{"elements", uint64(got.Elements), uint64(want.Elements)},
			{"results", uint64(got.Results), uint64(want.Results)},
			{"pool gets", got.PoolGets, want.PoolGets},
			{"pool hits", got.PoolHits, want.PoolHits},
			{"pool misses", got.PoolMisses, want.PoolMisses},
			{"physical reads", got.PhysReads, want.PhysReads},
			{"physical writes", got.PhysWrites, want.PhysWrites},
		} {
			if f.got != f.want {
				t.Errorf("%v: untraced RANGE reports %s %d, the library %d", b, f.name, f.got, f.want)
			}
		}
	}
}

// syncBuf is a goroutine-safe log sink: sessions log from their own
// goroutines while the test polls the contents.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls until the log sink contains want.
func waitFor(t *testing.T, buf *syncBuf, want string) string {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		if out := buf.String(); strings.Contains(out, want) {
			return out
		}
		select {
		case <-deadline:
			t.Fatalf("log never contained %q; log:\n%s", want, buf.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestSlowQueryLog: with the log-everything threshold every request
// emits a structured warn line carrying the rendered span tree.
func TestSlowQueryLog(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var buf syncBuf
	cfg := Config{
		SlowQuery: -1, // log every request as slow
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	}
	_, addr, _ := startServer(t, cfg, randPoints(rng, 2000, 0))
	cl := dial(t, addr)
	if _, _, err := cl.Range(context.Background(), []uint32{0, 0}, []uint32{600, 600}); err != nil {
		t.Fatal(err)
	}
	out := waitFor(t, &buf, "slow query")
	// An untraced request runs on the snapshot read path, so its span
	// carries the logical merge counters (data-pages, not pool-gets —
	// physical attribution requires the trace flag).
	for _, want := range []string{"level=WARN", "op=range", "status=ok", "trace=", "data-pages="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, out)
		}
	}
}

// TestSampledRequestLog: LogEvery=1 logs each request at info; a
// request that fails validation logs its typed status.
func TestSampledRequestLog(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf syncBuf
	cfg := Config{
		LogEvery: 1,
		Logger:   slog.New(slog.NewTextHandler(&buf, nil)),
	}
	_, addr, _ := startServer(t, cfg, randPoints(rng, 500, 0))
	cl := dial(t, addr)
	if _, _, err := cl.Range(context.Background(), []uint32{0, 0}, []uint32{100, 100}); err != nil {
		t.Fatal(err)
	}
	out := waitFor(t, &buf, "msg=request")
	for _, want := range []string{"level=INFO", "op=range", "status=ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %q:\n%s", want, out)
		}
	}

	// A dimension mismatch is a bad request; its log line says so.
	if _, _, err := cl.Nearest(context.Background(), []uint32{1, 2, 3}, 1, 0); err == nil {
		t.Fatal("3-dim nearest on a 2-dim database succeeded")
	}
	waitFor(t, &buf, "status=bad-request")
}
