package router

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"probe"
	"probe/internal/obs"
	"probe/internal/server"
)

// syncBuf is an io.Writer safe for the concurrent slog handlers of
// several nodes.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuf) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuf) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestDistributedTrace is the tentpole acceptance test: one traced
// range query through a three-shard cluster must come back with ONE
// span tree — the router's request span with every intersecting
// shard's server-side subtree grafted under its fanout span plus the
// router's own merge overhead — and the same trace ID must appear in
// the router's and the shards' structured logs and in the router's
// /debug/traces store.
func TestDistributedTrace(t *testing.T) {
	g := clusterGrid()
	var shardLog, routerLog syncBuf
	addrs := make([]string, 3)
	for i := range addrs {
		db, err := probe.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		_, addrs[i] = startShard(t, db, server.Config{
			BatchSize: 32,
			Logger:    slog.New(slog.NewTextHandler(&shardLog, nil)),
			LogEvery:  1,
		})
	}
	m, err := BuildEvenMap(DefaultPrefixBits(3), addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, raddr := startRouter(t, m, Config{
		BatchSize: 32,
		Logger:    slog.New(slog.NewTextHandler(&routerLog, nil)),
		LogEvery:  1,
	})
	cl := dialRouter(t, raddr)
	insertThrough(t, cl, clusterPoints(rand.New(rand.NewSource(42)), 3000, 1))

	ctx := context.Background()
	cl.SetTrace(true)
	pts, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{1023, 1023})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3000 {
		t.Fatalf("full-grid range through router: %d points, want 3000", len(pts))
	}

	// One tree, assembled at the router: its own request span on top,
	// every shard's fanout span with the server-side subtree grafted
	// under it, and the merge overhead as a sibling.
	id := cl.LastTraceID()
	if id == 0 {
		t.Fatal("traced request came back without a trace ID")
	}
	root := cl.LastTraceTree()
	if root == nil {
		t.Fatal("traced request came back without a span tree")
	}
	if root.Name() != "router.range" {
		t.Fatalf("tree root = %q, want router.range", root.Name())
	}
	rendered := cl.LastTrace()
	for _, want := range []string{
		"fanout.shard0.primary", "fanout.shard1.primary", "fanout.shard2.primary",
		"merge",
		"server.exec",  // shard-reported phase breakdown
		"range-search", // the shard's own server-side span tree, counters intact
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, rendered)
		}
	}
	if tm := cl.LastTiming(); tm.Total == 0 {
		t.Error("traced DONE through the router carried no timing tail")
	}

	// The same trace ID on every node's structured log: grep-correlate
	// the router line with the three shard lines.
	idStr := obs.TraceIDString(id)
	if got := strings.Count(routerLog.String(), "trace_id="+idStr); got != 1 {
		t.Errorf("router log has %d lines with trace_id=%s, want 1:\n%s", got, idStr, routerLog.String())
	}
	if got := strings.Count(shardLog.String(), "trace_id="+idStr); got != 3 {
		t.Errorf("shard logs have %d lines with trace_id=%s, want 3:\n%s", got, idStr, shardLog.String())
	}

	// The router's /debug/traces store serves the request: JSON with
	// the trace ID and kind, text form with the rendered tree.
	mux := r.AdminHandler()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var doc struct {
		Total  int `json:"total"`
		Traces []struct {
			TraceID string `json:"trace_id"`
			Op      string `json:"op"`
			Kind    string `json:"kind"`
			Trace   string `json:"trace"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/traces JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Total == 0 {
		t.Fatal("/debug/traces empty after a traced request")
	}
	found := false
	for _, tr := range doc.Traces {
		if tr.TraceID == idStr {
			found = true
			if tr.Op != "range" || tr.Kind != "traced" {
				t.Errorf("stored trace %s: op=%q kind=%q, want range/traced", idStr, tr.Op, tr.Kind)
			}
			if !strings.Contains(tr.Trace, "fanout.shard0") {
				t.Errorf("stored trace %s lacks the grafted fan-out tree:\n%s", idStr, tr.Trace)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in /debug/traces:\n%s", idStr, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=text", nil))
	if !strings.Contains(rec.Body.String(), "trace_id="+idStr) {
		t.Errorf("/debug/traces?format=text missing trace_id=%s:\n%s", idStr, rec.Body.String())
	}

	// An untraced request must not leak trace state from the pooled
	// conns the traced one used.
	cl.SetTrace(false)
	if _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{1023, 1023}); err != nil {
		t.Fatal(err)
	}
	if cl.LastTraceID() != 0 || cl.LastTraceTree() != nil {
		t.Error("untraced request carried trace state")
	}
}

// TestDistributedTraceAdoptsClientID proves propagation end to end
// with a caller-supplied trace ID: the front door adopts it instead
// of minting, and the same ID reaches the shard logs.
func TestDistributedTraceAdoptsClientID(t *testing.T) {
	g := clusterGrid()
	var shardLog syncBuf
	addrs := make([]string, 2)
	for i := range addrs {
		db, err := probe.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		_, addrs[i] = startShard(t, db, server.Config{
			Logger:   slog.New(slog.NewTextHandler(&shardLog, nil)),
			LogEvery: 1,
		})
	}
	m, err := BuildEvenMap(DefaultPrefixBits(2), addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, raddr := startRouter(t, m, Config{})
	cl := dialRouter(t, raddr)
	insertThrough(t, cl, clusterPoints(rand.New(rand.NewSource(7)), 500, 1))

	const want = uint64(0xdeadbeefcafef00d)
	cl.SetTrace(true)
	cl.SetTraceID(want)
	if _, _, err := cl.Range(context.Background(), []uint32{0, 0}, []uint32{1023, 1023}); err != nil {
		t.Fatal(err)
	}
	if got := cl.LastTraceID(); got != want {
		t.Fatalf("router answered trace ID %016x, want the adopted %016x", got, want)
	}
	if !strings.Contains(shardLog.String(), "trace_id="+obs.TraceIDString(want)) {
		t.Errorf("adopted trace ID %016x never reached a shard log:\n%s", want, shardLog.String())
	}
}
