package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"

	"probe"
	"probe/client"
	"probe/internal/battery"
)

// TestQueryDifferential is the battery the wire path is proven by:
// 220 seeded random statements (internal/battery's generator) run
// both through DB.Query in process and over a real server via
// client.Conn.Query; columns and row sets must be identical (exact
// order when the statement carries a total ORDER BY, multiset
// otherwise). Failing seeds are appended to $QUERY_SEED_FILE when
// set, so CI archives reproducers.
func TestQueryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	seed := randPoints(rng, 4000, 1)
	srv, addr, _ := startServer(t, Config{BatchSize: 32}, seed)
	cl := dial(t, addr)
	db := srv.DB()
	ctx := context.Background()

	var failures []string
	fail := func(seed int64, sql, msg string) {
		t.Errorf("seed %d: %s\n  query: %s", seed, msg, sql)
		failures = append(failures, fmt.Sprintf("%d\t%s\t%s", seed, sql, msg))
	}
	const n = 220
	for i := 0; i < n; i++ {
		qseed := int64(1000 + i)
		sql, ordered := battery.GenQuery(rand.New(rand.NewSource(qseed)))
		local, lerr := db.Query(ctx, sql)
		remote, rerr := cl.Query(ctx, sql)
		if lerr != nil || rerr != nil {
			fail(qseed, sql, fmt.Sprintf("errors differ or non-nil: local=%v remote=%v", lerr, rerr))
			continue
		}
		if d := battery.Diff(
			battery.Result{Columns: local.Columns, Rows: local.Rows},
			battery.Result{Columns: remote.Columns, Rows: remote.Rows},
			ordered,
		); d != "" {
			fail(qseed, sql, "local vs remote "+d)
		}
	}
	if len(failures) > 0 {
		if path := os.Getenv("QUERY_SEED_FILE"); path != "" {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Logf("cannot record failing seeds: %v", err)
			} else {
				fmt.Fprintln(f, strings.Join(failures, "\n"))
				f.Close()
			}
		}
	}
}

// TestQueryInTxOverWire: a QUERY inside BEGIN observes the
// transaction's snapshot plus its own buffered writes — a concurrent
// committed insert stays invisible until after COMMIT.
func TestQueryInTxOverWire(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, addr, _ := startServer(t, Config{}, randPoints(rng, 500, 1))
	cl := dial(t, addr)
	other := dial(t, addr)
	ctx := context.Background()

	count := func(res *client.QueryResult, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Fatalf("count query shape: %v", res.Rows)
		}
		return res.Rows[0][0].(int64)
	}
	const q = "SELECT COUNT(*) FROM points"
	base := count(cl.Query(ctx, q))

	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback(ctx)
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(900001, 7, 7), probe.Pt2(900002, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	// Another connection commits while the transaction is open.
	if _, err := other.Insert(ctx, []probe.Point{probe.Pt2(900003, 9, 9)}); err != nil {
		t.Fatal(err)
	}
	if got := count(tx.Query(ctx, q)); got != base+2 {
		t.Fatalf("tx query: got %d rows, want snapshot+own writes = %d", got, base+2)
	}
	if got := count(tx.Query(ctx, "SELECT COUNT(*) FROM points WHERE CONTAINS(BOX(7, 8, 7, 8))")); got != 2 {
		t.Fatalf("tx box query: got %d, want its own 2 writes", got)
	}
	if _, err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := count(cl.Query(ctx, q)); got != base+3 {
		t.Fatalf("after commit: got %d, want %d", got, base+3)
	}
}

// TestQueryLimitStopsScan: a streamable QUERY with LIMIT must stop
// the server-side index scan within a page of satisfying it, not read
// the whole table and truncate.
func TestQueryLimitStopsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	_, addr, _ := startServer(t, Config{BatchSize: 16}, randPoints(rng, 20000, 1))
	cl := dial(t, addr)
	ctx := context.Background()

	full, err := cl.Query(ctx, "SELECT id FROM points")
	if err != nil {
		t.Fatal(err)
	}
	limited, err := cl.Query(ctx, "SELECT id FROM points LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(limited.Rows))
	}
	if limited.Stats.DataPages > 2 || limited.Stats.DataPages >= full.Stats.DataPages/4 {
		t.Fatalf("LIMIT 3 read %d data pages (full scan reads %d): scan not stopped early",
			limited.Stats.DataPages, full.Stats.DataPages)
	}
}

// TestQueryCancelMidStream: cancelling the context mid-stream stops a
// QUERY with a typed error and leaves the session usable, over an
// unbuffered net.Pipe so the CANCEL frame deterministically lands
// while the server is still streaming.
func TestQueryCancelMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	srv, _, _ := startServer(t, Config{BatchSize: 16}, randPoints(rng, 20000, 1))
	cs, ssConn := net.Pipe()
	t.Cleanup(func() { cs.Close(); ssConn.Close() })
	go srv.ServeConn(ssConn)
	cl, err := client.NewConn(cs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err = cl.QueryFunc(ctx, "SELECT id, x, y FROM points", nil, func(probe.QueryRow) bool {
		n++
		if n == 5 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, client.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: got %v, want canceled", err)
	}

	// The same connection serves the next statement completely.
	res, err := cl.Query(context.Background(), "SELECT COUNT(*) FROM points")
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if got := res.Rows[0][0].(int64); got != int64(srv.DB().Len()) {
		t.Fatalf("query after cancel: count %d, want %d", got, srv.DB().Len())
	}
}

// TestQueryConsumerStopMidStream: onRow returning false ends the
// stream without error and the connection keeps working.
func TestQueryConsumerStopMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	_, addr, _ := startServer(t, Config{BatchSize: 16}, randPoints(rng, 20000, 1))
	cl := dial(t, addr)

	n := 0
	_, err := cl.QueryFunc(context.Background(), "SELECT id FROM points", nil, func(probe.QueryRow) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if n != 10 {
		t.Fatalf("onRow called %d times, want 10", n)
	}
	if _, err := cl.Query(context.Background(), "SELECT COUNT(*) FROM points"); err != nil {
		t.Fatalf("query after early stop: %v", err)
	}
}

// TestQueryTypedErrors: parse and plan failures come back as typed
// wire codes the client maps onto ErrParse/ErrPlan sentinels — never
// a dropped connection.
func TestQueryTypedErrors(t *testing.T) {
	_, addr, _ := startServer(t, Config{}, randPoints(rand.New(rand.NewSource(15)), 100, 1))
	cl := dial(t, addr)
	ctx := context.Background()

	if _, err := cl.Query(ctx, "SELECT FROM points"); !errors.Is(err, client.ErrParse) {
		t.Fatalf("syntax error: got %v, want ErrParse", err)
	}
	if _, err := cl.Query(ctx, "SELECT nope FROM points"); !errors.Is(err, client.ErrPlan) {
		t.Fatalf("unknown column: got %v, want ErrPlan", err)
	}
	if _, err := cl.Query(ctx, "SELECT id FROM nowhere"); !errors.Is(err, client.ErrPlan) {
		t.Fatalf("unknown table: got %v, want ErrPlan", err)
	}
	// The connection survives every rejection.
	if _, err := cl.Query(ctx, "SELECT COUNT(*) FROM points"); err != nil {
		t.Fatalf("query after typed errors: %v", err)
	}
}
