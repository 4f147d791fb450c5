package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"probe"
	"probe/client"
)

// fullBox covers the whole 1024x1024 test grid.
func fullBox() (lo, hi []uint32) { return []uint32{0, 0}, []uint32{1023, 1023} }

// rangeAll reads the whole space over the wire on conn.
func rangeAll(t *testing.T, c *client.Conn) []probe.Point {
	t.Helper()
	lo, hi := fullBox()
	pts, _, err := c.Range(context.Background(), lo, hi)
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	return pts
}

// TestTxWireAtomicIsolation is the acceptance test for the wire
// transaction: a multi-statement transaction on one connection is
// invisible to a concurrent connection until COMMIT, at which point
// all of it appears at once; meanwhile the transaction reads its own
// writes over the wire.
func TestTxWireAtomicIsolation(t *testing.T) {
	seed := []probe.Point{
		probe.Pt2(1, 10, 10),
		probe.Pt2(2, 20, 20),
		probe.Pt2(3, 30, 30),
	}
	_, addr, _ := startServer(t, Config{}, seed)
	a, b := dial(t, addr), dial(t, addr)
	ctx := context.Background()

	tx, err := a.Begin(ctx)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Statement 1: insert two points. Statement 2: delete a seeded one.
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(4, 40, 40), probe.Pt2(5, 50, 50)}); err != nil {
		t.Fatalf("tx insert: %v", err)
	}
	if qs, err := tx.Delete(ctx, []probe.Point{probe.Pt2(2, 20, 20)}); err != nil || qs.Results != 1 {
		t.Fatalf("tx delete: removed=%d err=%v", qs.Results, err)
	}

	// The transaction reads its own writes...
	txView, _, err := tx.Range(ctx, []uint32{0, 0}, []uint32{1023, 1023})
	if err != nil {
		t.Fatalf("tx range: %v", err)
	}
	samePoints(t, "tx view mid-transaction", txView, []probe.Point{
		probe.Pt2(1, 10, 10), probe.Pt2(3, 30, 30), probe.Pt2(4, 40, 40), probe.Pt2(5, 50, 50),
	})
	// ...and nearest-neighbour inside the transaction sees the buffered
	// insert at (40,40).
	nn, _, err := tx.Nearest(ctx, []uint32{41, 41}, 1, probe.Euclidean)
	if err != nil || len(nn) != 1 || nn[0].Point.ID != 4 {
		t.Fatalf("tx nearest: %v %v", nn, err)
	}

	// A concurrent connection sees exactly the seed: no partial
	// transaction, ever.
	samePoints(t, "other connection mid-transaction", rangeAll(t, b), seed)

	if qs, err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	} else if qs.Results != 3 {
		t.Fatalf("commit applied %d write statements, want 3", qs.Results)
	}

	// After COMMIT the whole write-set is visible atomically.
	want := []probe.Point{
		probe.Pt2(1, 10, 10), probe.Pt2(3, 30, 30), probe.Pt2(4, 40, 40), probe.Pt2(5, 50, 50),
	}
	samePoints(t, "other connection post-commit", rangeAll(t, b), want)
	samePoints(t, "own connection post-commit", rangeAll(t, a), want)
}

// TestTxWireConflict races two connections' transactions over the
// same key: exactly one COMMIT wins, the other fails with the typed
// CONFLICT error the client maps to ErrTxConflict.
func TestTxWireConflict(t *testing.T) {
	seed := []probe.Point{probe.Pt2(1, 100, 100)}
	_, addr, _ := startServer(t, Config{}, seed)
	a, b := dial(t, addr), dial(t, addr)
	ctx := context.Background()

	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*client.Tx{ta, tb} {
		if qs, err := tx.Delete(ctx, []probe.Point{probe.Pt2(1, 100, 100)}); err != nil || qs.Results != 1 {
			t.Fatalf("delete: removed=%d err=%v", qs.Results, err)
		}
	}

	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { _, err := ta.Commit(ctx); errA <- err }()
	go func() { _, err := tb.Commit(ctx); errB <- err }()
	ea, eb := <-errA, <-errB

	wins, conflicts := 0, 0
	for _, e := range []error{ea, eb} {
		switch {
		case e == nil:
			wins++
		case errors.Is(e, client.ErrTxConflict):
			conflicts++
		default:
			t.Fatalf("unexpected commit error: %v", e)
		}
	}
	if wins != 1 || conflicts != 1 {
		t.Fatalf("got %d winners and %d conflicts, want exactly 1 and 1 (%v / %v)", wins, conflicts, ea, eb)
	}
	if got := rangeAll(t, a); len(got) != 0 {
		t.Fatalf("point survived a committed delete: %v", got)
	}
}

// TestTxWireRollback checks ROLLBACK discards everything and the
// connection returns cleanly to auto-commit mode.
func TestTxWireRollback(t *testing.T) {
	seed := []probe.Point{probe.Pt2(1, 10, 10)}
	_, addr, _ := startServer(t, Config{}, seed)
	c := dial(t, addr)
	ctx := context.Background()

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(2, 20, 20)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(ctx, []probe.Point{probe.Pt2(1, 10, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	// Second rollback is a deliberate client-side no-op.
	if err := tx.Rollback(ctx); err != nil {
		t.Fatalf("double rollback: %v", err)
	}
	samePoints(t, "post-rollback", rangeAll(t, c), seed)

	// Auto-commit still works on the same connection.
	if _, err := c.Insert(ctx, []probe.Point{probe.Pt2(3, 30, 30)}); err != nil {
		t.Fatalf("auto-commit insert after rollback: %v", err)
	}
	samePoints(t, "auto-commit after rollback", rangeAll(t, c),
		[]probe.Point{probe.Pt2(1, 10, 10), probe.Pt2(3, 30, 30)})
}

// TestTxIdleTimeout lets a transaction sit idle past
// Config.TxIdleTimeout: the server rolls it back, subsequent
// statements fail instead of silently running in auto-commit mode,
// and the abort shows up in the metrics.
func TestTxIdleTimeout(t *testing.T) {
	srv, addr, _ := startServer(t, Config{TxIdleTimeout: 50 * time.Millisecond}, nil)
	c := dial(t, addr)
	ctx := context.Background()

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(1, 10, 10)}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Int("server.tx_idle_aborts").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle transaction was never aborted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The next statement must fail — the transaction the client thinks
	// it is in no longer exists, and running it in auto-commit mode
	// would break atomicity.
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(2, 20, 20)}); err == nil {
		t.Fatal("statement after idle abort succeeded")
	}
	// COMMIT after the abort reports the typed failure too...
	tx2, err := c.Begin(ctx) // Begin fails: client still holds the old tx
	if err == nil {
		_ = tx2
		t.Fatal("begin with a client-side open tx succeeded")
	}
	if _, err := tx.Commit(ctx); err == nil {
		t.Fatal("commit after idle abort succeeded")
	}
	// ...and the connection is usable again afterwards.
	tx3, err := c.Begin(ctx)
	if err != nil {
		t.Fatalf("begin after acknowledged abort: %v", err)
	}
	if v := srv.Metrics().Gauge("server.open_txs").Value(); v != 1 {
		t.Fatalf("open_txs gauge = %d, want 1 (the re-begun tx)", v)
	}
	if err := tx3.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	// Nothing from the aborted transaction was published.
	if got := rangeAll(t, c); len(got) != 0 {
		t.Fatalf("aborted transaction published %v", got)
	}
}

// TestTxDisconnectRollsBack drops a connection mid-transaction: the
// server must roll the transaction back so nothing leaks and the
// snapshot unpins.
func TestTxDisconnectRollsBack(t *testing.T) {
	srv, addr, _ := startServer(t, Config{}, nil)
	ctx := context.Background()

	a := dial(t, addr)
	tx, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(1, 10, 10)}); err != nil {
		t.Fatal(err)
	}
	a.Close() // no COMMIT

	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Gauge("server.open_txs").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("transaction outlived its connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	b := dial(t, addr)
	if got := rangeAll(t, b); len(got) != 0 {
		t.Fatalf("disconnected transaction published %v", got)
	}
}

// TestTxDrainGrace starts a shutdown while a transaction is open: the
// drain grace window must let that session finish and COMMIT while
// other sessions are already refused.
func TestTxDrainGrace(t *testing.T) {
	srv, addr, _ := startServer(t, Config{DrainTimeout: 5 * time.Second}, nil)
	ctx := context.Background()

	a, b := dial(t, addr), dial(t, addr)
	tx, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(1, 10, 10)}); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// A transaction-less connection is already refused...
	if _, _, err := b.Range(ctx, []uint32{0, 0}, []uint32{1023, 1023}); !errors.Is(err, client.ErrShuttingDown) {
		t.Fatalf("drain reject: got %v, want ErrShuttingDown", err)
	}
	// ...but the transaction holder rides the grace window to COMMIT.
	if _, err := tx.Insert(ctx, []probe.Point{probe.Pt2(2, 20, 20)}); err != nil {
		t.Fatalf("tx statement during drain: %v", err)
	}
	if _, err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never finished after the transaction committed")
	}
}
