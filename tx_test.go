package probe_test

import (
	"context"
	"errors"
	"testing"

	"probe"
)

func txTestDB(t *testing.T) *probe.DB {
	t.Helper()
	db, err := probe.Open(probe.MustGrid(2, 8), probe.WithLeafCapacity(4), probe.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func idsOf(pts []probe.Point) map[uint64]bool {
	m := map[uint64]bool{}
	for _, p := range pts {
		m[p.ID] = true
	}
	return m
}

// TestTxReadYourWrites: inside a tx, RangeSearch, Nearest, Delete and
// Len observe the buffered write-set; outside, nothing is visible
// until Commit.
func TestTxReadYourWrites(t *testing.T) {
	db := txTestDB(t)
	for i := uint64(1); i <= 5; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i*10), uint32(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()

	if err := tx.Insert(probe.Pt2(100, 55, 55)); err != nil {
		t.Fatal(err)
	}
	if ok, err := tx.Delete(probe.Pt2(2, 20, 20)); err != nil || !ok {
		t.Fatalf("tx delete existing: %v %v", ok, err)
	}

	// Inside the tx: insert visible, delete applied.
	pts, _, err := tx.RangeSearch(probe.Box2(0, 255, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	in := idsOf(pts)
	if !in[100] || in[2] {
		t.Fatalf("tx view wrong: %v", in)
	}
	if got, want := tx.Len(), 5; got != want {
		t.Fatalf("tx Len = %d, want %d", got, want)
	}

	// Outside the tx: nothing happened yet.
	out, _, err := db.RangeSearch(probe.Box2(0, 255, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	o := idsOf(out)
	if o[100] || !o[2] {
		t.Fatalf("uncommitted tx leaked: %v", o)
	}

	// Nearest sees the buffered insert and not the buffered delete.
	nbs, _, err := tx.Nearest([]uint32{55, 55}, 1, probe.Chebyshev)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 1 || nbs[0].Point.ID != 100 {
		t.Fatalf("tx nearest = %+v, want buffered point 100", nbs)
	}
	nbs, _, err = tx.Nearest([]uint32{20, 20}, 5, probe.Chebyshev)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range nbs {
		if nb.Point.ID == 2 {
			t.Fatal("tx nearest returned a point deleted in the tx")
		}
	}

	// Deleting a point inserted in the tx works; deleting twice
	// reports absent.
	if ok, _ := tx.Delete(probe.Pt2(100, 55, 55)); !ok {
		t.Fatal("delete of tx-inserted point reported absent")
	}
	if ok, _ := tx.Delete(probe.Pt2(100, 55, 55)); ok {
		t.Fatal("second delete reported present")
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	final, _, err := db.RangeSearch(probe.Box2(0, 255, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	f := idsOf(final)
	if f[2] || f[100] || len(f) != 4 {
		t.Fatalf("committed state wrong: %v", f)
	}
}

// TestTxNearestRejectsNonPositiveM: buffered deletions do not widen an
// m <= 0 into a valid request; the tx answers as DB.Nearest does.
func TestTxNearestRejectsNonPositiveM(t *testing.T) {
	db := txTestDB(t)
	for i := uint64(1); i <= 5; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i*10), uint32(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for _, p := range []probe.Point{probe.Pt2(1, 10, 10), probe.Pt2(2, 20, 20)} {
		if ok, err := tx.Delete(p); err != nil || !ok {
			t.Fatalf("tx delete %d: %v %v", p.ID, ok, err)
		}
	}
	for _, m := range []int{0, -1} {
		_, _, want := db.Nearest([]uint32{30, 30}, m, probe.Chebyshev)
		if want == nil {
			t.Fatalf("m = %d: DB.Nearest accepted it", m)
		}
		nbs, _, err := tx.Nearest([]uint32{30, 30}, m, probe.Chebyshev)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("m = %d: tx.Nearest = %d neighbours, error %v; want error %v", m, len(nbs), err, want)
		}
	}
}

// TestTxNearestBreaksTiesAsDB: a transaction ranks its buffered
// inserts in by NEAREST's own order, so it returns tied neighbours in
// the order the database returns them once they are committed. The 16
// pixels of the Chebyshev ring of radius 2 around (20, 20) all carry
// id 1 and lie at distance 2: only the pixel breaks their ties. One is
// inserted in the transaction, the rest are committed before it.
func TestTxNearestBreaksTiesAsDB(t *testing.T) {
	var ring []probe.Point
	for x := uint32(18); x <= 22; x++ {
		for y := uint32(18); y <= 22; y++ {
			if x == 18 || x == 22 || y == 18 || y == 22 {
				ring = append(ring, probe.Pt2(1, x, y))
			}
		}
	}
	q := []uint32{20, 20}
	committed := txTestDB(t)
	if err := committed.InsertAll(ring); err != nil {
		t.Fatal(err)
	}
	want, _, err := committed.Nearest(q, len(ring), probe.Chebyshev)
	if err != nil {
		t.Fatal(err)
	}

	db := txTestDB(t)
	held := 5
	for i, p := range ring {
		if i != held {
			if err := db.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Insert(ring[held]); err != nil {
		t.Fatal(err)
	}
	got, _, err := tx.Nearest(q, len(ring), probe.Chebyshev)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tx: %d neighbours, DB: %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Point.ID != want[i].Point.ID || got[i].Dist != want[i].Dist ||
			got[i].Point.Coords[0] != want[i].Point.Coords[0] || got[i].Point.Coords[1] != want[i].Point.Coords[1] {
			t.Errorf("neighbour %d: tx %v at %v, DB %v at %v", i, got[i].Point, got[i].Dist, want[i].Point, want[i].Dist)
		}
	}
}

// TestTxSnapshotIsolation: a tx's reads never observe writes
// committed after it began.
func TestTxSnapshotIsolation(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert(probe.Pt2(1, 10, 10)); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()

	if err := db.Insert(probe.Pt2(2, 20, 20)); err != nil {
		t.Fatal(err)
	}
	pts, _, err := tx.RangeSearch(probe.Box2(0, 255, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	if ids := idsOf(pts); ids[2] || !ids[1] {
		t.Fatalf("tx read a post-snapshot commit: %v", ids)
	}
	if tx.Len() != 1 {
		t.Fatalf("tx Len = %d, want 1", tx.Len())
	}
}

// TestTxConflict: first-committer-wins — of two txs writing the same
// key, exactly the later committer fails with ErrTxConflict; disjoint
// write-sets both commit.
func TestTxConflict(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert(probe.Pt2(1, 10, 10)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	t1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := t1.Delete(probe.Pt2(1, 10, 10)); err != nil || !ok {
		t.Fatalf("t1 delete: %v %v", ok, err)
	}
	if ok, err := t2.Delete(probe.Pt2(1, 10, 10)); err != nil || !ok {
		t.Fatalf("t2 delete: %v %v", ok, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, probe.ErrTxConflict) {
		t.Fatalf("second committer: got %v, want ErrTxConflict", err)
	}

	// Disjoint transactions commit concurrently without conflict.
	t3, _ := db.Begin(ctx)
	t4, _ := db.Begin(ctx)
	if err := t3.Insert(probe.Pt2(30, 30, 30)); err != nil {
		t.Fatal(err)
	}
	if err := t4.Insert(probe.Pt2(40, 40, 40)); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t4.Commit(); err != nil {
		t.Fatalf("disjoint tx conflicted: %v", err)
	}

	// An auto-commit write also conflicts an overlapping open tx.
	t5, _ := db.Begin(ctx)
	if ok, err := t5.Delete(probe.Pt2(30, 30, 30)); err != nil || !ok {
		t.Fatalf("t5 delete: %v %v", ok, err)
	}
	if ok, err := db.Delete(probe.Pt2(30, 30, 30)); err != nil || !ok {
		t.Fatalf("auto-commit delete: %v %v", ok, err)
	}
	if err := t5.Commit(); !errors.Is(err, probe.ErrTxConflict) {
		t.Fatalf("tx overlapping auto-commit: got %v, want ErrTxConflict", err)
	}
}

// TestTxRollbackAndEndedSemantics: rollback discards everything;
// operations on an ended tx fail with ErrTxAborted; Rollback after
// Commit is a safe no-op.
func TestTxRollbackAndEndedSemantics(t *testing.T) {
	db := txTestDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(probe.Pt2(1, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Fatalf("rollback leaked writes: Len = %d", db.Len())
	}
	if err := tx.Insert(probe.Pt2(2, 20, 20)); !errors.Is(err, probe.ErrTxAborted) {
		t.Fatalf("write on ended tx: got %v, want ErrTxAborted", err)
	}
	if _, _, err := tx.RangeSearch(probe.Box2(0, 255, 0, 255)); !errors.Is(err, probe.ErrTxAborted) {
		t.Fatalf("read on ended tx: got %v, want ErrTxAborted", err)
	}
	if err := tx.Commit(); !errors.Is(err, probe.ErrTxAborted) {
		t.Fatalf("commit on ended tx: got %v, want ErrTxAborted", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("double rollback: %v", err)
	}
}

// TestViewUpdateClosures: View rejects writes; Update commits on nil,
// rolls back on error and on panic.
func TestViewUpdateClosures(t *testing.T) {
	db := txTestDB(t)
	ctx := context.Background()

	if err := db.View(ctx, func(tx *probe.Tx) error {
		if err := tx.Insert(probe.Pt2(1, 10, 10)); !errors.Is(err, probe.ErrTxReadOnly) {
			t.Fatalf("View insert: got %v, want ErrTxReadOnly", err)
		}
		if _, err := tx.Delete(probe.Pt2(1, 10, 10)); !errors.Is(err, probe.ErrTxReadOnly) {
			t.Fatalf("View delete: got %v, want ErrTxReadOnly", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := db.Update(ctx, func(tx *probe.Tx) error {
		return tx.Insert(probe.Pt2(1, 10, 10))
	}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Fatalf("Update did not commit: Len = %d", db.Len())
	}

	boom := errors.New("boom")
	if err := db.Update(ctx, func(tx *probe.Tx) error {
		if err := tx.Insert(probe.Pt2(2, 20, 20)); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Update error: got %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("failed Update leaked writes: Len = %d", db.Len())
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Update swallowed the panic")
			}
		}()
		_ = db.Update(ctx, func(tx *probe.Tx) error {
			if err := tx.Insert(probe.Pt2(3, 30, 30)); err != nil {
				return err
			}
			panic("mid-tx panic")
		})
	}()
	if db.Len() != 1 {
		t.Fatalf("panicked Update leaked writes: Len = %d", db.Len())
	}

	// View sees one consistent version across statements.
	if err := db.View(ctx, func(tx *probe.Tx) error {
		before := tx.Len()
		if err := db.Insert(probe.Pt2(9, 90, 90)); err != nil {
			return err
		}
		if tx.Len() != before {
			t.Fatalf("View observed a concurrent commit")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTxDeleteBoxAndDuplicates: read-your-writes duplicate rules and
// transactional DeleteBox.
func TestTxDeleteBoxAndDuplicates(t *testing.T) {
	db := txTestDB(t)
	ctx := context.Background()
	if err := db.InsertAll([]probe.Point{
		probe.Pt2(1, 10, 10), probe.Pt2(2, 20, 20), probe.Pt2(3, 200, 200),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(ctx, func(tx *probe.Tx) error {
		// Duplicate of a snapshot point: rejected.
		if err := tx.Insert(probe.Pt2(1, 10, 10)); err == nil {
			t.Fatal("duplicate insert accepted")
		}
		// Delete then re-insert the same key: accepted.
		if ok, err := tx.Delete(probe.Pt2(1, 10, 10)); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if err := tx.Insert(probe.Pt2(1, 10, 10)); err != nil {
			t.Fatalf("re-insert after delete: %v", err)
		}
		// DeleteBox over the tx view.
		n, err := tx.DeleteBox(probe.Box2(0, 100, 0, 100))
		if err != nil {
			return err
		}
		if n != 2 {
			t.Fatalf("tx DeleteBox removed %d, want 2", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Fatalf("final Len = %d, want 1", db.Len())
	}
}

// TestTxMetrics: begun/committed/aborted/conflicts counters move as
// transactions end; one-shot auto-commit operations do not count.
func TestTxMetrics(t *testing.T) {
	db := txTestDB(t)
	ctx := context.Background()
	m := db.TxMetrics()

	if err := db.Insert(probe.Pt2(1, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if got := m.Int("begun").Value(); got != 0 {
		t.Fatalf("auto-commit counted as tx: begun = %d", got)
	}

	if err := db.Update(ctx, func(tx *probe.Tx) error {
		return tx.Insert(probe.Pt2(2, 20, 20))
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(ctx)
	tx.Rollback()

	t1, _ := db.Begin(ctx)
	t2, _ := db.Begin(ctx)
	t1.Delete(probe.Pt2(2, 20, 20))
	t2.Delete(probe.Pt2(2, 20, 20))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, probe.ErrTxConflict) {
		t.Fatal(err)
	}

	if got := m.Int("begun").Value(); got != 4 {
		t.Fatalf("begun = %d, want 4", got)
	}
	if got := m.Int("committed").Value(); got != 2 {
		t.Fatalf("committed = %d, want 2", got)
	}
	if got := m.Int("aborted").Value(); got != 2 {
		t.Fatalf("aborted = %d, want 2", got)
	}
	if got := m.Int("conflicts").Value(); got != 1 {
		t.Fatalf("conflicts = %d, want 1", got)
	}
}

// TestTxAfterClose: transactions surface ErrClosed after Close, and
// an open tx never blocks Close.
func TestTxAfterClose(t *testing.T) {
	db, err := probe.Open(probe.MustGrid(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(probe.Pt2(1, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, probe.ErrClosed) {
		t.Fatalf("commit after close: got %v, want ErrClosed", err)
	}
	if _, err := db.Begin(ctx); !errors.Is(err, probe.ErrClosed) {
		t.Fatalf("begin after close: got %v, want ErrClosed", err)
	}
}
