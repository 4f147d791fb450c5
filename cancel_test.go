package probe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"probe"
)

// cancelTestDB builds an in-memory database big enough that a full
// range scan touches many hundreds of leaf pages, so a prompt cancel
// is clearly distinguishable from a completed query.
func cancelTestDB(t *testing.T) (*probe.DB, probe.Box, int) {
	t.Helper()
	g := probe.MustGrid(2, 10)
	db, err := probe.Open(g, probe.WithLeafCapacity(20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(42))
	pts := make([]probe.Point, 20000)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
	}
	if err := db.InsertAll(pts); err != nil {
		t.Fatal(err)
	}
	return db, probe.Box2(0, 1023, 0, 1023), len(pts)
}

// TestCancelMidRangeSearch is the cancellation conformance test: a
// context cancelled mid-stream stops the search within a bounded
// number of extra page reads (the cursor checks its context at page
// boundaries), surfaces context.Canceled, and leaves the database
// fully usable.
func TestCancelMidRangeSearch(t *testing.T) {
	db, box, n := cancelTestDB(t)

	// Baseline: the uncancelled query must visit everything.
	full, err := db.RangeSearchFunc(box, func(probe.Point) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if full.Results != n {
		t.Fatalf("full scan saw %d points, want %d", full.Results, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	qs, err := db.RangeSearchFunc(box, func(probe.Point) bool {
		seen++
		if seen == 5 {
			cancel() // cancel mid-stream, keep consuming
		}
		return true
	}, probe.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	// Promptness: the cancel lands on the 5th point of the first leaf
	// page; the cursor may finish the page it is on but must not load
	// more than one page past the cancellation point.
	if qs.DataPages > 4 {
		t.Fatalf("cancelled query read %d data pages, want a handful", qs.DataPages)
	}
	if qs.DataPages >= full.DataPages/4 {
		t.Fatalf("cancelled query read %d of %d full-scan pages: not bounded", qs.DataPages, full.DataPages)
	}
	if seen >= n/4 {
		t.Fatalf("cancelled query streamed %d of %d points: not bounded", seen, n)
	}

	// The database survives: the same query, uncancelled, completes.
	after, err := db.RangeSearchFunc(box, func(probe.Point) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if after.Results != n {
		t.Fatalf("post-cancel scan saw %d points, want %d", after.Results, n)
	}
}

// TestCancelBeforeQuery: an already-cancelled context fails the
// operation before it touches any pages.
func TestCancelBeforeQuery(t *testing.T) {
	db, box, _ := cancelTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs, err := db.RangeSearchFunc(box, func(probe.Point) bool {
		t.Error("callback ran under a dead context")
		return false
	}, probe.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if qs.DataPages != 0 {
		t.Fatalf("dead-context query read %d pages, want 0", qs.DataPages)
	}
}

// canceledAfterEntry is a context that is live when the operation
// checks it on entry and cancelled from the next check on; it counts
// the checks.
type canceledAfterEntry struct {
	context.Context
	checks int
}

func (c *canceledAfterEntry) Err() error {
	c.checks++
	if c.checks > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelExplainAnalyze: EXPLAIN ANALYZE honours its context after
// entry too, on the whole space and on a small box: a context
// cancelled once the read has begun stops the run with
// context.Canceled.
func TestCancelExplainAnalyze(t *testing.T) {
	db, full, _ := cancelTestDB(t)
	for _, box := range []probe.Box{full, probe.Box2(100, 158, 100, 158)} {
		if _, err := db.ExplainAnalyze(box); err != nil {
			t.Fatal(err)
		}
		ctx := &canceledAfterEntry{Context: context.Background()}
		res, err := db.ExplainAnalyze(box, probe.WithContext(ctx))
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%v cancelled after entry: error %v, result %t; want context.Canceled and none", box, err, res != nil)
		}
		if ctx.checks < 2 {
			t.Errorf("%v checked its context %d times, want at least 2", box, ctx.checks)
		}
	}
}

// TestCancelRegionJoin: a JOIN statement, on the DB and in a
// transaction, honours its context after entry: cancelled once the
// statement has begun, the merge stops with context.Canceled within a
// couple of leaves of the hundreds the join would read.
func TestCancelRegionJoin(t *testing.T) {
	db, _, _ := cancelTestDB(t)
	const sql = "SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(1 BOX(0, 1023, 0, 511), 2 BOX(0, 511, 0, 1023)) ON INTERSECTS GROUP BY region"
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for _, c := range []struct {
		side string
		prep func(string) (*probe.Stmt, error)
	}{{"db", db.Prepare}, {"tx", tx.Prepare}} {
		st, err := c.prep(sql)
		if err != nil {
			t.Fatal(err)
		}
		full, err := st.Run(context.Background(), func(probe.QueryRow) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if full.DataPages < 100 {
			t.Fatalf("%s: the uncancelled join read %d data pages, too few to tell a prompt cancel", c.side, full.DataPages)
		}
		ctx := &canceledAfterEntry{Context: context.Background()}
		qs, err := st.Run(ctx, func(probe.QueryRow) bool {
			t.Errorf("%s: a cancelled join emitted a row", c.side)
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled after entry, the join returned %v, want context.Canceled", c.side, err)
		}
		if qs.DataPages > 2 {
			t.Errorf("%s: the cancelled join read %d data pages, want at most 2", c.side, qs.DataPages)
		}
	}
}

// TestCancelNearest: NEAREST, on the DB and in a transaction, honours
// its context after entry: cancelled once the read has begun, its
// expanding search stops with context.Canceled, returns no neighbours
// and reads at most a couple of leaves of the many its rounds would.
func TestCancelNearest(t *testing.T) {
	db, _, _ := cancelTestDB(t)
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	q := []uint32{512, 512}
	const k = 2000
	for _, c := range []struct {
		side    string
		nearest func([]uint32, int, probe.Metric, ...probe.QueryOption) ([]probe.Neighbor, probe.QueryStats, error)
	}{{"db", db.Nearest}, {"tx", tx.Nearest}} {
		nbs, full, err := c.nearest(q, k, probe.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if len(nbs) != k || full.DataPages < 100 {
			t.Fatalf("%s: the uncancelled search found %d neighbours on %d data pages, too few to tell a prompt cancel", c.side, len(nbs), full.DataPages)
		}
		ctx := &canceledAfterEntry{Context: context.Background()}
		nbs, qs, err := c.nearest(q, k, probe.Euclidean, probe.WithContext(ctx))
		if !errors.Is(err, context.Canceled) || len(nbs) != 0 {
			t.Errorf("%s: cancelled after entry: %d neighbours, error %v; want none and context.Canceled", c.side, len(nbs), err)
		}
		if qs.DataPages > 2 {
			t.Errorf("%s: the cancelled search read %d data pages, want at most 2", c.side, qs.DataPages)
		}
	}
}

// TestCloseWhileQuerying exercises the close-while-querying contract
// documented on ErrClosed: Close may run concurrently with in-flight
// queries — it waits for them rather than yanking the store — and
// every operation issued after Close fails with ErrClosed.
func TestCloseWhileQuerying(t *testing.T) {
	db, box, _ := cancelTestDB(t)

	const workers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := db.RangeSearch(box)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let queries get in flight
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()

	for w, err := range errs {
		if err != nil && !errors.Is(err, probe.ErrClosed) {
			t.Fatalf("worker %d: got %v, want nil or ErrClosed", w, err)
		}
	}
	if _, _, err := db.RangeSearch(box); !errors.Is(err, probe.ErrClosed) {
		t.Fatalf("query after Close: got %v, want ErrClosed", err)
	}
	if err := db.Insert(probe.Pt2(99, 1, 1)); !errors.Is(err, probe.ErrClosed) {
		t.Fatalf("insert after Close: got %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseUnderReadCallback: Close waits for the reads in flight
// holding no lock, so a read whose callback calls back into the
// database while Close waits gets an answer at once: Len reports 0, a
// nested read and a write fail with ErrClosed. The read then ends and
// Close returns. Each case runs under a deadline, so a deadlock fails
// the test instead of hanging it.
func TestCloseUnderReadCallback(t *testing.T) {
	wantClosed := func(err error) error {
		if !errors.Is(err, probe.ErrClosed) {
			return fmt.Errorf("got %v, want ErrClosed", err)
		}
		return nil
	}
	for _, c := range []struct {
		name   string
		nested func(*probe.DB) error
	}{
		{"Len", func(db *probe.DB) error {
			if n := db.Len(); n != 0 {
				return fmt.Errorf("Len = %d, want 0", n)
			}
			return nil
		}},
		{"RangeSearch", func(db *probe.DB) error {
			_, _, err := db.RangeSearch(probe.Box2(0, 7, 0, 7))
			return wantClosed(err)
		}},
		{"Insert", func(db *probe.DB) error { return wantClosed(db.Insert(probe.Pt2(1<<20, 1, 1))) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// No Close on cleanup: after a deadlock it would hang too.
			db, err := probe.Open(probe.MustGrid(2, 8))
			if err != nil {
				t.Fatal(err)
			}
			pts := make([]probe.Point, 64)
			for i := range pts {
				pts[i] = probe.Pt2(uint64(i+1), uint32(4*i), uint32(i))
			}
			if err := db.InsertAll(pts); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- closeUnderReadCallback(db, c.nested) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("a read whose callback calls %s under Close did not return within 3s", c.name)
			}
		})
	}
}

// closeUnderReadCallback starts a read, closes db while the read is in
// its callback, and once Close has shut the read path (Len reports 0)
// lets the callback run nested. It reports what went wrong.
func closeUnderReadCallback(db *probe.DB, nested func(*probe.DB) error) error {
	entered, release := make(chan struct{}), make(chan struct{})
	var nestedErr error
	readErr := make(chan error, 1)
	go func() {
		_, err := db.RangeSearchFunc(probe.Box2(0, 255, 0, 255), func(probe.Point) bool {
			close(entered)
			<-release
			nestedErr = nested(db)
			return false
		})
		readErr <- err
	}()
	<-entered
	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	for db.Len() != 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-readErr; err != nil {
		return fmt.Errorf("the read: %v", err)
	}
	if err := <-closeErr; err != nil {
		return fmt.Errorf("Close: %v", err)
	}
	return nestedErr
}
