package probe_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"probe"
)

// A search takes its cursors from a process-wide pool and gives them
// back on every way out: exhaustion, an early stop, a cancelled
// context. A read, traced or not, a statement included, also pins its
// version inside that scratch. This test has 8 goroutines doing all of
// that on one DB while a writer commits and checkpoints, and checks
// every answer against a brute-force model of a version the call can
// have seen. A scratch shared between two searches, or handed back
// while in use, shows up as a wrong answer here and as a data race
// under -race. Then every way out of every read, failures included,
// must leave no version pinned.

const (
	recycleBatch   = 12 // points per commit
	recycleWindow  = 4  // a commit deletes the batch this many commits back
	recycleCommits = 60
)

// recyclePoint is point j of batch i: a pure function, so any reader
// can rebuild any version.
func recyclePoint(i, j int) probe.Point {
	r := rand.New(rand.NewSource(int64(i)*131 + int64(j)))
	return probe.Pt2(uint64(1000+i*recycleBatch+j), uint32(r.Intn(256)), uint32(r.Intn(256)))
}

// recycleModel is the database after n commits, in z order.
func recycleModel(g probe.Grid, base []probe.Point, n int) []probe.Point {
	pts := append([]probe.Point(nil), base...)
	for i := max(0, n-recycleWindow); i < n; i++ {
		for j := 0; j < recycleBatch; j++ {
			pts = append(pts, recyclePoint(i, j))
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		za, zb := g.ShuffleKey(pts[a].Coords), g.ShuffleKey(pts[b].Coords)
		if za != zb {
			return za < zb
		}
		return pts[a].ID < pts[b].ID
	})
	return pts
}

func samePoints(got, want []probe.Point) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Coords[0] != want[i].Coords[0] || got[i].Coords[1] != want[i].Coords[1] {
			return false
		}
	}
	return true
}

func TestRecycledScratchIsNeverShared(t *testing.T) {
	g := probe.MustGrid(2, 8)
	rng := rand.New(rand.NewSource(7))
	var base []probe.Point
	for i := 0; i < 400; i++ {
		base = append(base, probe.Pt2(uint64(i+1), uint32(rng.Intn(256)), uint32(rng.Intn(256))))
	}
	db, err := probe.Open(g, probe.WithDurability(filepath.Join(t.TempDir(), "db")),
		probe.WithPageSize(512), probe.WithLeafCapacity(8), probe.WithBulkLoad(base))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var committed atomic.Int64 // commits the writer has finished
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < recycleCommits; i++ {
			err := db.Update(context.Background(), func(tx *probe.Tx) error {
				for j := 0; j < recycleBatch; j++ {
					if err := tx.Insert(recyclePoint(i, j)); err != nil {
						return err
					}
					if i >= recycleWindow {
						if ok, err := tx.Delete(recyclePoint(i-recycleWindow, j)); err != nil || !ok {
							return errors.Join(err, errors.New("delete of an old batch missed"))
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			committed.Add(1)
			if i%5 == 4 {
				if _, err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()

	// check runs one read and requires its answer to be right for a
	// version between the commits finished before it and those that
	// can have finished during it.
	check := func(what string, read func() (any, error), right func(model []probe.Point, got any) bool) {
		before := int(committed.Load())
		got, err := read()
		after := min(int(committed.Load())+1, recycleCommits)
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		for n := before; n <= after; n++ {
			if right(recycleModel(g, base, n), got) {
				return
			}
		}
		t.Errorf("%s: answer matches no version in [%d, %d]", what, before, after)
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; committed.Load() < recycleCommits || round < 20; round++ {
				x, y := uint32(rng.Intn(200)), uint32(rng.Intn(200))
				box := probe.Box2(x, x+uint32(8+rng.Intn(48)), y, y+uint32(8+rng.Intn(48)))
				inBox := func(model []probe.Point) []probe.Point {
					var in []probe.Point
					for _, p := range model {
						if box.ContainsPoint(p.Coords) {
							in = append(in, p)
						}
					}
					return in
				}
				stop := 1 + rng.Intn(6)
				sqlBox := fmt.Sprintf("BOX(%d, %d, %d, %d)", box.Lo[0], box.Hi[0], box.Lo[1], box.Hi[1])
				switch (round + w) % 7 {
				case 0: // RANGE
					check("range", func() (any, error) {
						pts, _, err := db.RangeSearch(box)
						return pts, err
					}, func(model []probe.Point, got any) bool { return samePoints(got.([]probe.Point), inBox(model)) })
				case 6: // a traced RANGE: the same read, carrying its span
					check("traced range", func() (any, error) {
						pts, _, err := db.RangeSearch(box, probe.WithTrace(probe.NewTrace("r")))
						return pts, err
					}, func(model []probe.Point, got any) bool { return samePoints(got.([]probe.Point), inBox(model)) })
				case 1: // NEAREST
					q, m := []uint32{x, y}, 1+rng.Intn(12)
					check("nearest", func() (any, error) {
						nbs, _, err := db.Nearest(q, m, probe.Euclidean)
						return nbs, err
					}, func(model []probe.Point, got any) bool {
						want := bruteNeighbors(model, q, m, probe.Euclidean)
						nbs := got.([]probe.Neighbor)
						if len(nbs) != len(want) {
							return false
						}
						for i := range want {
							if nbs[i].Point.ID != want[i].Point.ID || nbs[i].Dist != want[i].Dist {
								return false
							}
						}
						return true
					})
				case 2: // a stream its consumer stops early
					check("early stop", func() (any, error) {
						var pts []probe.Point
						_, err := db.RangeSearchFunc(box, func(p probe.Point) bool {
							pts = append(pts, p)
							return len(pts) < stop
						})
						return pts, err
					}, func(model []probe.Point, got any) bool {
						want := inBox(model)
						return samePoints(got.([]probe.Point), want[:min(stop, len(want))])
					})
				case 3: // a stream cancelled from inside, and one cancelled before it starts
					ctx, cancel := context.WithCancel(context.Background())
					check("cancelled", func() (any, error) {
						var pts []probe.Point
						_, err := db.RangeSearchFunc(box, func(p probe.Point) bool {
							pts = append(pts, p)
							if len(pts) == stop {
								cancel()
							}
							return true
						}, probe.WithContext(ctx))
						if err != nil && !errors.Is(err, context.Canceled) {
							return nil, err
						}
						return pts, nil
					}, func(model []probe.Point, got any) bool {
						// What arrived before the cancellation took
						// hold is a prefix of the answer, at least
						// stop long when the answer is.
						pts, want := got.([]probe.Point), inBox(model)
						return len(pts) >= min(stop, len(want)) && len(pts) <= len(want) && samePoints(pts, want[:len(pts)])
					})
					cancel()
					if _, err := db.RangeSearchFunc(box, func(probe.Point) bool {
						t.Error("a search under a cancelled context delivered a point")
						return false
					}, probe.WithContext(ctx)); !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled search: %v", err)
					}
				case 4: // a statement's aggregate
					check("count", func() (any, error) {
						res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM points WHERE CONTAINS("+sqlBox+")")
						if err != nil || len(res.Rows) == 0 { // no rows, no group
							return int64(0), err
						}
						return res.Rows[0][0].(int64), nil
					}, func(model []probe.Point, got any) bool { return got.(int64) == int64(len(inBox(model))) })
				case 5: // a statement's scan, cut by its LIMIT
					check("limit", func() (any, error) {
						res, err := db.Query(context.Background(), fmt.Sprintf("SELECT id FROM points WHERE CONTAINS(%s) LIMIT %d", sqlBox, stop))
						if err != nil {
							return nil, err
						}
						var ids []uint64
						for _, row := range res.Rows {
							ids = append(ids, row[0].(uint64))
						}
						return ids, nil
					}, func(model []probe.Point, got any) bool {
						want, ids := inBox(model), got.([]uint64)
						if len(ids) != min(stop, len(want)) {
							return false
						}
						for i, id := range ids {
							if id != want[i].ID {
								return false
							}
						}
						return true
					})
				}
			}
		}(w)
	}
	wg.Wait()
	noPinOutlivesARead(t, db)
}

// noPinOutlivesARead takes every read on db out by every way it has,
// untraced and then traced, and requires each to leave no version
// pinned in the index. Closing the database then must not wait on a
// read that never ended.
func noPinOutlivesARead(t *testing.T, db *probe.DB) {
	t.Helper()
	ctx := context.Background()
	pass := ""
	unpinned := func(after string) {
		t.Helper()
		if n := db.MVCCStats().PinnedSnapshots; n != 0 {
			t.Errorf("%d snapshots pinned after %s (%s)", n, after, pass)
		}
	}
	unpinned("the concurrent reads")
	box, flat := probe.Box2(0, 255, 0, 255), probe.Box{Lo: []uint32{1}, Hi: []uint32{2}}
	// WithTrace(nil) is no trace: the first pass is untraced.
	for _, c := range []struct {
		pass  string
		trace *probe.Trace
	}{{"untraced", nil}, {"traced", probe.NewTrace("t")}} {
		pass = c.pass
		traced := probe.WithTrace(c.trace)
		if _, _, err := db.RangeSearch(flat, traced); err == nil {
			t.Error("RangeSearch of a 1-d box on a 2-d grid did not fail")
		}
		unpinned("a failed RangeSearch")
		if _, err := db.RangeSearchFunc(flat, func(probe.Point) bool { return true }, traced); err == nil {
			t.Error("RangeSearchFunc of a 1-d box did not fail")
		}
		unpinned("a failed RangeSearchFunc")
		if _, _, err := db.PartialMatch([]bool{true}, []uint32{1}, traced); err == nil {
			t.Error("a partial match of the wrong arity did not fail")
		}
		unpinned("a failed PartialMatch")
		if _, _, err := db.Nearest([]uint32{1, 1}, 0, probe.Euclidean, traced); err == nil {
			t.Error("NEAREST of 0 neighbours did not fail")
		}
		unpinned("a failed Nearest")
		if _, err := db.ExplainAnalyze(flat, traced); err == nil {
			t.Error("EXPLAIN ANALYZE of a 1-d box did not fail")
		}
		unpinned("a failed ExplainAnalyze")
		if _, err := db.ExplainAnalyze(box, traced); err != nil {
			t.Error(err)
		}
		unpinned("an ExplainAnalyze")

		n := 0
		if _, err := db.RangeSearchFunc(box, func(probe.Point) bool { n++; return false }, traced); err != nil || n != 1 {
			t.Errorf("a stream stopped at its first point: %d points, %v", n, err)
		}
		unpinned("a stream stopped early")
		if err := db.Scan(func(probe.Point) bool { return false }); err != nil {
			t.Error(err)
		}
		unpinned("a scan stopped early")
		stmt, err := db.Prepare("SELECT id FROM points")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Run(ctx, func(probe.QueryRow) bool { return false }); err != nil {
			t.Error(err)
		}
		unpinned("a statement stopped early")

		cctx, cancel := context.WithCancel(ctx)
		if _, err := db.RangeSearchFunc(box, func(probe.Point) bool { cancel(); return true }, probe.WithContext(cctx), traced); !errors.Is(err, context.Canceled) {
			t.Errorf("a stream cancelled from inside: %v", err)
		}
		unpinned("a stream cancelled from inside")
		if _, err := stmt.Run(cctx, func(probe.QueryRow) bool { return true }); !errors.Is(err, context.Canceled) {
			t.Errorf("a statement under a cancelled context: %v", err)
		}
		for _, read := range []func() error{
			func() error { _, _, err := db.RangeSearch(box, probe.WithContext(cctx), traced); return err },
			func() error {
				_, _, err := db.Nearest([]uint32{1, 1}, 3, probe.Euclidean, probe.WithContext(cctx), traced)
				return err
			},
			func() error { _, err := db.ExplainAnalyze(box, probe.WithContext(cctx), traced); return err },
			func() error { _, err := db.Query(cctx, "SELECT COUNT(*) FROM points"); return err },
		} {
			if err := read(); !errors.Is(err, context.Canceled) {
				t.Errorf("a read under a cancelled context: %v", err)
			}
		}
		unpinned("reads under a cancelled context")
	}

	pass = "closed"
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RangeSearch(box); !errors.Is(err, probe.ErrClosed) {
		t.Errorf("RangeSearch on a closed DB: %v", err)
	}
	if _, _, err := db.RangeSearch(box, probe.WithTrace(probe.NewTrace("t"))); !errors.Is(err, probe.ErrClosed) {
		t.Errorf("a traced RangeSearch on a closed DB: %v", err)
	}
	if _, err := db.ExplainAnalyze(box); !errors.Is(err, probe.ErrClosed) {
		t.Errorf("ExplainAnalyze on a closed DB: %v", err)
	}
	if _, err := db.Query(ctx, "SELECT COUNT(*) FROM points"); !errors.Is(err, probe.ErrClosed) {
		t.Errorf("a statement on a closed DB: %v", err)
	}
	unpinned("reads on a closed DB")
}

// bruteNeighbors ranks every point by distance to q, ties by id, and
// keeps m: NEAREST's answer by definition.
func bruteNeighbors(pts []probe.Point, q []uint32, m int, metric probe.Metric) []probe.Neighbor {
	nbs := make([]probe.Neighbor, len(pts))
	for i, p := range pts {
		var linf, sq float64
		for k := range q {
			d := float64(max(q[k], p.Coords[k]) - min(q[k], p.Coords[k]))
			linf, sq = max(linf, d), sq+d*d
		}
		nbs[i] = probe.Neighbor{Point: p, Dist: linf}
		if metric == probe.Euclidean {
			nbs[i].Dist = math.Sqrt(sq)
		}
	}
	sort.Slice(nbs, func(i, j int) bool {
		if nbs[i].Dist != nbs[j].Dist {
			return nbs[i].Dist < nbs[j].Dist
		}
		return nbs[i].Point.ID < nbs[j].Point.ID
	})
	return nbs[:min(m, len(nbs))]
}

// TestTxNearestMatchesRank is the differential of NEAREST's bounded
// heap where its m is not the caller's: a transaction with buffered
// deletes asks the snapshot for m+deletes and ranks its own inserts
// in. Cases are built to tie (shared pixels, rings of equal distance).
func TestTxNearestMatchesRank(t *testing.T) {
	g := probe.MustGrid(2, 7)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := []uint32{uint32(20 + rng.Intn(80)), uint32(20 + rng.Intn(80))}
		var pts []probe.Point
		for i, n := 0, 20+rng.Intn(60); i < n; i++ {
			d := uint32(rng.Intn(12)) // on rings around q: offsets of -d, 0 or d
			x, y := q[0]+d*uint32(rng.Intn(3))-d, q[1]+d*uint32(rng.Intn(3))-d
			pts = append(pts, probe.Pt2(uint64(len(pts)+1), x, y))
		}
		db, err := probe.Open(g, probe.WithLeafCapacity(4), probe.WithBulkLoad(pts))
		if err != nil {
			t.Fatal(err)
		}
		err = db.Update(context.Background(), func(tx *probe.Tx) error {
			model := append([]probe.Point(nil), pts...)
			for i, n := 0, rng.Intn(10); i < n && len(model) > 1; i++ {
				k := rng.Intn(len(model))
				if ok, err := tx.Delete(model[k]); err != nil || !ok {
					t.Fatalf("seed %d: delete %v: %v %v", seed, model[k], ok, err)
				}
				model = append(model[:k], model[k+1:]...)
			}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				p := probe.Pt2(uint64(1000+i), q[0]+uint32(rng.Intn(5)), q[1])
				if err := tx.Insert(p); err != nil {
					return err
				}
				model = append(model, p)
			}
			for _, metric := range []probe.Metric{probe.Chebyshev, probe.Euclidean} {
				for _, m := range []int{1, 3, len(model), len(model) + 2} {
					got, _, err := tx.Nearest(q, m, metric)
					if err != nil {
						return err
					}
					want := bruteNeighbors(model, q, m, metric)
					if len(got) != len(want) {
						t.Fatalf("seed %d m=%d %v: %d neighbors, want %d", seed, m, metric, len(got), len(want))
					}
					for i := range want {
						if got[i].Point.ID != want[i].Point.ID || got[i].Dist != want[i].Dist ||
							got[i].Point.Coords[0] != want[i].Point.Coords[0] || got[i].Point.Coords[1] != want[i].Point.Coords[1] {
							t.Fatalf("seed %d m=%d %v: neighbor %d is %v, want %v", seed, m, metric, i, got[i], want[i])
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db.Close()
	}
}
