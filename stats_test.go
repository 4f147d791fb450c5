package probe_test

import (
	"math/rand"
	"sync"
	"testing"

	"probe"
)

// statsReads are the read entry points that return QueryStats, each
// run on a box: RangeSearch, RangeSearchFunc, PartialMatch (the box's
// low x) and Nearest (around the box's low corner).
var statsReads = []struct {
	name string
	run  func(*probe.DB, probe.Box, ...probe.QueryOption) (probe.QueryStats, error)
}{
	{"range", func(db *probe.DB, b probe.Box, opts ...probe.QueryOption) (probe.QueryStats, error) {
		_, qs, err := db.RangeSearch(b, opts...)
		return qs, err
	}},
	{"range-func", func(db *probe.DB, b probe.Box, opts ...probe.QueryOption) (probe.QueryStats, error) {
		return db.RangeSearchFunc(b, func(probe.Point) bool { return true }, opts...)
	}},
	{"partial-match", func(db *probe.DB, b probe.Box, opts ...probe.QueryOption) (probe.QueryStats, error) {
		_, qs, err := db.PartialMatch([]bool{true, false}, []uint32{b.Lo[0], 0}, opts...)
		return qs, err
	}},
	{"nearest", func(db *probe.DB, b probe.Box, opts ...probe.QueryOption) (probe.QueryStats, error) {
		_, qs, err := db.Nearest(b.Lo, 12, probe.Euclidean, opts...)
		return qs, err
	}},
}

// TestUntracedStatsEqualTraced: a read counts its work the same way
// traced or not, so on the same cold pool every QueryStats field of an
// untraced read, the buffer pool and physical I/O among them, equals
// the traced read's. The boxes are the EXPLAIN ANALYZE golden box and
// a sweep of random ones.
func TestUntracedStatsEqualTraced(t *testing.T) {
	db := obsTestDB(t)
	boxes := []probe.Box{probe.Box2(32, 96, 32, 96)}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 12; i++ {
		x, y := uint32(rng.Intn(256)), uint32(rng.Intn(256))
		w, h := uint32(rng.Intn(256-int(x))), uint32(rng.Intn(256-int(y)))
		boxes = append(boxes, probe.Box2(x, x+w, y, y+h))
	}
	for _, r := range statsReads {
		for _, box := range boxes {
			cold := func(opts ...probe.QueryOption) probe.QueryStats {
				t.Helper()
				if err := db.DropCaches(); err != nil {
					t.Fatal(err)
				}
				qs, err := r.run(db, box, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return qs
			}
			traced := cold(probe.WithTrace(probe.NewTrace("t")))
			untraced := cold()
			if traced.PoolGets == 0 || traced.PoolMisses == 0 || traced.PhysReads == 0 {
				t.Fatalf("%s %v: a cold traced read counted no pool or physical I/O: %+v", r.name, box, traced)
			}
			if untraced != traced {
				t.Errorf("%s %v:\nuntraced %+v\ntraced   %+v", r.name, box, untraced, traced)
			}
		}
	}
}

// TestUntracedReadCountsOnlyItself: each read counts on counts of its
// own, so concurrent untraced readers of one DB each report exactly
// the QueryStats the same read reports alone. The pool holds the whole
// tree, so every get is a hit whichever reader comes first.
func TestUntracedReadCountsOnlyItself(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := make([]probe.Point, 20000)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
	}
	db, err := probe.Open(probe.MustGrid(2, 10), probe.WithBulkLoad(pts), probe.WithPoolPages(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Scan(func(probe.Point) bool { return true }); err != nil {
		t.Fatal(err)
	}
	boxes := []probe.Box{probe.Box2(100, 140, 200, 240), probe.Box2(0, 511, 0, 1023), probe.Box2(700, 1000, 30, 90)}
	type read struct {
		name string
		run  func(*probe.DB, probe.Box, ...probe.QueryOption) (probe.QueryStats, error)
		box  probe.Box
		solo probe.QueryStats
	}
	var reads []read
	for _, r := range statsReads {
		for _, box := range boxes {
			qs, err := r.run(db, box)
			if err != nil {
				t.Fatal(err)
			}
			if qs.PoolGets == 0 || qs.PoolMisses != 0 {
				t.Fatalf("%s %v alone on a warm pool: %+v", r.name, box, qs)
			}
			reads = append(reads, read{r.name, r.run, box, qs})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				rd := reads[(w+i)%len(reads)]
				qs, err := rd.run(db, rd.box)
				if err != nil {
					t.Error(err)
					return
				}
				if qs != rd.solo {
					t.Errorf("%s %v beside other readers: %+v, alone %+v", rd.name, rd.box, qs, rd.solo)
				}
			}
		}()
	}
	wg.Wait()
}
