package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// Concurrency stress: many goroutines querying one index through one
// shared buffer pool. Run under `go test -race` this proves the
// thread-safety contract of the stack — pool latch, tree read latch,
// per-goroutine cursors. The pool is deliberately smaller than the
// working set so eviction churns under contention.

func TestConcurrentReadersOneIndexOnePool(t *testing.T) {
	g := zorder.MustGrid(2, 9)
	pool := disk.MustPool(disk.MustMemStore(1024), 24, disk.LRU)
	ix, err := NewIndex(pool, g, IndexConfig{LeafCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.Uniform(g, 4000, 41)
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	boxes := randomBoxes(g, 16, 42)
	want := make([][]uint64, len(boxes))
	for i, box := range boxes {
		want[i] = bruteIDs(pts, box)
	}

	const goroutines = 16
	const queriesPer = 30
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < queriesPer; q++ {
				bi := rng.Intn(len(boxes))
				s := allStrategies()[rng.Intn(3)]
				got, stats, err := ix.RangeSearch(boxes[bi], s)
				if err != nil {
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if !equalU64(resultIDs(got), want[bi]) {
					errc <- fmt.Errorf("worker %d box %d strategy %v: wrong result set", w, bi, s)
					return
				}
				if stats.Results != len(got) {
					errc <- fmt.Errorf("worker %d: stats.Results %d != %d", w, stats.Results, len(got))
					return
				}
				// Interleave the other read paths.
				if q%7 == 0 {
					if _, _, err := ix.Nearest(
						[]uint32{uint32(rng.Intn(512)), uint32(rng.Intn(512))},
						1+rng.Intn(5), Euclidean, MergeLazy); err != nil {
						errc <- fmt.Errorf("worker %d nearest: %v", w, err)
						return
					}
				}
				if q%5 == 0 {
					pool.Stats() // concurrent stats reads must be safe
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := pool.Stats(); st.Evictions == 0 {
		t.Errorf("pool never evicted (capacity %d); stress test is not stressing", pool.Capacity())
	}
}

// TestConcurrentReadersWithWriter: readers scanning while a single
// writer inserts. The contract promises freedom from data races (the
// tree write latch excludes readers per step), not snapshot
// isolation, so only error-freedom and the final state are asserted.
func TestConcurrentReadersWithWriter(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	pool := disk.MustPool(disk.MustMemStore(1024), 32, disk.LRU)
	ix, err := NewIndex(pool, g, IndexConfig{LeafCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Uniform(g, 1000, 43)
	if err := ix.BulkLoad(base); err != nil {
		t.Fatal(err)
	}
	extra := workload.Uniform(g, 500, 44)
	for i := range extra {
		extra[i].ID += 1_000_000 // keep (pixel, id) unique vs base
	}

	errc := make(chan error, 9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range extra {
			if err := ix.Insert(p); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for q := 0; q < 40; q++ {
				lo := uint32(rng.Intn(200))
				box := geom.Box2(lo, lo+55, lo, lo+55)
				if _, _, err := ix.RangeSearch(box, allStrategies()[q%3]); err != nil {
					errc <- fmt.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got, want := ix.Len(), len(base)+len(extra); got != want {
		t.Errorf("index has %d points after writer finished, want %d", got, want)
	}
	// The index must still be fully consistent once writers are done.
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Errorf("tree invariants violated after concurrent workload: %v", err)
	}
}

// TestLiveIndexReadsOneVersion: a read on the live Index answers from
// the one version it pinned when it started. A writer inserts ids 1..n
// in order at random pixels, so the committed versions hold exactly
// the id sets {1..k}. Meanwhile whole-box range searches, by each
// strategy, and NEAREST for more points than the index ever holds run
// on the Index itself, and every answer must be one of those sets: a
// read that moved to a newer version part way, or sized its answer on
// one version and filled it from another, fails. Fresh small indexes
// keep the reads short, so many of them straddle a commit.
func TestLiveIndexReadsOneVersion(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	whole := geom.Box2(0, 255, 0, 255)
	const rounds, n = 300, 64
	reads := 0
	for r := 0; r < rounds; r++ {
		ix := newTestIndex(t, g, 4)
		var done atomic.Bool
		var wg sync.WaitGroup
		errc := make(chan error, 2)
		counts := make([]int, 2)
		read := func(w int, get func(i int) ([]uint64, error)) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				ids, err := get(i)
				if err != nil {
					errc <- err
					return
				}
				slices.Sort(ids)
				for j, id := range ids {
					if id != uint64(j+1) {
						errc <- fmt.Errorf("round %d reader %d: %d ids are no version's: id %d at %d", r, w, len(ids), id, j)
						return
					}
				}
				counts[w]++
			}
		}
		wg.Add(2)
		go read(0, func(i int) ([]uint64, error) {
			pts, _, err := ix.RangeSearch(whole, allStrategies()[i%3])
			return resultIDs(pts), err
		})
		go read(1, func(int) ([]uint64, error) {
			nb, _, err := ix.Nearest([]uint32{128, 128}, n+1, Euclidean, MergeLazy)
			ids := make([]uint64, len(nb))
			for j, b := range nb {
				ids[j] = b.Point.ID
			}
			return ids, err
		})
		rng := rand.New(rand.NewSource(int64(r)))
		for id := uint64(1); id <= n; id++ {
			if err := ix.Insert(geom.Point{ID: id, Coords: []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256))}}); err != nil {
				t.Fatal(err)
			}
		}
		done.Store(true)
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		reads += counts[0] + counts[1]
	}
	t.Logf("%d reads during inserts", reads)
}
