package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/zorder"
)

// TestSoakMixedWorkloadOnFileStore runs a long randomized workload —
// inserts, deletes, range queries under all three strategies, and
// nearest-neighbor probes — on a durable file-backed store with a
// small buffer pool, checkpointed every few hundred steps so that pool
// misses read the page file, checking every answer against an
// in-memory reference and the B+-tree invariants along the way.
func TestSoakMixedWorkloadOnFileStore(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g := zorder.MustGrid(2, 9)
	store, err := disk.CreateRecoverableStore(disk.OSFS{}, filepath.Join(t.TempDir(), "soak.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := disk.MustPool(store, 24, disk.LRU)
	ix, err := NewIndex(pool, g, IndexConfig{LeafCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}

	type entry struct {
		id   uint64
		x, y uint32
	}
	ref := make(map[uint64]entry)
	rng := rand.New(rand.NewSource(0xdecaf))
	nextID := uint64(1)

	refRange := func(box geom.Box) map[uint64]bool {
		out := make(map[uint64]bool)
		for _, e := range ref {
			if box.ContainsPoint([]uint32{e.x, e.y}) {
				out[e.id] = true
			}
		}
		return out
	}

	const steps = 6000
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			e := entry{id: nextID, x: uint32(rng.Intn(512)), y: uint32(rng.Intn(512))}
			nextID++
			if err := ix.Insert(geom.Pt2(e.id, e.x, e.y)); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			ref[e.id] = e
		case op < 7: // delete a random existing point
			for id, e := range ref {
				ok, err := ix.Delete(geom.Pt2(id, e.x, e.y))
				if err != nil || !ok {
					t.Fatalf("step %d: delete %d: %v %v", step, id, ok, err)
				}
				delete(ref, id)
				break
			}
		case op < 9: // range query
			x1 := uint32(rng.Intn(512))
			x2 := uint32(rng.Intn(512))
			y1 := uint32(rng.Intn(512))
			y2 := uint32(rng.Intn(512))
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			box := geom.Box2(x1, x2, y1, y2)
			want := refRange(box)
			strategy := []Strategy{MergeDecomposed, MergeLazy, SkipBigMin}[step%3]
			got, _, err := ix.RangeSearch(box, strategy)
			if err != nil {
				t.Fatalf("step %d: range: %v", step, err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d (%v): %d results, want %d", step, strategy, len(got), len(want))
			}
			for _, p := range got {
				if !want[p.ID] {
					t.Fatalf("step %d: spurious result %v", step, p)
				}
			}
		default: // nearest neighbor
			if len(ref) == 0 {
				continue
			}
			q := []uint32{uint32(rng.Intn(512)), uint32(rng.Intn(512))}
			got, _, err := ix.Nearest(q, 3, Euclidean, MergeLazy)
			if err != nil {
				t.Fatalf("step %d: nearest: %v", step, err)
			}
			var pts []geom.Point
			for _, e := range ref {
				pts = append(pts, geom.Pt2(e.id, e.x, e.y))
			}
			want := bruteNearest(pts, q, 3, Euclidean)
			if len(got) != len(want) {
				t.Fatalf("step %d: nearest count %d, want %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("step %d: neighbor %d dist %v, want %v", step, i, got[i].Dist, want[i].Dist)
				}
			}
		}
		if step%300 == 299 {
			if err := store.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		}
		if step%1499 == 0 {
			if err := ix.Tree().CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if ix.Len() != len(ref) {
				t.Fatalf("step %d: Len=%d ref=%d", step, ix.Len(), len(ref))
			}
		}
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
