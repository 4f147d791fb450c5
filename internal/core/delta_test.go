package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probe/internal/btree"
	"probe/internal/geom"
)

// TestDeltaStepsEveryStrategy: a snapshot carrying writes answers a
// range search, by each of the three strategies, with the keys of its
// view in key order, and Len with their number. The writes insert
// fresh keys (some on a pixel a point holds), delete the snapshot's,
// undo earlier ones and repeat ones that change nothing, on a loaded
// index and on an empty one.
func TestDeltaStepsEveryStrategy(t *testing.T) {
	for _, n := range []int{300, 0} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { testDeltaStepsEveryStrategy(t, n) })
	}
}

func testDeltaStepsEveryStrategy(t *testing.T, n int) {
	g := sameGrid(2, 5).g
	pts := randomPoints(g, n, 41)
	ix := newTestIndex(t, g, 6)
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	snap := ix.Snapshot()
	defer snap.Release()
	rng := rand.New(rand.NewSource(42))
	view := map[btree.Key]bool{}
	var touched []btree.Key
	for _, p := range pts {
		k, _ := snap.Key(p)
		view[k] = true
		touched = append(touched, k)
	}
	boxes := append(randomBoxes(g, 6, 43), geom.FullBox(g))
	for step := 0; step < 400; step++ {
		if len(touched) == 0 || rng.Intn(3) == 0 {
			c := []uint32{uint32(rng.Intn(32)), uint32(rng.Intn(32))}
			if len(pts) > 0 && rng.Intn(2) == 0 {
				c = pts[rng.Intn(len(pts))].Coords
			}
			k, _ := snap.Key(geom.Point{ID: uint64(1000 + step), Coords: c})
			touched = append(touched, k)
		}
		k := touched[rng.Intn(len(touched))]
		del := rng.Intn(2) == 0
		changed, err := snap.Apply(btree.Mutation{Key: k, Delete: del})
		if err != nil || changed != (view[k] == del) {
			t.Fatalf("step %d: Apply(%v, delete %v) = %v, %v; present before: %v", step, k, del, changed, err, view[k])
		}
		view[k] = !del
		if step%25 != 0 {
			continue
		}
		var all []btree.Key
		for k, in := range view {
			if in {
				all = append(all, k)
			}
		}
		slices.SortFunc(all, btree.Key.Compare)
		if snap.Len() != len(all) {
			t.Fatalf("step %d: Len %d, view %d", step, snap.Len(), len(all))
		}
		for _, box := range boxes {
			var want []btree.Key
			for _, k := range all {
				if g.InBox(k.Hi, box.Lo, box.Hi) {
					want = append(want, k)
				}
			}
			for _, s := range allStrategies() {
				got, _, err := snap.RangeSearch(box, s)
				if err != nil {
					t.Fatal(err)
				}
				keys := make([]btree.Key, len(got))
				for i, p := range got {
					keys[i], _ = snap.Key(p)
				}
				if fmt.Sprint(keys) != fmt.Sprint(want) {
					t.Fatalf("step %d, box %v, %v: %d keys, view %d", step, box, s, len(keys), len(want))
				}
			}
		}
	}
}
