package router

import (
	"testing"

	"probe"
)

// TestMergeNeighbors pins the nearest-gather fold: global top-m by
// (dist, id) from per-shard sorted lists.
func TestMergeNeighbors(t *testing.T) {
	lists := [][]probe.Neighbor{
		{{Point: probe.Point{ID: 1}, Dist: 1.0}, {Point: probe.Point{ID: 4}, Dist: 3.0}},
		{{Point: probe.Point{ID: 2}, Dist: 1.0}, {Point: probe.Point{ID: 3}, Dist: 2.0}},
		{},
	}
	got := mergeNeighbors(lists, 3)
	wantIDs := []uint64{1, 2, 3}
	if len(got) != len(wantIDs) {
		t.Fatalf("got %d neighbors, want %d", len(got), len(wantIDs))
	}
	for i, id := range wantIDs {
		if got[i].Point.ID != id {
			t.Fatalf("position %d: id %d, want %d", i, got[i].Point.ID, id)
		}
	}
	// A tie at the m-th distance goes to the smaller id, whichever list
	// holds it: core.compareCandidates' order.
	tied := [][]probe.Neighbor{
		{{Point: probe.Point{ID: 5}, Dist: 2.0}},
		{{Point: probe.Point{ID: 2}, Dist: 2.0}},
	}
	if got := mergeNeighbors(tied, 1); len(got) != 1 || got[0].Point.ID != 2 {
		t.Fatalf("tie at the m-th distance: kept %+v, want id 2", got)
	}
	// m larger than the union returns everything.
	if all := mergeNeighbors(lists, 10); len(all) != 4 {
		t.Fatalf("unbounded merge returned %d, want 4", len(all))
	}
}
