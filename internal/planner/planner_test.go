package planner

import (
	"strings"
	"testing"

	"probe/internal/core"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/workload"
	"probe/internal/zorder"
)

func newTable(t *testing.T, g zorder.Grid, n int, seed int64) *Table {
	t.Helper()
	pts := workload.Uniform(g, n, seed)
	pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return &Table{Name: "points", Index: ix}
}

func TestPlanRangeChoosesIndexForSmallBoxes(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	tab := newTable(t, g, 5000, 1)
	plan, err := PlanRange(tab, geom.Box2(100, 160, 100, 160), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Description, "index scan") || plan.Access != "index-scan" {
		t.Errorf("small box should use the index: %s (%s)", plan.Description, plan.Access)
	}
	if leaves := tab.Index.(*core.Index).Tree().LeafPages(); plan.EstimatedPages <= 0 || plan.EstimatedPages >= leaves {
		t.Errorf("index estimate %d should be below the %d leaves", plan.EstimatedPages, leaves)
	}
}

// TestPlanRangeCapsHugeBoxesAtLeafPages: a whole-space query is still
// the index scan, estimated at every leaf once.
func TestPlanRangeCapsHugeBoxesAtLeafPages(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	tab := newTable(t, g, 5000, 2)
	plan, err := PlanRange(tab, geom.FullBox(g), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Description, "index scan") || plan.Access != "index-scan" {
		t.Errorf("whole-space query should use the index: %s (%s)", plan.Description, plan.Access)
	}
	if leaves := tab.Index.(*core.Index).Tree().LeafPages(); plan.EstimatedPages != leaves {
		t.Errorf("whole-space estimate %d, want the %d leaves", plan.EstimatedPages, leaves)
	}
}

func TestPlanRangeEmptyTable(t *testing.T) {
	if _, err := PlanRange(&Table{Name: "empty"}, geom.Box2(0, 1, 0, 1), Config{}); err == nil {
		t.Errorf("empty table accepted")
	}
}

// TestEstimateAdaptsToSkew: on diagonal data a box off the diagonal
// holds almost nothing, and the index, which counts the leaves the
// box's elements reach, prices it so: far below the leaves its area
// would take under the uniform assumption of Section 5's block model,
// and close to what the scan reads.
func TestEstimateAdaptsToSkew(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	pts := workload.Diagonal(g, 5000, 3, 50)
	pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts)
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{Name: "diag", Index: ix}

	// An off-diagonal box: almost no data there.
	box := geom.Box2(700, 1000, 0, 300)
	plan, err := PlanRange(tab, box, Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaves := ix.Tree().LeafPages()
	if uniform := float64(leaves) * box.VolumeFraction(g); float64(plan.EstimatedPages) >= uniform/4 {
		t.Errorf("estimate %d pages is not far below the %.1f of the box's area", plan.EstimatedPages, uniform)
	}
	_, stats, err := ix.RangeSearchCtx(nil, box, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstimatedPages < stats.DataPages {
		t.Errorf("estimate %d below actual %d pages", plan.EstimatedPages, stats.DataPages)
	}
	if plan.EstimatedPages > 10*stats.DataPages+10 {
		t.Errorf("estimate %d far above actual %d pages", plan.EstimatedPages, stats.DataPages)
	}
}

// TestEstimateTracksActual: across random boxes on every distribution
// the index's estimate tracks the true page count closely. It may fall
// short by a few pages: a seek can land on a neighboring leaf that
// holds no in-range keys.
func TestEstimateTracksActual(t *testing.T) {
	g := zorder.MustGrid(2, 9)
	for name, pts := range map[string][]geom.Point{
		"uniform":  workload.Uniform(g, 2000, 51),
		"diagonal": workload.Diagonal(g, 2000, 3, 52),
	} {
		pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
		ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts)
		if err != nil {
			t.Fatal(err)
		}
		tab := &Table{Name: name, Index: ix}
		boxes, err := workload.Queries(g, workload.QuerySpec{Volume: 0.05, Aspect: 2}, 10, 53)
		if err != nil {
			t.Fatal(err)
		}
		for _, box := range boxes {
			plan, err := PlanRange(tab, box, Config{})
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := ix.RangeSearchCtx(nil, box, nil)
			if err != nil {
				t.Fatal(err)
			}
			if est := plan.EstimatedPages; est+4 < stats.DataPages {
				t.Errorf("%s: estimate %d far below actual %d for %v", name, est, stats.DataPages, box)
			} else if est > 3*stats.DataPages+5 {
				t.Errorf("%s: estimate %d far above actual %d for %v", name, est, stats.DataPages, box)
			}
		}
	}
}
