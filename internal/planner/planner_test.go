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
	ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts, 0)
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
	if leaves := float64(tab.Index.Tree().LeafPages()); plan.EstimatedPages <= 0 || plan.EstimatedPages >= leaves {
		t.Errorf("index estimate %v should be below the %v leaves", plan.EstimatedPages, leaves)
	}
}

// TestPlanRangeCapsHugeBoxesAtLeafPages: a whole-space query is still
// the index scan, estimated at every leaf once, by the block model and
// by the statistics alike.
func TestPlanRangeCapsHugeBoxesAtLeafPages(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	tab := newTable(t, g, 5000, 2)
	leaves := float64(tab.Index.Tree().LeafPages())
	for _, analyze := range []bool{false, true} {
		if analyze {
			if err := Analyze(tab); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := PlanRange(tab, geom.FullBox(g), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Description, "index scan") || plan.Access != "index-scan" {
			t.Errorf("whole-space query should use the index: %s (%s)", plan.Description, plan.Access)
		}
		if plan.EstimatedPages != leaves {
			t.Errorf("statistics %v: whole-space estimate %v, want the %v leaves", analyze, plan.EstimatedPages, leaves)
		}
	}
}

func TestPlanRangeEmptyTable(t *testing.T) {
	if _, err := PlanRange(&Table{Name: "empty"}, geom.Box2(0, 1, 0, 1), Config{}); err == nil {
		t.Errorf("empty table accepted")
	}
}

// TestAnalyzeAdaptsToSkew: on diagonal data the uniform block model
// badly overestimates off-diagonal queries; leaf-boundary statistics
// fix that.
func TestAnalyzeAdaptsToSkew(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	pts := workload.Diagonal(g, 5000, 3, 50)
	pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{Name: "diag", Index: ix}

	// An off-diagonal box: almost no data there.
	box := geom.Box2(700, 1000, 0, 300)
	before, err := PlanRange(tab, box, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(tab); err != nil {
		t.Fatal(err)
	}
	if tab.Stats == nil || len(tab.Stats.Boundaries) != ix.Tree().LeafPages() {
		t.Fatalf("analyze collected %d boundaries, want %d",
			len(tab.Stats.Boundaries), ix.Tree().LeafPages())
	}
	after, err := PlanRange(tab, box, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.Description, "statistics") {
		t.Fatalf("statistics not used: %s", after.Description)
	}
	if after.EstimatedPages >= before.EstimatedPages {
		t.Errorf("stats estimate %.1f should beat block model %.1f on skew",
			after.EstimatedPages, before.EstimatedPages)
	}
	// The statistics estimate should be close to the truth.
	_, stats, err := ix.RangeSearchCtx(nil, box, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.EstimatedPages < float64(stats.DataPages) {
		t.Errorf("stats estimate %.1f below actual %d pages", after.EstimatedPages, stats.DataPages)
	}
	if after.EstimatedPages > 10*float64(stats.DataPages)+10 {
		t.Errorf("stats estimate %.1f far above actual %d pages", after.EstimatedPages, stats.DataPages)
	}
}

func TestAnalyzeRequiresIndex(t *testing.T) {
	if err := Analyze(&Table{Name: "noidx"}); err == nil {
		t.Errorf("analyze without index accepted")
	}
}

// TestStatsEstimateTracksActual: across random boxes on every
// distribution the statistics estimate tracks the true page count
// closely — it may fall short by a few pages because a seek can land
// on a neighboring leaf that holds no in-range keys.
func TestStatsEstimateTracksActual(t *testing.T) {
	g := zorder.MustGrid(2, 9)
	for name, pts := range map[string][]geom.Point{
		"uniform":  workload.Uniform(g, 2000, 51),
		"diagonal": workload.Diagonal(g, 2000, 3, 52),
	} {
		pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
		ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts, 0)
		if err != nil {
			t.Fatal(err)
		}
		tab := &Table{Name: name, Index: ix}
		if err := Analyze(tab); err != nil {
			t.Fatal(err)
		}
		boxes, err := workload.Queries(g, workload.QuerySpec{Volume: 0.05, Aspect: 2}, 10, 53)
		if err != nil {
			t.Fatal(err)
		}
		for _, box := range boxes {
			est, err := estimatePagesFromStats(tab, box, tab.Stats)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := ix.RangeSearchCtx(nil, box, nil)
			if err != nil {
				t.Fatal(err)
			}
			if est+4 < float64(stats.DataPages) {
				t.Errorf("%s: estimate %.1f far below actual %d for %v", name, est, stats.DataPages, box)
			}
			if est > 3*float64(stats.DataPages)+5 {
				t.Errorf("%s: estimate %.1f far above actual %d for %v", name, est, stats.DataPages, box)
			}
		}
	}
}
