// Package planner implements set-at-a-time query planning over
// spatial relations: the "optimizations of set-at-a-time operators
// [that] must be done by the DBMS" (Section 2). Given the block-model
// cost estimates of Section 5, the planner chooses between access
// paths — a z-ordered index scan versus a sequential heap scan for
// range queries, and merge join versus index nested-loop join for
// spatial joins — and exposes EXPLAIN-style descriptions of its
// choices.
package planner

import (
	"fmt"
	"sort"

	"probe/internal/analysis"
	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/obs"
)

// Table is one spatial relation known to the planner: a set of
// points with an optional z-ordered index.
type Table struct {
	Name  string
	Index *core.Index  // nil when the relation has no spatial index
	Heap  []geom.Point // the base data, always present
	// HeapPointsPerPage models the heap's packing for scan costing;
	// zero defaults to the index leaf capacity or 20.
	HeapPointsPerPage int
	// Stats holds ANALYZE-collected statistics; nil means the planner
	// falls back to the uniform block model.
	Stats *TableStats
}

func (t *Table) pointsPerPage() int {
	if t.HeapPointsPerPage > 0 {
		return t.HeapPointsPerPage
	}
	if t.Index != nil {
		return t.Index.Tree().LeafCapacity()
	}
	return 20
}

// heapPages is the sequential-scan cost in pages. When the table has
// no materialized heap (index-only tables), the index's point count
// stands in for the row count.
func (t *Table) heapPages() float64 {
	rows := len(t.Heap)
	if rows == 0 && t.Index != nil {
		rows = t.Index.Len()
	}
	pp := t.pointsPerPage()
	return float64((rows + pp - 1) / pp)
}

// Config tunes the planner.
type Config struct {
	// RandomAccessPenalty scales index-scan page estimates to account
	// for random I/O being slower than sequential (the classic
	// optimizer fudge factor). Default 1.5.
	RandomAccessPenalty float64
}

func (c Config) penalty() float64 {
	if c.RandomAccessPenalty <= 0 {
		return 1.5
	}
	return c.RandomAccessPenalty
}

// Plan is an executable access path with its cost estimate.
type Plan struct {
	// Description is the EXPLAIN line, e.g.
	// "index scan on points (est. 12.3 pages)".
	Description string
	// Access names the chosen access path: "index-scan" or
	// "seq-scan". EXPLAIN ANALYZE uses it as the operator name.
	Access string
	// EstimatedPages is the block-model cost estimate.
	EstimatedPages float64
	run            func(sp *obs.Span) ([]geom.Point, core.SearchStats, error)
}

// Execute runs the plan.
func (p *Plan) Execute() ([]geom.Point, core.SearchStats, error) { return p.run(nil) }

// ExecuteTraced runs the plan with per-operator attribution on sp
// (nil behaves exactly like Execute).
func (p *Plan) ExecuteTraced(sp *obs.Span) ([]geom.Point, core.SearchStats, error) {
	return p.run(sp)
}

// PlanRange chooses an access path for a range query on the table.
func PlanRange(t *Table, box geom.Box, cfg Config) (*Plan, error) {
	if len(t.Heap) == 0 && t.Index == nil {
		return nil, fmt.Errorf("planner: table %q has no data", t.Name)
	}
	scan := heapScanPlan(t, box)
	if t.Index == nil {
		return scan, nil
	}
	var est float64
	how := "block model"
	if t.Stats != nil {
		e, err := estimatePagesFromStats(t, box, t.Stats)
		if err != nil {
			return nil, err
		}
		est = e * cfg.penalty()
		how = "statistics"
	} else {
		model, err := analysis.NewModel(t.Index.Grid(), t.Index.Tree().LeafPages())
		if err != nil {
			return nil, err
		}
		est = model.PredictPages(box) * cfg.penalty()
	}
	idx := &Plan{
		Description:    fmt.Sprintf("index scan on %s %v (est. %.1f pages via %s)", t.Name, box, est, how),
		Access:         "index-scan",
		EstimatedPages: est,
		run: func(sp *obs.Span) ([]geom.Point, core.SearchStats, error) {
			return t.Index.RangeSearchCtx(nil, box, sp)
		},
	}
	if idx.EstimatedPages <= scan.EstimatedPages {
		return idx, nil
	}
	return scan, nil
}

func heapScanPlan(t *Table, box geom.Box) *Plan {
	pages := t.heapPages()
	return &Plan{
		Description:    fmt.Sprintf("seq scan on %s filter %v (est. %.1f pages)", t.Name, box, pages),
		Access:         "seq-scan",
		EstimatedPages: pages,
		run: func(sp *obs.Span) ([]geom.Point, core.SearchStats, error) {
			var out []geom.Point
			for _, p := range t.Heap {
				if box.ContainsPoint(p.Coords) {
					out = append(out, p)
				}
			}
			sortByZ(t, out)
			stats := core.SearchStats{
				DataPages: int(t.heapPages()),
				Results:   len(out),
			}
			sp.Add(obs.DataPages, int64(stats.DataPages))
			sp.Add(obs.Results, int64(stats.Results))
			return out, stats, nil
		},
	}
}

// sortByZ orders heap-scan output like an index scan so plans are
// interchangeable.
func sortByZ(t *Table, pts []geom.Point) {
	if t.Index == nil {
		return
	}
	g := t.Index.Grid()
	sort.Slice(pts, func(i, j int) bool {
		zi, zj := g.ShuffleKey(pts[i].Coords), g.ShuffleKey(pts[j].Coords)
		if zi != zj {
			return zi < zj
		}
		return pts[i].ID < pts[j].ID
	})
}

// Region is one row of a region relation to be joined against a
// point table.
type Region struct {
	ID  uint64
	Box geom.Box
}

// JoinPlan is the chosen strategy of a region join with its cost
// estimate. The query executor runs it; the planner only chooses.
type JoinPlan struct {
	Description string
	// Access names the chosen join method: "index-nested-loop-join"
	// or "merge-join". EXPLAIN ANALYZE uses it as the operator name.
	Access         string
	EstimatedPages float64
}

// PlanRegionJoin chooses between the two spatial-join strategies of
// Section 4 for joining a set of regions against an indexed point
// table:
//
//   - merge join: decompose every region, sort the element relation,
//     and merge it against the full point sequence (cost ~ one pass
//     over all data pages);
//   - index nested loop: one indexed range query per region (cost ~
//     the sum of per-region block-model estimates, with the random
//     access penalty).
func PlanRegionJoin(t *Table, regions []Region, cfg Config) (*JoinPlan, error) {
	if t.Index == nil {
		return nil, fmt.Errorf("planner: region join requires an index on %q", t.Name)
	}
	model, err := analysis.NewModel(t.Index.Grid(), t.Index.Tree().LeafPages())
	if err != nil {
		return nil, err
	}
	var nlCost float64
	for _, r := range regions {
		nlCost += model.PredictPages(r.Box)
	}
	nlCost *= cfg.penalty()
	mergeCost := float64(t.Index.Tree().LeafPages())

	if nlCost <= mergeCost {
		return &JoinPlan{
			Description: fmt.Sprintf(
				"index nested loop join: %d regions x index scan on %s (est. %.1f pages)",
				len(regions), t.Name, nlCost),
			Access:         "index-nested-loop-join",
			EstimatedPages: nlCost,
		}, nil
	}
	return &JoinPlan{
		Description: fmt.Sprintf(
			"merge spatial join: decompose %d regions, one pass over %s (est. %.1f pages)",
			len(regions), t.Name, mergeCost),
		Access:         "merge-join",
		EstimatedPages: mergeCost,
	}, nil
}
