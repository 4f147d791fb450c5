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
	"probe/internal/zorder"
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
	// Parallelism is the degree of parallelism for merge spatial
	// joins: > 1 executes the element-relation merge with that many
	// workers over z-prefix partitions (see docs/parallelism.md).
	// 0 or 1 keeps the join sequential.
	Parallelism int
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

// RegionJoinResult pairs a region id with a matching point.
type RegionJoinResult struct {
	RegionID uint64
	Point    geom.Point
}

// Region is one row of a region relation to be joined against a
// point table.
type Region struct {
	ID  uint64
	Box geom.Box
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
type JoinPlan struct {
	Description string
	// Access names the chosen join method: "index-nested-loop-join"
	// or "merge-join". EXPLAIN ANALYZE uses it as the operator name.
	Access         string
	EstimatedPages float64
	run            func(sp *obs.Span) ([]RegionJoinResult, error)
}

// Execute runs the join plan.
func (p *JoinPlan) Execute() ([]RegionJoinResult, error) { return p.run(nil) }

// ExecuteTraced runs the join plan with per-operator attribution on
// sp (nil behaves exactly like Execute).
func (p *JoinPlan) ExecuteTraced(sp *obs.Span) ([]RegionJoinResult, error) {
	return p.run(sp)
}

// PlanRegionJoin builds the chosen plan.
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
			run:            func(sp *obs.Span) ([]RegionJoinResult, error) { return nestedLoopJoin(t, regions, sp) },
		}, nil
	}
	how := "sequential"
	if cfg.Parallelism > 1 {
		how = fmt.Sprintf("parallel x%d", cfg.Parallelism)
	}
	return &JoinPlan{
		Description: fmt.Sprintf(
			"merge spatial join (%s): decompose %d regions, one pass over %s (est. %.1f pages)",
			how, len(regions), t.Name, mergeCost),
		Access:         "merge-join",
		EstimatedPages: mergeCost,
		run:            func(sp *obs.Span) ([]RegionJoinResult, error) { return mergeJoin(t, regions, cfg, sp) },
	}, nil
}

func nestedLoopJoin(t *Table, regions []Region, sp *obs.Span) ([]RegionJoinResult, error) {
	var out []RegionJoinResult
	for _, r := range regions {
		pts, _, err := t.Index.RangeSearchCtx(nil, r.Box, sp)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			out = append(out, RegionJoinResult{RegionID: r.ID, Point: p})
		}
	}
	sortResults(out)
	return out, nil
}

func mergeJoin(t *Table, regions []Region, cfg Config, sp *obs.Span) ([]RegionJoinResult, error) {
	g := t.Index.Grid()
	// Build the region element relation.
	var items []core.Item
	byID := make(map[uint64]geom.Box, len(regions))
	for _, r := range regions {
		if _, dup := byID[r.ID]; dup {
			return nil, fmt.Errorf("planner: duplicate region id %d", r.ID)
		}
		byID[r.ID] = r.Box
		items = core.AppendBoxItems(items, g, r.Box, r.ID)
	}
	core.SortItems(items)
	// One pass over the point sequence.
	var pItems []core.Item
	c := t.Index.Tree().Cursor()
	pointByID := make(map[uint64]geom.Point, t.Index.Len())
	for ok, err := c.First(); ok; ok, err = c.Next() {
		if err != nil {
			return nil, err
		}
		k := c.Key()
		pItems = append(pItems, core.Item{
			Elem: zorder.Element{Bits: k.Hi, Len: uint8(g.TotalBits())},
			ID:   k.Lo,
		})
		pointByID[k.Lo] = geom.Point{ID: k.Lo, Coords: g.UnshuffleKey(k.Hi)}
	}
	var pairs []core.Pair
	var err error
	if cfg.Parallelism > 1 {
		pairs, err = core.SpatialJoinParallelCtx(nil, pItems, items, core.ParallelJoinConfig{Workers: cfg.Parallelism}, sp)
	} else {
		pairs, err = core.SpatialJoinCtx(nil, pItems, items, sp)
	}
	if err != nil {
		return nil, err
	}
	// The merge multiply-reports an overlap per element pair (and the
	// parallel form also per shard); project to distinct pairs before
	// materializing results.
	pairs = core.DedupPairs(pairs)
	var out []RegionJoinResult
	for _, pr := range pairs {
		out = append(out, RegionJoinResult{RegionID: pr.B, Point: pointByID[pr.A]})
	}
	sortResults(out)
	return out, nil
}

func sortResults(out []RegionJoinResult) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].RegionID != out[j].RegionID {
			return out[i].RegionID < out[j].RegionID
		}
		return out[i].Point.ID < out[j].Point.ID
	})
}
