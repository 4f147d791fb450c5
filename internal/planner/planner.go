// Package planner implements set-at-a-time query planning over
// spatial relations: the "optimizations of set-at-a-time operators
// [that] must be done by the DBMS" (Section 2). Given the block-model
// cost estimates of Section 5, the planner chooses between access
// paths — a z-ordered index scan versus a sequential scan of every
// leaf for range queries, and merge join versus index nested-loop join
// for spatial joins — and exposes EXPLAIN-style descriptions of its
// choices. The planner chooses; the caller runs the chosen plan
// (probe.DB.ExplainAnalyze, the SQL executor in internal/query).
package planner

import (
	"fmt"

	"probe/internal/analysis"
	"probe/internal/core"
	"probe/internal/geom"
)

// Table is one spatial relation known to the planner: a set of
// points in a z-ordered index.
type Table struct {
	Name  string
	Index *core.Index
	// Stats holds ANALYZE-collected statistics; nil means the planner
	// falls back to the uniform block model.
	Stats *TableStats
}

// heapPages is the sequential-scan cost in pages: every leaf of the
// index, packed full.
func (t *Table) heapPages() float64 {
	pp := t.Index.Tree().LeafCapacity()
	return float64((t.Index.Len() + pp - 1) / pp)
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

// Plan is the access path the planner chose, with its cost estimate.
// The caller runs it; the planner only chooses.
type Plan struct {
	// Description is the EXPLAIN line, e.g.
	// "index scan on points (est. 12.3 pages)".
	Description string
	// Access names the chosen access path: "index-scan" or "seq-scan"
	// for a range query, "index-nested-loop-join" or "merge-join" for a
	// region join. EXPLAIN ANALYZE uses it as the operator name.
	Access string
	// EstimatedPages is the block-model cost estimate.
	EstimatedPages float64
}

// PlanRange chooses an access path for a range query on the table:
// the index scan or a sequential scan of every leaf, whichever the
// cost model prices lower.
func PlanRange(t *Table, box geom.Box, cfg Config) (*Plan, error) {
	if t.Index == nil {
		return nil, fmt.Errorf("planner: range query requires an index on %q", t.Name)
	}
	if box.Dims() != t.Index.Grid().Dims() {
		return nil, fmt.Errorf("planner: box has %d dims, %q has %d", box.Dims(), t.Name, t.Index.Grid().Dims())
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
	if scan := t.heapPages(); est > scan {
		return &Plan{
			Description:    fmt.Sprintf("seq scan on %s filter %v (est. %.1f pages)", t.Name, box, scan),
			Access:         "seq-scan",
			EstimatedPages: scan,
		}, nil
	}
	return &Plan{
		Description:    fmt.Sprintf("index scan on %s %v (est. %.1f pages via %s)", t.Name, box, est, how),
		Access:         "index-scan",
		EstimatedPages: est,
	}, nil
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
func PlanRegionJoin(t *Table, regions []Region, cfg Config) (*Plan, error) {
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
		return &Plan{
			Description: fmt.Sprintf(
				"index nested loop join: %d regions x index scan on %s (est. %.1f pages)",
				len(regions), t.Name, nlCost),
			Access:         "index-nested-loop-join",
			EstimatedPages: nlCost,
		}, nil
	}
	return &Plan{
		Description: fmt.Sprintf(
			"merge spatial join: decompose %d regions, one pass over %s (est. %.1f pages)",
			len(regions), t.Name, mergeCost),
		Access:         "merge-join",
		EstimatedPages: mergeCost,
	}, nil
}
