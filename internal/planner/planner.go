// Package planner estimates the cost of set-at-a-time queries over
// spatial relations: the "optimizations of set-at-a-time operators
// [that] must be done by the DBMS" (Section 2). It chooses nothing. A
// range query has one plan, the z-ordered index scan, which is Section
// 4's merge of the box's elements against the points (core's strategy
// B); the planner prices it in data pages by the block model of
// Section 5 or by ANALYZE statistics and describes it for EXPLAIN. A
// region join is the same merge over many regions (core's
// JoinScanCtx) and is not planned at all. The caller runs the plan
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

// Config is the planner's configuration, which has no settings: a
// range query has one plan.
type Config struct{}

// Plan is a range query's plan, the index scan, with its cost
// estimate. The caller runs it; the planner only estimates.
type Plan struct {
	// Description is the EXPLAIN line, e.g.
	// "index scan on points box(0..9, 0..9) (est. 1.3 pages via block model)".
	Description string
	// Access names the operator, always "index-scan". EXPLAIN ANALYZE
	// uses it as the operator's span name.
	Access string
	// EstimatedPages is the estimate of the data pages the scan reads.
	EstimatedPages float64
}

// PlanRange plans a range query on the table: the index scan, which is
// Section 4's merge of the box's elements against the points, with its
// page estimate from the ANALYZE statistics or else the block model.
// The merge reads each leaf at most once, so the estimate is capped at
// the table's leaf pages and no full scan is ever cheaper.
func PlanRange(t *Table, box geom.Box, cfg Config) (*Plan, error) {
	if t.Index == nil {
		return nil, fmt.Errorf("planner: range query requires an index on %q", t.Name)
	}
	if box.Dims() != t.Index.Grid().Dims() {
		return nil, fmt.Errorf("planner: box has %d dims, %q has %d", box.Dims(), t.Name, t.Index.Grid().Dims())
	}
	var est float64
	how := "block model"
	leaves := t.Index.Tree().LeafPages()
	if t.Stats != nil {
		e, err := estimatePagesFromStats(t, box, t.Stats)
		if err != nil {
			return nil, err
		}
		est = e
		how = "statistics"
	} else {
		model, err := analysis.NewModel(t.Index.Grid(), leaves)
		if err != nil {
			return nil, err
		}
		est = model.PredictPages(box)
	}
	est = min(est, float64(leaves))
	return &Plan{
		Description:    fmt.Sprintf("index scan on %s %v (est. %.1f pages via %s)", t.Name, box, est, how),
		Access:         "index-scan",
		EstimatedPages: est,
	}, nil
}
