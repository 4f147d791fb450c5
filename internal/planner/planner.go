// Package planner prices set-at-a-time queries over spatial relations:
// the "optimizations of set-at-a-time operators [that] must be done by
// the DBMS" (Section 2). It chooses nothing. A range query has one
// plan, the z-ordered index scan, which is Section 4's merge of the
// box's elements against the points (core's strategy B); the index
// prices it itself, in the leaves of its tree that the box's elements
// reach (core's EstimatePages), and the planner describes it for
// EXPLAIN. A region join is the same merge over many regions (core's
// JoinScanCtx) and is not planned at all. The caller runs the plan
// (probe.DB.ExplainAnalyze, the SQL executor in internal/query).
package planner

import (
	"fmt"

	"probe/internal/geom"
)

// Index is a version of a z-ordered point index that prices a scan of
// itself: a core.Index, or a snapshot of one.
type Index interface {
	EstimatePages(box geom.Box) (int, error)
}

// Table is one spatial relation known to the planner: a set of
// points in a z-ordered index.
type Table struct {
	Name  string
	Index Index
}

// Config is the planner's configuration, which has no settings: a
// range query has one plan.
type Config struct{}

// Plan is a range query's plan, the index scan, with its cost
// estimate. The caller runs it; the planner only estimates.
type Plan struct {
	// Description is the EXPLAIN line, e.g.
	// "index scan on points box(0..9, 0..9) (est. 1 pages)".
	Description string
	// Access names the operator, always "index-scan". EXPLAIN ANALYZE
	// uses it as the operator's span name.
	Access string
	// EstimatedPages is the index's count of the data pages the scan
	// reads.
	EstimatedPages int
}

// PlanRange plans a range query on the table: the index scan, which is
// Section 4's merge of the box's elements against the points, priced
// by the index.
func PlanRange(t *Table, box geom.Box, cfg Config) (*Plan, error) {
	if t.Index == nil {
		return nil, fmt.Errorf("planner: range query requires an index on %q", t.Name)
	}
	est, err := t.Index.EstimatePages(box)
	if err != nil {
		return nil, fmt.Errorf("planner: %q: %w", t.Name, err)
	}
	return &Plan{
		Description:    fmt.Sprintf("index scan on %s %v (est. %d pages)", t.Name, box, est),
		Access:         "index-scan",
		EstimatedPages: est,
	}, nil
}
