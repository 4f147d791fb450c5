// Package planner implements set-at-a-time query planning over
// spatial relations: the "optimizations of set-at-a-time operators
// [that] must be done by the DBMS" (Section 2). Given the block-model
// cost estimates of Section 5, the planner chooses a range query's
// access path — a z-ordered index scan versus a sequential scan of
// every leaf — and exposes an EXPLAIN-style description of its choice.
// A region join has no choice to make: it is always Section 4's merge
// (core's JoinScanCtx). The planner chooses; the caller runs the chosen
// plan (probe.DB.ExplainAnalyze, the SQL executor in internal/query).
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
	// Access names the chosen access path: "index-scan" or
	// "seq-scan". EXPLAIN ANALYZE uses it as the operator name.
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
