package probe

import (
	"context"
	"fmt"
	"strings"

	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/planner"
)

// ExplainResult is a plan-with-actuals: the access path the planner
// chose for a query, its cost estimate, and the observed execution
// trace and statistics from actually running it — EXPLAIN ANALYZE for
// the paper's range queries.
type ExplainResult struct {
	// Plan is the planner's EXPLAIN line, estimate included.
	Plan string
	// Access names the chosen operator ("index-scan" or "seq-scan").
	Access string
	// EstimatedPages is the planner's block-model page estimate.
	EstimatedPages float64
	// Points is the query result.
	Points []Point
	// Stats are the unified actual counters, pool and physical I/O
	// attribution included.
	Stats QueryStats
	// Trace is the operator's execution span: its counters are the
	// per-operator actuals, and for traced sub-operators (e.g.
	// parallel join shards) its children break the work down.
	Trace *Trace
}

// String renders the plan and its actuals. Timings are deliberately
// omitted so the rendering is deterministic for a given database
// state; read Trace.Duration for wall time.
func (r *ExplainResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", r.Plan)
	b.WriteString("actual:\n")
	tree := strings.TrimRight(r.Trace.Render(false), "\n")
	for _, line := range strings.Split(tree, "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// ExplainAnalyze plans a range query, runs the chosen plan as a traced
// read, and returns the plan alongside its actual counters: the
// estimated-versus-observed comparison the paper's Section 5 cost
// model invites. It accepts the same options as RangeSearch; a
// WithTrace option grafts the operator span onto the caller's trace
// instead of a fresh root.
func (db *DB) ExplainAnalyze(box Box, opts ...QueryOption) (*ExplainResult, error) {
	qc := queryOptions(opts)
	root := qc.trace
	if root == nil {
		root = NewTrace("explain-analyze")
		defer root.End()
	}
	snap, err := db.beginRead(qc.ctx, root)
	if err != nil {
		return nil, err
	}
	defer db.endRead(snap, root)
	plan, err := planner.PlanRange(&planner.Table{Name: "db", Index: db.index}, box, planner.Config{})
	if err != nil {
		return nil, err
	}
	sp := db.beginOp(plan.Access, root)
	defer db.endOp(plan.Access, nil, sp)
	var pts []Point
	var ss core.SearchStats
	if plan.Access == "index-scan" {
		pts, ss, err = snap.RangeSearchCtx(qc.ctx, box, sp)
	} else {
		pts, ss, err = seqScan(qc.ctx, snap, box, sp)
	}
	if err != nil {
		return nil, err
	}
	stats := searchQueryStats(ss)
	stats.addSpanIO(sp)
	return &ExplainResult{
		Plan:           plan.Description,
		Access:         plan.Access,
		EstimatedPages: plan.EstimatedPages,
		Points:         pts,
		Stats:          stats,
		Trace:          sp,
	}, nil
}

// seqScan is the sequential scan: one pass over every leaf of the
// snapshot, in z order, keeping the points inside the box, with its
// data pages and results counted on sp.
func seqScan(ctx context.Context, snap *core.IndexSnapshot, box Box, sp *Trace) ([]Point, core.SearchStats, error) {
	var pts []Point
	ss, err := snap.RangeSearchFuncCtx(ctx, geom.FullBox(snap.Grid()), nil, func(p Point) bool {
		if box.ContainsPoint(p.Coords) {
			pts = append(pts, p)
		}
		return true
	})
	sp.Add(CounterDataPages, int64(ss.DataPages))
	sp.Add(CounterResults, int64(len(pts)))
	return pts, core.SearchStats{DataPages: ss.DataPages, Results: len(pts)}, err
}
