package probe

import (
	"fmt"
	"strings"

	"probe/internal/planner"
)

// ExplainResult is a plan-with-actuals: a range query's plan, the
// index scan, with its cost estimate, and the observed execution trace
// and statistics from actually running it — EXPLAIN ANALYZE for the
// paper's range queries.
type ExplainResult struct {
	// Plan is the planner's EXPLAIN line, estimate included.
	Plan string
	// EstimatedPages is the index's count of the data pages the scan
	// reads, made on the version the scan then reads.
	EstimatedPages int
	// Points is the query result.
	Points []Point
	// Stats are the unified actual counters, pool and physical I/O
	// attribution included.
	Stats QueryStats
	// Trace is the operator's execution span: its counters are the
	// per-operator actuals, and for traced sub-operators its children
	// break the work down.
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

// ExplainAnalyze plans a range query, runs its index scan as a traced
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
	snap, err := db.beginRead(qc.ctx)
	if err != nil {
		return nil, err
	}
	defer db.endRead(snap)
	plan, err := planner.PlanRange(&planner.Table{Name: "db", Index: snap}, box, planner.Config{})
	if err != nil {
		return nil, err
	}
	sp := root.Child(plan.Access)
	defer db.endOp(plan.Access, nil, sp)
	pts, stats, err := snap.RangeSearchCtx(qc.ctx, box, sp)
	if err != nil {
		return nil, err
	}
	return &ExplainResult{
		Plan:           plan.Description,
		EstimatedPages: plan.EstimatedPages,
		Points:         pts,
		Stats:          stats,
		Trace:          sp,
	}, nil
}
