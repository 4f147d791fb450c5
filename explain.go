package probe

import (
	"fmt"
	"strings"

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

// ExplainAnalyze plans a range query, executes the chosen plan with
// full tracing, and returns the plan alongside its actual counters:
// the estimated-versus-observed comparison the paper's Section 5 cost
// model invites. It accepts the same options as RangeSearch; a
// WithTrace option grafts the operator span onto the caller's trace
// instead of a fresh root.
func (db *DB) ExplainAnalyze(box Box, opts ...QueryOption) (*ExplainResult, error) {
	qc := queryOptions(opts)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.usableLocked(qc.ctx); err != nil {
		return nil, err
	}
	// Materialize the heap view of the index so the sequential-scan
	// plan is executable too — the planner may legitimately prefer it
	// for large boxes, and EXPLAIN ANALYZE must run whatever plan it
	// picks. (One untraced full pass; the pool state it leaves behind
	// is deterministic for a given database.)
	var heap []Point
	if _, err := db.index.RangeSearchFuncCtx(nil, geom.FullBox(db.grid), nil, func(p Point) bool {
		heap = append(heap, p)
		return true
	}); err != nil {
		return nil, err
	}
	tab := &planner.Table{Name: "db", Index: db.index, Heap: heap}
	plan, err := planner.PlanRange(tab, box, planner.Config{})
	if err != nil {
		return nil, err
	}
	root := qc.trace
	if root == nil {
		root = NewTrace("explain-analyze")
		defer root.End()
	}
	sp := db.beginOp(plan.Access, root)
	defer db.endOp(plan.Access, sp)
	pts, ss, err := plan.ExecuteTraced(sp)
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
