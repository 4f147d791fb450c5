package router

import (
	"context"

	"probe"
	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/planner"
	"probe/internal/query"
	"probe/internal/session"
	"probe/internal/zorder"
)

// clusterStmt is a statement parsed and compiled router-side; it runs
// its plan over a clusterEngine, so every plan shape — streaming
// scans, aggregates, DISTINCT, GROUP BY, ORDER, LIMIT — produces
// exactly the rows a single node would.
type clusterStmt struct {
	r    *Router
	stmt *query.Statement
	plan *query.Plan
}

// Prepare parses and compiles the statement against the cluster grid.
func (r *Router) Prepare(text string) (session.Stmt, error) {
	stmt, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	plan, err := query.Compile(r.Grid(), stmt.Select)
	if err != nil {
		return nil, err
	}
	return &clusterStmt{r: r, stmt: stmt, plan: plan}, nil
}

func (s *clusterStmt) IsExplain() bool              { return s.stmt.Explain }
func (s *clusterStmt) Columns() []probe.QueryColumn { return s.plan.Columns() }

func (s *clusterStmt) ExplainText(ctx context.Context) (string, error) {
	return s.plan.ExplainText(&clusterEngine{r: s.r}), nil
}

func (s *clusterStmt) Run(ctx context.Context, fn func(probe.QueryRow) bool) (probe.QueryStats, error) {
	eng := &clusterEngine{r: s.r}
	err := s.plan.Run(ctx, eng, func(row probe.QueryRow) bool {
		eng.stats.Results++
		return fn(row)
	})
	return eng.stats, err
}

// clusterEngine adapts the router's scatter-gather primitives to
// query.Engine, so parsed statements compile and run router-side
// exactly as they do on a single node: the plan's operators
// (projection, predicates, aggregates, DISTINCT, GROUP BY, LIMIT)
// execute over the gathered global streams, which arrive in the same
// (z, id) order a single node produces. Table() is nil — the planner
// has no cluster-wide cost model, so a range query takes the index
// scan, as in a transaction view.
type clusterEngine struct {
	r     *Router
	stats probe.QueryStats
}

var _ query.Engine = (*clusterEngine)(nil)

func (e *clusterEngine) Grid() zorder.Grid     { return e.r.Grid() }
func (e *clusterEngine) Table() *planner.Table { return nil }

func (e *clusterEngine) RangeFunc(ctx context.Context, box geom.Box, fn func(geom.Point) bool) error {
	qs, err := e.r.Range(ctx, box, fn)
	e.stats.Add(qs)
	return err
}

// Join runs one scatter-gather range query per region: the router
// holds no index to merge the regions' items against.
func (e *clusterEngine) Join(ctx context.Context, regions []geom.Box, fn func(int, geom.Point)) error {
	for i, box := range regions {
		if err := e.RangeFunc(ctx, box, func(pt geom.Point) bool { fn(i, pt); return true }); err != nil {
			return err
		}
	}
	return nil
}

func (e *clusterEngine) Nearest(ctx context.Context, q []uint32, k int) ([]core.Neighbor, error) {
	nbs, qs, err := e.r.Nearest(ctx, q, k, probe.Euclidean)
	e.stats.Add(qs)
	return nbs, err
}
