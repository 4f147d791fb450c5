package probe

import (
	"context"

	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/planner"
	"probe/internal/query"
	"probe/internal/relation"
	"probe/internal/zorder"
)

// This file is the public face of the spatial query language
// (internal/query): Prepare/Query on DB and Tx, the prepared Stmt,
// and the re-exported result vocabulary. The language itself —
// grammar, typed errors, compilation — lives in internal/query;
// docs/query.md is the reference.

// Re-exported query-language types. A query result is a schema
// (columns) plus rows of typed values.
type (
	// QueryError is the typed error every malformed or unplannable
	// statement returns; Kind distinguishes parse from plan failures.
	QueryError = query.Error
	// QueryErrorKind is the failure class of a QueryError.
	QueryErrorKind = query.ErrorKind
	// QueryColumn is one column of a result schema.
	QueryColumn = relation.Column
	// QueryRow is one result row; values align with the columns.
	QueryRow = relation.Tuple
	// QueryValue is one typed cell: uint64 (ColID), int64 (ColInt),
	// float64 (ColFloat) or string (ColString).
	QueryValue = relation.Value
	// ColumnType is the type tag of a QueryColumn.
	ColumnType = relation.Type
)

// Query error kinds.
const (
	// QueryParseError marks lexical/syntactic failures.
	QueryParseError = query.KindParse
	// QueryPlanError marks semantic failures: the statement parsed but
	// cannot run against this database.
	QueryPlanError = query.KindPlan
)

// Column types a query result can carry.
const (
	ColID     = relation.TID
	ColInt    = relation.TInt
	ColFloat  = relation.TFloat
	ColString = relation.TString
)

// Stmt is a prepared statement: parsed, compiled against the
// database's grid, and bound to the DB or Tx that prepared it. A Stmt
// is immutable after Prepare and safe for concurrent Run calls (each
// run acquires its own engine view).
type Stmt struct {
	text   string
	parsed *query.Statement
	plan   *query.Plan
	binder engineBinder
}

// engineBinder acquires the execution engine of one statement run:
// a DB pins one index snapshot for the whole statement, a Tx lends its
// own, which carries its writes.
type engineBinder interface {
	bindEngine(ctx context.Context) (*stmtEngine, error)
}

// Prepare parses and compiles one spatial SQL statement against the
// database. Failures are *QueryError: parse errors carry the byte
// offset, plan errors the semantic complaint. The returned statement
// runs on a snapshot pinned per Run call, so it may be kept and
// re-run; each run observes the newest committed state.
func (db *DB) Prepare(text string) (*Stmt, error) {
	return prepare(db.grid, text, db)
}

// Prepare parses and compiles one statement against the transaction:
// runs observe the transaction's snapshot plus its own buffered
// writes.
func (tx *Tx) Prepare(text string) (*Stmt, error) {
	return prepare(tx.db.grid, text, tx)
}

func prepare(g Grid, text string, b engineBinder) (*Stmt, error) {
	st, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	plan, err := query.Compile(g, st.Select)
	if err != nil {
		return nil, err
	}
	return &Stmt{text: text, parsed: st, plan: plan, binder: b}, nil
}

// Text returns the statement's original text.
func (s *Stmt) Text() string { return s.text }

// IsExplain reports whether the statement is an EXPLAIN. Run executes
// the underlying SELECT regardless; callers that honor EXPLAIN check
// this first and call ExplainText instead.
func (s *Stmt) IsExplain() bool { return s.parsed.Explain }

// Columns returns the result schema of the underlying SELECT.
func (s *Stmt) Columns() []QueryColumn { return s.plan.Columns() }

// ExplainText renders the plan as an indented operator tree, the
// access-path leaf last, with the planner's page estimate where a cost
// model applies.
func (s *Stmt) ExplainText(ctx context.Context) (string, error) {
	eng, err := s.binder.bindEngine(ctx)
	if err != nil {
		return "", err
	}
	defer eng.release()
	return s.plan.ExplainText(eng), nil
}

// Run executes the statement's SELECT, streaming rows to fn in plan
// order; fn returning false stops the query early. Streamable plans
// (pure index scans) deliver rows as the index merge produces them, so
// a cancelled ctx or false fn stops within about one page read; plans
// that need the whole input (aggregates, ORDER BY, DISTINCT, JOIN,
// NEAREST) finish their scan first. A row is the caller's to keep:
// rows of one run may share a backing array, and each is cut with its
// capacity clipped, so appending to one cannot overwrite its
// neighbour. The returned stats accumulate every index scan the plan
// issued; Results counts the rows delivered.
func (s *Stmt) Run(ctx context.Context, fn func(QueryRow) bool) (QueryStats, error) {
	eng, err := s.binder.bindEngine(ctx)
	if err != nil {
		return QueryStats{}, err
	}
	defer eng.release()
	rows := 0
	err = s.plan.Run(ctx, eng, func(t relation.Tuple) bool {
		rows++
		return fn(t)
	})
	stats := eng.qs
	stats.Results = rows
	return stats, err
}

// QueryResult is a fully materialized statement result. For EXPLAIN
// statements Explain holds the plan rendering and Rows is nil; for
// SELECT statements Explain is empty.
type QueryResult struct {
	Columns []QueryColumn
	Rows    []QueryRow
	Explain string
	Stats   QueryStats
}

// Query parses, compiles and executes one spatial SQL statement
// against the newest committed database state, materializing the
// result. It is the one-call convenience over Prepare + Run; use
// Prepare and Stmt.Run to stream large results. WHERE bounds are
// answered by one pinned index snapshot, so concurrent writers
// neither block nor distort the result.
func (db *DB) Query(ctx context.Context, text string) (*QueryResult, error) {
	s, err := db.Prepare(text)
	if err != nil {
		return nil, err
	}
	return s.result(ctx)
}

// Query parses, compiles and executes one statement against the
// transaction's view: its snapshot plus its own buffered writes.
func (tx *Tx) Query(ctx context.Context, text string) (*QueryResult, error) {
	s, err := tx.Prepare(text)
	if err != nil {
		return nil, err
	}
	return s.result(ctx)
}

// result materializes the statement: EXPLAIN renders, SELECT runs and
// its rows are boxed once their number is known (query.Plan.Collect).
func (s *Stmt) result(ctx context.Context) (*QueryResult, error) {
	res := &QueryResult{Columns: s.Columns()}
	if s.IsExplain() {
		text, err := s.ExplainText(ctx)
		if err != nil {
			return nil, err
		}
		res.Explain = text
		return res, nil
	}
	eng, err := s.binder.bindEngine(ctx)
	if err != nil {
		return nil, err
	}
	defer eng.release()
	if res.Rows, err = s.plan.Collect(ctx, eng); err != nil {
		return nil, err
	}
	res.Stats = eng.qs
	res.Stats.Results = len(res.Rows)
	return res, nil
}

// bindEngine (DB) enters the read path, untraced: the whole statement
// — every scan a join or multi-predicate plan issues — runs against
// one pinned version of the index, which prices EXPLAIN's index scan.
// The engine is the run's one allocation: the pin lives in the scratch
// it borrows.
func (db *DB) bindEngine(ctx context.Context) (*stmtEngine, error) {
	snap, err := db.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	return &stmtEngine{db: db, snap: snap, table: planner.Table{Name: query.TableName, Index: snap}}, nil
}

// bindEngine (Tx) enters a transaction statement as the transaction's
// own reads do (Tx.begin), holding the database open until release:
// the plan reads the transaction's snapshot, its writes applied, and
// EXPLAIN prices the index scan on the snapshot's pages. A nil ctx
// falls back to the transaction's own, here and in every scan.
func (tx *Tx) bindEngine(ctx context.Context) (*stmtEngine, error) {
	e := &stmtEngine{db: tx.db, tx: tx, snap: tx.snap, ctx: tx.ctx, table: planner.Table{Name: query.TableName, Index: tx.snap}}
	if err := tx.begin(e.context(ctx)); err != nil {
		return nil, err
	}
	return e, nil
}

// stmtEngine runs a statement's plan against one index snapshot: a
// DB's pinned version, or a transaction's with its writes.
type stmtEngine struct {
	db    *DB
	tx    *Tx // nil on a DB statement
	snap  *core.IndexSnapshot
	ctx   context.Context // a transaction's own, for a scan given none
	table planner.Table
	qs    QueryStats
}

func (e *stmtEngine) Grid() zorder.Grid     { return e.db.grid }
func (e *stmtEngine) Table() *planner.Table { return &e.table }

func (e *stmtEngine) context(ctx context.Context) context.Context {
	if ctx == nil {
		return e.ctx
	}
	return ctx
}

// release ends the run: a DB statement unpins its version, a
// transaction's leaves its snapshot to the transaction.
func (e *stmtEngine) release() {
	if e.tx != nil {
		e.db.gate.leave()
		return
	}
	e.db.endRead(e.snap)
	e.db.ops.query.Add(1)
}

// RangeFunc streams through one reused coordinate buffer, as the
// Engine contract allows: the plan copies each point into its cells.
func (e *stmtEngine) RangeFunc(ctx context.Context, box geom.Box, fn func(geom.Point) bool) error {
	ss, err := e.snap.RangeScanCtx(e.context(ctx), box, fn)
	e.qs.Add(ss)
	return err
}

// Join runs the one merge of the regions' elements against the
// snapshot, which hands each region its points in z order.
func (e *stmtEngine) Join(ctx context.Context, regions []geom.Box, fn func(int, geom.Point)) error {
	ss, err := e.snap.JoinScanCtx(e.context(ctx), regions, fn)
	e.qs.Add(ss)
	return err
}

func (e *stmtEngine) Nearest(ctx context.Context, q []uint32, k int) ([]core.Neighbor, error) {
	nbs, ss, err := e.snap.NearestCtx(e.context(ctx), q, k, core.Euclidean, nil)
	e.qs.Add(ss)
	return nbs, err
}
