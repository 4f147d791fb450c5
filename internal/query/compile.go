package query

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/planner"
	"probe/internal/relation"
	"probe/internal/zorder"
)

// Engine is the execution surface a compiled plan runs against. Both
// the database and a transaction implement it (probe's adapters), so
// one plan serves plain connections and QUERY-inside-BEGIN alike —
// a transaction engine answers from its snapshot plus its own writes.
type Engine interface {
	// Grid is the coordinate grid; it must match the grid the plan was
	// compiled against.
	Grid() zorder.Grid
	// Table is the planner's view of the index version the engine
	// reads, which prices a range query's index scan, or nil when
	// there is none to price (the cluster).
	Table() *planner.Table
	// RangeFunc streams every point in the box in z order; returning
	// false stops the scan early. A point's Coords may be a buffer the
	// next point reuses: fn copies what it keeps.
	RangeFunc(ctx context.Context, box geom.Box, fn func(geom.Point) bool) error
	// Join hands fn every pair of a region, by its index in regions,
	// and a point inside it, each region's points in z order: Section
	// 4's merge of the regions' elements against the points. A point's
	// Coords may be a buffer the next pair reuses.
	Join(ctx context.Context, regions []geom.Box, fn func(region int, pt geom.Point)) error
	// Nearest returns the k points nearest to q under the Euclidean
	// metric, sorted by distance.
	Nearest(ctx context.Context, q []uint32, k int) ([]core.Neighbor, error)
}

// TableName is the only table the language knows: the point index.
const TableName = "points"

type planMode int

const (
	modeScan planMode = iota
	modeNearest
	modeJoin
)

// Plan is a compiled, executable statement. A plan is bound to the
// grid it was compiled against but not to an engine: the same plan
// can run against the database or a transaction view.
type Plan struct {
	grid zorder.Grid
	sel  *Select

	mode    planMode
	scanBox geom.Box // modeScan: the folded index search box
	empty   bool     // WHERE bounds are contradictory: zero rows, no scan
	nearest *NearestPred
	regions []uint64   // modeJoin: the region relation's ids
	boxes   []geom.Box // modeJoin: and its boxes

	// A row in flight is one []uint64 cell per base column: ids as they
	// are, coordinates as int64 bits, dist as math.Float64bits. The
	// column's relation.Type says how to compare and box a cell.
	base     relation.Schema
	residual []Pred              // predicates applied after the base scan
	filter   func([]uint64) bool // compiled residual filter over base cells (nil when none)

	// A grouped plan folds rows into one record per group: the group
	// columns' cells, then one accumulator cell per aggregate.
	grouped  bool
	groupIdx []int // GROUP BY column positions in the base schema
	aggs     []relation.Agg
	aggIdx   []int // aggregate input positions in the base schema (unused for COUNT)

	out    relation.Schema
	outIdx []int // output column positions in the base row or the group record

	orderIdx  []int // ORDER BY key positions in the output schema
	orderDesc []bool

	streamable bool
}

// Columns returns the output schema.
func (p *Plan) Columns() relation.Schema { return p.out }

// coordNames names the coordinate columns: x, y, z, w for up to four
// dimensions, c0..cN beyond. The caller must not write the names.
func coordNames(dims int) []string {
	if dims <= 4 {
		return xyzw[:dims:dims]
	}
	names := make([]string, dims)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	return names
}

// Compile checks the statement against the grid and builds an
// executable plan. All failures are *Error with KindPlan.
func Compile(g zorder.Grid, sel *Select) (*Plan, error) {
	if sel.From != TableName {
		return nil, planErrf("unknown table %q (the point index is %q)", sel.From, TableName)
	}
	p := &Plan{grid: g, sel: sel}
	dims := g.Dims()

	// Classify the WHERE predicates.
	var boxPreds []*BoxPred
	var cmpPreds []*CmpPred
	for _, pred := range sel.Where {
		switch q := pred.(type) {
		case *BoxPred:
			if err := validBox(g, q.Box); err != nil {
				return nil, err
			}
			boxPreds = append(boxPreds, q)
		case *NearestPred:
			if p.nearest != nil {
				return nil, planErrf("at most one NEAREST predicate per query")
			}
			if len(q.Point.Coords) != dims {
				return nil, planErrf("NEAREST point has %d coordinates, grid has %d dimensions", len(q.Point.Coords), dims)
			}
			if !g.Valid(q.Point.Coords) {
				return nil, planErrf("NEAREST point %v outside the grid", q.Point.Coords)
			}
			p.nearest = q
		case *CmpPred:
			cmpPreds = append(cmpPreds, q)
		}
	}

	// Pick the mode and the base schema.
	switch {
	case sel.Join != nil:
		if p.nearest != nil {
			return nil, planErrf("NEAREST cannot be combined with JOIN")
		}
		p.mode = modeJoin
		n := len(sel.Join.Regions)
		seen := make(map[uint64]bool, n)
		p.regions, p.boxes = make([]uint64, 0, n), make([]geom.Box, 0, n)
		for _, r := range sel.Join.Regions {
			if err := validBox(g, r.Box); err != nil {
				return nil, err
			}
			if seen[r.ID] {
				return nil, planErrf("duplicate region id %d", r.ID)
			}
			seen[r.ID] = true
			p.regions = append(p.regions, r.ID)
			p.boxes = append(p.boxes, boxOf(r.Box))
		}
	case p.nearest != nil:
		p.mode = modeNearest
	default:
		p.mode = modeScan
	}
	p.base = baseSchema(g, p.mode)

	// Fold what the index can answer into the scan box; everything
	// else becomes a residual filter over base tuples.
	if p.mode == modeScan {
		p.foldScanBox(boxPreds, cmpPreds)
	} else {
		for _, bp := range boxPreds {
			p.residual = append(p.residual, bp)
		}
		for _, cp := range cmpPreds {
			p.residual = append(p.residual, cp)
		}
	}
	// Validate residual comparison columns against the base schema.
	for _, pred := range p.residual {
		if cp, ok := pred.(*CmpPred); ok {
			if p.base.Index(cp.Col) < 0 {
				return nil, planErrf("unknown column %q in WHERE (have %v)", cp.Col, p.base)
			}
		}
	}
	p.filter = p.compileFilter()

	if err := p.compileOutput(); err != nil {
		return nil, err
	}

	// ORDER BY references output columns.
	for _, k := range sel.OrderBy {
		j := p.out.Index(k.Col)
		if j < 0 {
			return nil, planErrf("ORDER BY column %q is not in the output (have %v)", k.Col, p.out)
		}
		p.orderIdx = append(p.orderIdx, j)
		p.orderDesc = append(p.orderDesc, k.Desc)
	}

	p.streamable = p.mode == modeScan && !sel.Distinct && !p.grouped &&
		len(sel.OrderBy) == 0
	return p, nil
}

// validBox checks a box literal's shape against the grid: one (lo,
// hi) pair per dimension, lo <= hi, inside the grid.
func validBox(g zorder.Grid, b BoxLit) error {
	if len(b.Bounds) != 2*g.Dims() {
		return planErrf("BOX has %d bounds, need %d (lo, hi per dimension)", len(b.Bounds), 2*g.Dims())
	}
	for d := 0; d < g.Dims(); d++ {
		lo, hi := b.Bounds[2*d], b.Bounds[2*d+1]
		if lo > hi {
			return planErrf("BOX dimension %d has lo %d > hi %d", d, lo, hi)
		}
		if uint64(hi) >= g.SideOf(d) {
			return planErrf("BOX dimension %d bound %d outside the grid (side %d)", d, hi, g.SideOf(d))
		}
	}
	return nil
}

func boxOf(b BoxLit) geom.Box {
	dims := len(b.Bounds) / 2
	lo := make([]uint32, dims)
	hi := make([]uint32, dims)
	for d := 0; d < dims; d++ {
		lo[d], hi[d] = b.Bounds[2*d], b.Bounds[2*d+1]
	}
	return geom.MustBox(lo, hi)
}

var xyzw = []string{"x", "y", "z", "w"}

// smallSchemas are the base schemas of every mode on grids of up to
// four dimensions, built once; a plan only reads its own.
var smallSchemas = func() (s [modeJoin + 1][5]relation.Schema) {
	for mode := range s {
		for dims := 1; dims <= 4; dims++ {
			s[mode][dims] = makeBaseSchema(dims, planMode(mode))
		}
	}
	return s
}()

func baseSchema(g zorder.Grid, mode planMode) relation.Schema {
	if g.Dims() <= 4 {
		return smallSchemas[mode][g.Dims()]
	}
	return makeBaseSchema(g.Dims(), mode)
}

func makeBaseSchema(dims int, mode planMode) relation.Schema {
	cols := make(relation.Schema, 0, dims+3)
	if mode == modeJoin {
		cols = append(cols, relation.Column{Name: "region", Type: relation.TID})
	}
	cols = append(cols, relation.Column{Name: "id", Type: relation.TID})
	for _, name := range coordNames(dims) {
		cols = append(cols, relation.Column{Name: name, Type: relation.TInt})
	}
	if mode == modeNearest {
		cols = append(cols, relation.Column{Name: "dist", Type: relation.TFloat})
	}
	return cols
}

// foldScanBox tightens the index search box with every box predicate
// and every foldable coordinate comparison; unfoldable comparisons
// (!=, non-coordinate columns) stay residual. Contradictory bounds
// mark the plan provably empty.
func (p *Plan) foldScanBox(boxPreds []*BoxPred, cmpPreds []*CmpPred) {
	dims := p.grid.Dims()
	var lo, hi [zorder.MaxBits]int64
	for d := 0; d < dims; d++ {
		hi[d] = int64(p.grid.SideOf(d)) - 1
	}
	for _, bp := range boxPreds {
		for d := 0; d < dims; d++ {
			lo[d] = max(lo[d], int64(bp.Box.Bounds[2*d]))
			hi[d] = min(hi[d], int64(bp.Box.Bounds[2*d+1]))
		}
	}
	names := coordNames(dims)
	for _, cp := range cmpPreds {
		d := slices.Index(names, cp.Col)
		if d < 0 || cp.Op == OpNe {
			p.residual = append(p.residual, cp)
			continue
		}
		switch cp.Op {
		case OpEq:
			lo[d] = max(lo[d], cp.Value)
			hi[d] = min(hi[d], cp.Value)
		case OpLt:
			if cp.Value == math.MinInt64 {
				// x < MinInt64 matches nothing; Value-1 would wrap
				// to MaxInt64 and silently drop the bound.
				p.empty = true
				return
			}
			hi[d] = min(hi[d], cp.Value-1)
		case OpLe:
			hi[d] = min(hi[d], cp.Value)
		case OpGt:
			if cp.Value == math.MaxInt64 {
				// x > MaxInt64 matches nothing; Value+1 would wrap
				// to MinInt64 and silently drop the bound.
				p.empty = true
				return
			}
			lo[d] = max(lo[d], cp.Value+1)
		case OpGe:
			lo[d] = max(lo[d], cp.Value)
		}
	}
	bounds := make([]uint32, 2*dims)
	for d := 0; d < dims; d++ {
		if lo[d] > hi[d] {
			p.empty = true
			return
		}
		bounds[d], bounds[dims+d] = uint32(lo[d]), uint32(hi[d])
	}
	p.scanBox = geom.Box{Lo: bounds[:dims:dims], Hi: bounds[dims:]}
}

// compileFilter builds one closure evaluating every residual
// predicate against a base row's cells.
func (p *Plan) compileFilter() func([]uint64) bool {
	if len(p.residual) == 0 {
		return nil
	}
	dims := p.grid.Dims()
	coordBase := p.base.Index(coordNames(dims)[0])
	var tests []func([]uint64) bool
	for _, pred := range p.residual {
		switch q := pred.(type) {
		case *BoxPred:
			box := boxOf(q.Box)
			tests = append(tests, func(row []uint64) bool {
				for d := 0; d < dims; d++ {
					if v := row[coordBase+d]; v < uint64(box.Lo[d]) || v > uint64(box.Hi[d]) {
						return false
					}
				}
				return true
			})
		case *CmpPred:
			j, op := p.base.Index(q.Col), q.Op
			typ := p.base[j].Type
			// The literal as a cell of the column's type (an id column
			// compares unsigned, as the literal's bits).
			lit := uint64(q.Value)
			if typ == relation.TFloat {
				lit = math.Float64bits(float64(q.Value))
			}
			tests = append(tests, func(row []uint64) bool {
				return op.holds(cmpCells(typ, row[j], lit))
			})
		}
	}
	return func(row []uint64) bool {
		for _, f := range tests {
			if !f(row) {
				return false
			}
		}
		return true
	}
}

// cmpCells orders two cells of one column type.
func cmpCells(t relation.Type, a, b uint64) int {
	switch t {
	case relation.TInt:
		return cmp.Compare(int64(a), int64(b))
	case relation.TFloat:
		return cmp.Compare(math.Float64frombits(a), math.Float64frombits(b))
	}
	return cmp.Compare(a, b)
}

// holds reports whether a comparison outcome c, as cmpCells returns
// it, satisfies the operator.
func (op CmpOp) holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// compileOutput resolves the select list into the output schema, the
// grouping spec, and the projection mapping.
func (p *Plan) compileOutput() error {
	sel := p.sel
	if sel.Star {
		if len(sel.GroupBy) > 0 {
			return planErrf("SELECT * cannot be combined with GROUP BY")
		}
		p.out = slices.Clone(p.base) // the caller's to keep; the base schema may be shared
		p.outIdx = make([]int, len(p.base))
		for i := range p.outIdx {
			p.outIdx[i] = i
		}
		return nil
	}
	hasAgg := false
	for _, it := range sel.Items {
		if it.Agg != AggNone {
			hasAgg = true
		}
	}
	p.grouped = hasAgg || len(sel.GroupBy) > 0
	if !p.grouped {
		cols := make([]relation.Column, len(sel.Items))
		p.outIdx = make([]int, len(sel.Items))
		for i, it := range sel.Items {
			j := p.base.Index(it.Col)
			if j < 0 {
				return planErrf("unknown column %q (have %v)", it.Col, p.base)
			}
			name := it.Col
			if it.As != "" {
				name = it.As
			}
			cols[i] = relation.Column{Name: name, Type: p.base[j].Type}
			p.outIdx[i] = j
		}
		out, err := relation.NewSchema(cols...)
		if err != nil {
			return planErrf("duplicate output column (rename with AS): %v", err)
		}
		p.out = out
		return nil
	}

	// Grouped (or globally aggregated) query: validate group columns,
	// then map each select item to its cell of the group record —
	// group columns first (in GROUP BY order), aggregates after.
	groupPos := make(map[string]int, len(sel.GroupBy))
	for _, col := range sel.GroupBy {
		j := p.base.Index(col)
		if j < 0 {
			return planErrf("unknown GROUP BY column %q (have %v)", col, p.base)
		}
		if _, dup := groupPos[col]; dup {
			return planErrf("duplicate GROUP BY column %q", col)
		}
		groupPos[col] = len(p.groupIdx)
		p.groupIdx = append(p.groupIdx, j)
	}
	cols := make([]relation.Column, len(sel.Items))
	p.outIdx = make([]int, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg == AggNone {
			gp, ok := groupPos[it.Col]
			if !ok {
				if p.base.Index(it.Col) < 0 {
					return planErrf("unknown column %q (have %v)", it.Col, p.base)
				}
				return planErrf("column %q must appear in GROUP BY or inside an aggregate", it.Col)
			}
			name := it.Col
			if it.As != "" {
				name = it.As
			}
			cols[i] = relation.Column{Name: name, Type: p.base[p.base.Index(it.Col)].Type}
			p.outIdx[i] = gp
			continue
		}
		typ, err := p.aggType(it)
		if err != nil {
			return err
		}
		name := it.As
		if name == "" {
			name = defaultAggName(it)
		}
		cols[i] = relation.Column{Name: name, Type: typ}
		p.outIdx[i] = len(sel.GroupBy) + len(p.aggs)
		p.aggs = append(p.aggs, relation.Agg{Func: aggFuncOf(it.Agg), Col: it.Col, As: name})
		p.aggIdx = append(p.aggIdx, max(p.base.Index(it.Col), 0)) // COUNT(*) reads no column
	}
	out, err := relation.NewSchema(cols...)
	if err != nil {
		return planErrf("duplicate output column (rename with AS): %v", err)
	}
	p.out = out
	return nil
}

// aggType validates an aggregate item and returns its output type.
func (p *Plan) aggType(it SelectItem) (relation.Type, error) {
	if it.Agg == AggCount {
		if it.Col != "*" && p.base.Index(it.Col) < 0 {
			return 0, planErrf("unknown column %q in COUNT (have %v)", it.Col, p.base)
		}
		return relation.TInt, nil
	}
	j := p.base.Index(it.Col)
	if j < 0 {
		return 0, planErrf("unknown column %q in %v (have %v)", it.Col, it.Agg, p.base)
	}
	typ := p.base[j].Type
	switch it.Agg {
	case AggSum:
		if typ != relation.TInt && typ != relation.TFloat {
			return 0, planErrf("SUM over %v column %q", typ, it.Col)
		}
	case AggMin, AggMax:
		if typ != relation.TInt && typ != relation.TFloat && typ != relation.TID {
			return 0, planErrf("%v over %v column %q", it.Agg, typ, it.Col)
		}
	}
	return typ, nil
}

func defaultAggName(it SelectItem) string {
	if it.Agg == AggCount {
		if it.Col == "*" {
			return "count"
		}
		return "count_" + it.Col
	}
	var f string
	switch it.Agg {
	case AggSum:
		f = "sum"
	case AggMin:
		f = "min"
	case AggMax:
		f = "max"
	}
	return f + "_" + it.Col
}

func aggFuncOf(a AggFunc) relation.AggFunc {
	switch a {
	case AggSum:
		return relation.Sum
	case AggMin:
		return relation.Min
	case AggMax:
		return relation.Max
	}
	return relation.Count
}

// Run executes the plan against the engine, streaming output tuples
// to emit; emit returning false stops the query early. Streamable
// plans (pure index scans without grouping, ordering or DISTINCT)
// pipe rows straight off the index merge, so a cancelled context or
// a false emit stops the scan within one page read. Grouped plans
// aggregate while they scan and retain one record per group; ORDER
// BY, DISTINCT, NEAREST and JOIN plans retain the surviving rows'
// cells. Values are boxed only for the rows emitted. An emitted row
// is the caller's to keep: rows of one run may share a backing array,
// and each is cut with its capacity clipped, so appending to one
// cannot overwrite its neighbour.
func (p *Plan) Run(ctx context.Context, eng Engine, emit func(relation.Tuple) bool) error {
	r := p.start()
	r.emitTuple = emit
	return r.exec(ctx, eng)
}

// Collect runs the plan to the end and returns its rows as Run would
// emit them, boxed once their number is known: one slice of tuples
// over one slab of values.
func (p *Plan) Collect(ctx context.Context, eng Engine) ([]relation.Tuple, error) {
	r := p.start()
	w := len(r.out)
	if p.sel.Limit > 0 {
		r.kept = make([]uint64, 0, w*int(min(p.sel.Limit, 1024)))
	}
	if err := r.exec(ctx, eng); err != nil || len(r.kept) == 0 {
		return nil, err
	}
	rows := make([]relation.Tuple, len(r.kept)/w)
	vals := make([]relation.Value, len(r.kept))
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
		p.box(rows[i], r.kept[i*w:])
	}
	return rows, nil
}

// run is one execution of a plan, its state in one allocation: the
// engine streams points into its feed method, and output rows leave
// through emit.
type run struct {
	p        *Plan
	limit    int64
	id       int      // the base row's id column; the coordinates follow it
	row, out []uint64 // the base row in flight, and the output row emitted
	rows     []uint64 // retained: w cells per surviving base row or per group
	key      []byte   // the map key of a group or of a DISTINCT row
	groupAt  map[string]int
	ar       arena
	// Run boxes each output row for emitTuple; Collect keeps its cells.
	emitTuple func(relation.Tuple) bool
	kept      []uint64
	buf       [16]uint64 // row and out, when they fit
}

func (p *Plan) start() *run {
	r := &run{p: p, limit: p.sel.Limit, id: p.base.Index("id")}
	nb, n := len(p.base), len(p.base)+len(p.outIdx)
	cells := r.buf[:]
	if n > len(cells) {
		cells = make([]uint64, n)
	}
	r.row, r.out = cells[:nb:nb], cells[nb:n]
	if len(p.groupIdx) > 0 {
		r.groupAt = map[string]int{} // a global aggregate has one group and needs none
	}
	return r
}

// exec feeds the plan's input to feed, which emits a streamable plan's
// rows as they come; an index scan stops when feed returns false.
// NEAREST and JOIN inputs are complete before the first row.
func (r *run) exec(ctx context.Context, eng Engine) error {
	p := r.p
	if p.empty || r.limit == 0 {
		return nil
	}
	switch p.mode {
	case modeNearest:
		nbs, err := eng.Nearest(ctx, p.nearest.Point.Coords, int(p.nearest.K))
		if err != nil {
			return err
		}
		for _, nb := range nbs {
			r.row[len(r.row)-1] = math.Float64bits(nb.Dist)
			r.feed(nb.Point)
		}
	case modeJoin:
		rows, err := p.join(ctx, eng)
		if err != nil {
			return err
		}
		if !p.grouped {
			r.rows = rows
			break
		}
		for w := len(p.base); len(rows) > 0; rows = rows[w:] {
			r.fold(rows[:w])
		}
	default:
		if err := eng.RangeFunc(ctx, p.scanBox, r.feed); err != nil || p.streamable {
			return err
		}
	}
	// DISTINCT keeps the first row of each projected value, ORDER BY
	// sorts what is left (stable, so ties stay in arrival order), and
	// only the rows inside LIMIT are emitted.
	w, rows := len(p.base), r.rows
	if p.grouped {
		w = len(p.groupIdx) + len(p.aggs)
	}
	order := make([]int, 0, len(rows)/w)
	var distinct map[string]struct{}
	if p.sel.Distinct {
		distinct = map[string]struct{}{}
	}
	for at := 0; at < len(rows); at += w {
		if distinct != nil {
			r.key = cellKey(r.key[:0], rows[at:], p.outIdx)
			if _, dup := distinct[string(r.key)]; dup {
				continue
			}
			distinct[string(r.key)] = struct{}{}
		}
		order = append(order, at)
	}
	if len(p.orderIdx) > 0 {
		slices.SortStableFunc(order, func(a, b int) int {
			for k, i := range p.orderIdx {
				c := cmpCells(p.out[i].Type, rows[a+p.outIdx[i]], rows[b+p.outIdx[i]])
				if p.orderDesc[k] {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
	}
	if r.limit >= 0 && int64(len(order)) > r.limit {
		order = order[:r.limit]
	}
	for _, at := range order {
		if !r.emit(rows[at:]) {
			break
		}
	}
	return nil
}

// feed copies a point into the base row and, if the row passes the
// residual filter, takes it: a streamable plan emits it, a grouped one
// folds it into its group, any other retains it.
func (r *run) feed(pt geom.Point) bool {
	p, row := r.p, r.row
	row[r.id] = pt.ID
	for d, c := range pt.Coords {
		row[r.id+1+d] = uint64(c)
	}
	switch {
	case p.filter != nil && !p.filter(row):
		return true
	case p.streamable:
		r.limit--
		return r.emit(row) && r.limit != 0
	case !p.grouped:
		r.rows = append(r.rows, row...)
	default:
		r.fold(row)
	}
	return true
}

// fold folds a base row that passed the filter into its group's
// record, starting the record when the group is new.
func (r *run) fold(row []uint64) {
	p := r.p
	at, seen := 0, len(r.rows) > 0
	if r.groupAt != nil {
		r.key = cellKey(r.key[:0], row, p.groupIdx)
		at, seen = r.groupAt[string(r.key)]
	}
	if seen {
		accs := r.rows[at+len(p.groupIdx):]
		for i, a := range p.aggs {
			j := p.aggIdx[i]
			accs[i] = foldAgg(a.Func, p.base[j].Type, accs[i], row[j])
		}
		return
	}
	if r.groupAt != nil {
		r.groupAt[string(r.key)] = len(r.rows)
	}
	for _, j := range p.groupIdx {
		r.rows = append(r.rows, row[j])
	}
	for i, a := range p.aggs {
		first := row[p.aggIdx[i]]
		if a.Func == relation.Count {
			first = 1
		}
		r.rows = append(r.rows, first)
	}
}

// emit projects a base row or group record to the output columns and
// hands the row on: boxed into a tuple cut from the arena for Run, as
// cells for Collect.
func (r *run) emit(row []uint64) bool {
	for i, j := range r.p.outIdx {
		r.out[i] = row[j]
	}
	if r.emitTuple == nil {
		r.kept = append(r.kept, r.out...)
		return true
	}
	t := r.ar.cut(len(r.out))
	r.p.box(t, r.out)
	return r.emitTuple(t)
}

// cellKey appends the bytes of the row's cells at idx to buf: the map
// key of a group or of a DISTINCT row.
func cellKey(buf []byte, row []uint64, idx []int) []byte {
	for _, j := range idx {
		buf = binary.LittleEndian.AppendUint64(buf, row[j])
	}
	return buf
}

// foldAgg folds the value v of a column of type t into the
// accumulator acc.
func foldAgg(f relation.AggFunc, t relation.Type, acc, v uint64) uint64 {
	switch f {
	case relation.Count:
		return acc + 1
	case relation.Sum:
		if t == relation.TFloat {
			return math.Float64bits(math.Float64frombits(acc) + math.Float64frombits(v))
		}
		return acc + v // two's complement: the bits of the int64 sum
	case relation.Min:
		if cmpCells(t, v, acc) < 0 {
			return v
		}
	case relation.Max:
		if cmpCells(t, v, acc) > 0 {
			return v
		}
	}
	return acc
}

// box boxes an output row's cells into t, one value per column.
func (p *Plan) box(t relation.Tuple, cells []uint64) {
	for i, c := range cells[:len(t)] {
		switch p.out[i].Type {
		case relation.TInt:
			t[i] = int64(c)
		case relation.TFloat:
			t[i] = math.Float64frombits(c)
		default:
			t[i] = c
		}
	}
}

// arena cuts emitted tuples from chunks of values, each with its
// capacity clipped. A chunk starts at one tuple and doubles up to 256,
// so a one-row answer pays for one row and a long answer an amortised
// share of an allocation per row.
type arena struct {
	free   []relation.Value
	tuples int // in the newest chunk
}

func (a *arena) cut(n int) relation.Tuple {
	if len(a.free) < n {
		a.tuples = min(2*a.tuples+1, 256)
		a.free = make([]relation.Value, a.tuples*n)
	}
	t := a.free[:n:n]
	a.free = a.free[n:]
	return t
}

// join runs the region join into one slab of base rows (region, id,
// coordinates), keeping only the rows that pass the residual filter,
// and returns them ordered by region and id, ties in z order.
func (p *Plan) join(ctx context.Context, eng Engine) ([]uint64, error) {
	w := len(p.base)
	var rows []uint64
	err := eng.Join(ctx, p.boxes, func(region int, pt geom.Point) {
		rows = append(rows, p.regions[region], pt.ID)
		for _, c := range pt.Coords {
			rows = append(rows, uint64(c))
		}
		if p.filter != nil && !p.filter(rows[len(rows)-w:]) {
			rows = rows[:len(rows)-w]
		}
	})
	if err != nil {
		return nil, err
	}
	order := make([]int, len(rows)/w) // offsets, sorted by (region, id), z order kept
	for i := range order {
		order[i] = i * w
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(rows[a], rows[b]), cmp.Compare(rows[a+1], rows[b+1]))
	})
	sorted := make([]uint64, 0, len(rows))
	for _, at := range order {
		sorted = append(sorted, rows[at:at+w]...)
	}
	return sorted, nil
}
