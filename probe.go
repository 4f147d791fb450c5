// Package probe is a spatial query processing library reproducing
// Orenstein's SIGMOD 1986 paper "Spatial Query Processing in an
// Object-Oriented Database System" (the PROBE project's approximate
// geometry).
//
// Spatial objects are approximated on a 2^d x ... x 2^d grid and
// decomposed into "elements" — the variable-length bitstrings
// produced by recursive splitting with bit interleaving (z order).
// Because elements relate only by containment or precedence, spatial
// queries reduce to merges of z-ordered sequences, which stock
// database machinery (a B+-tree plus an LRU buffer pool) executes
// efficiently.
//
// The package exposes the element object class of the paper's
// Section 4 (shuffle, unshuffle, decompose, precedes, contains), a
// paged point index with the range-search merge in its three
// optimization levels, the spatial join R[zr <> zs]S, and the
// Section 6 algorithms (polygon overlay, connected component
// labelling, CAD interference detection).
//
// Quick start:
//
//	g := probe.MustGrid(2, 10)                 // 1024 x 1024 space
//	db, _ := probe.Open(g)
//	db.Insert(probe.Pt2(1, 30, 40))
//	pts, stats, _ := db.RangeSearch(probe.Box2(0, 100, 0, 100))
//
// Every query entry point accepts functional options and returns the
// unified QueryStats record. To see how a query executed, attach a
// Trace (WithTrace) or ask for the full plan-with-actuals via
// DB.ExplainAnalyze.
package probe

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"probe/internal/btree"
	"probe/internal/conncomp"
	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/interfere"
	"probe/internal/obs"
	"probe/internal/overlay"
	"probe/internal/planner"
	"probe/internal/zorder"
)

// Re-exported fundamental types. See the internal packages'
// documentation for full method sets.
type (
	// Grid is a k-dimensional grid with d bits per dimension.
	Grid = zorder.Grid
	// Element is a z-value bitstring naming a splitting region.
	Element = zorder.Element
	// Box is an axis-parallel query box with inclusive bounds.
	Box = geom.Box
	// Point is an identified grid point.
	Point = geom.Point
	// Object is a spatial object exposing the Inside/Outside/Crosses
	// classification oracle that drives decomposition.
	Object = geom.Object
	// Polygon is a simple 2-d polygon object.
	Polygon = geom.Polygon
	// Vertex is a polygon vertex.
	Vertex = geom.Vertex
	// Disk is a k-dimensional ball object.
	Disk = geom.Disk
	// Raster is a bitmap-backed object (for precise grid data).
	Raster = geom.Raster
	// DecomposeOptions tunes decomposition resolution.
	DecomposeOptions = decompose.Options
	// Item is one element of a decomposed object relation.
	Item = core.Item
	// Pair is a pair of overlapping object ids from a spatial join.
	Pair = core.Pair
	// Component is one labelled connected component.
	Component = conncomp.Component
	// Part is a CAD part for interference detection.
	Part = interfere.Part
	// QueryStats is the statistics record every stats-returning entry
	// point yields, the relevant group filled: a range search the
	// search group, a join the join group. The buffer pool, physical
	// I/O and durability groups are the operation's own work, traced
	// or not; a trace (WithTrace) only receives the same counts.
	QueryStats = core.QueryStats
)

// NewGrid returns a grid with k dimensions and d bits per dimension
// (d <= 32, k*d <= 64).
func NewGrid(k, d int) (Grid, error) { return zorder.NewGrid(k, d) }

// MustGrid is NewGrid panicking on error.
func MustGrid(k, d int) Grid { return zorder.MustGrid(k, d) }

// NewGridAsym returns a grid with per-dimension resolutions (the
// generalization of the paper's equal-resolution assumption): e.g.
// NewGridAsym([]int{10, 10, 9}) is a 1024 x 1024 x 512 space.
func NewGridAsym(bits []int) (Grid, error) { return zorder.NewGridAsym(bits) }

// MustGridAsym is NewGridAsym panicking on error.
func MustGridAsym(bits ...int) Grid { return zorder.MustGridAsym(bits...) }

// NewBox builds a box from inclusive per-dimension bounds.
func NewBox(lo, hi []uint32) (Box, error) { return geom.NewBox(lo, hi) }

// Box2 builds a 2-d box.
func Box2(xlo, xhi, ylo, yhi uint32) Box { return geom.Box2(xlo, xhi, ylo, yhi) }

// Pt2 builds a 2-d point.
func Pt2(id uint64, x, y uint32) Point { return geom.Pt2(id, x, y) }

// Decompose approximates a spatial object as its z-ordered element
// sequence (the decompose operator of Section 4).
func Decompose(g Grid, obj Object, opts DecomposeOptions) ([]Element, error) {
	return decompose.Object(g, obj, opts)
}

// DecomposeBox decomposes a box at full resolution.
func DecomposeBox(g Grid, b Box) []Element { return decompose.Box(g, b) }

// Condense canonicalizes a z-ordered element sequence, merging
// complete sibling pairs.
func Condense(elems []Element) []Element { return decompose.Condense(elems) }

// SortItems sorts a decomposed relation into the z order the spatial
// join requires.
func SortItems(items []Item) { core.SortItems(items) }

// SpatialJoin computes R[zr <> zs]S over two z-sorted element
// relations with the stack-based merge, returning distinct overlapping
// object pairs. WithContext cancels it and WithTrace attributes its
// work to a "spatial-join" child span.
func SpatialJoin(a, b []Item, opts ...QueryOption) ([]Pair, QueryStats, error) {
	qc := queryOptions(opts)
	sp := qc.trace.Child("spatial-join")
	defer sp.End()
	return core.SpatialJoinDistinctCtx(qc.ctx, a, b, sp)
}

// Union, Intersect, Subtract and XOR are the polygon-overlay set
// operations on decomposed regions (Section 6).
func Union(a, b []Element) ([]Element, error)     { return overlay.Union(a, b) }
func Intersect(a, b []Element) ([]Element, error) { return overlay.Intersect(a, b) }
func Subtract(a, b []Element) ([]Element, error)  { return overlay.Subtract(a, b) }
func XOR(a, b []Element) ([]Element, error)       { return overlay.XOR(a, b) }

// Area returns the number of pixels a region covers.
func Area(g Grid, elems []Element) uint64 { return overlay.Area(g, elems) }

// LabelComponents labels the 4-connected components of a 2-d region
// and returns the components with their areas (Section 6).
func LabelComponents(g Grid, elems []Element) ([]Component, error) {
	res, err := conncomp.Label(g, elems)
	if err != nil {
		return nil, err
	}
	return res.Components, nil
}

// DetectInterference finds intersecting part pairs using a
// spatial-join broad phase and exact polygon refinement (Section 6).
// maxLen caps the decomposition resolution (0 = full).
func DetectInterference(g Grid, parts []Part, maxLen int) ([]interfere.Pair, interfere.Stats, error) {
	return interfere.Detect(g, parts, maxLen)
}

// DB is a spatial database over one grid: a z-ordered point index on
// simulated paged storage. DB is safe for concurrent use.
//
// The index is multi-versioned (see docs/mvcc.md). Every read —
// RangeSearch, RangeSearchFunc, PartialMatch, Nearest, Scan, a
// statement, Explain, ExplainAnalyze — takes one path: it pins a
// snapshot of the newest committed version and answers from that one
// state. Writers (Insert, InsertAll, Delete, DeleteBox) and
// maintenance (Checkpoint, DropCaches, Close) serialize on db.mu.
//
// A read never touches db.mu, so it neither blocks behind a writer nor
// delays one, and its streaming callback may read and write; while
// Close runs those nested calls fail with ErrClosed (docs/mvcc.md). The
// callback only keeps its version pinned, deferring page reclamation
// and briefly delaying Close. A trace (WithTrace) changes none of that:
// every read counts its work on counts of its own, which its B+-tree
// cursor hands to the pool with each page load, so every counter of a
// read (seeks, data pages, the paper's metric, elements, results, pool
// gets, hits and misses, the physical reads its misses cost) is its
// own, whatever runs beside it; a trace only receives them.
type DB struct {
	// mu serializes writers and maintenance.
	mu sync.Mutex
	// gate admits the read path, each read for its whole query; Close
	// shuts it after its final checkpoint and waits for the admitted
	// reads to leave, so the store is never released under a running
	// read.
	gate      readGate
	closeOnce sync.Once

	grid      Grid
	store     disk.Store
	rs        *disk.RecoverableStore // non-nil iff opened WithDurability
	key       storeKey               // rs's entry in openStores
	pool      *disk.Pool
	index     *core.Index
	metrics   *obs.Registry
	txMetrics *obs.Registry // transaction counters (probe_tx_*)
	ops       opCounts

	closed    bool // guarded by db.mu; the read path asks the gate
	recovered bool
	recovery  disk.RecoveryInfo
}

// Open creates a spatial database over grid g. With no options it is
// empty with default page size, pool capacity and leaf capacity;
// WithPageSize, WithPoolPages and WithLeafCapacity tune those, and
// WithBulkLoad builds the index bottom-up from an initial point set.
//
// By default the database lives on an in-memory simulated disk and
// vanishes with the process. WithDurability(path) places it on a
// crash-safe paged store instead: if path exists the database is
// recovered (grid and options must agree with what is on disk), and
// DB.Checkpoint/DB.Close bound what a crash can lose. See
// docs/durability.md.
func Open(g Grid, opts ...Option) (*DB, error) {
	cfg := openConfig{pageSize: disk.DefaultPageSize, poolPages: 256}
	for _, o := range opts {
		o.applyOpen(&cfg)
	}
	if cfg.durPath != "" {
		return openDurable(g, cfg)
	}
	store, err := disk.NewMemStore(cfg.pageSize)
	if err != nil {
		return nil, err
	}
	return newDB(g, store, cfg)
}

// newDB builds a database on a fresh store: a pool over it and the
// index, bulk-loaded from WithBulkLoad's points or empty. Open's
// in-memory path and a durable create share it.
func newDB(g Grid, store disk.Store, cfg openConfig) (*DB, error) {
	pool, err := disk.NewPool(store, cfg.poolPages, disk.LRU)
	if err != nil {
		return nil, err
	}
	ic := core.IndexConfig{LeafCapacity: cfg.leafCapacity}
	var ix *core.Index
	if cfg.bulkSet {
		ix, err = core.NewIndexBulk(pool, g, ic, cfg.bulk, 0)
	} else {
		ix, err = core.NewIndex(pool, g, ic)
	}
	if err != nil {
		return nil, err
	}
	return (&DB{grid: g, store: store, pool: pool, index: ix}).initMetrics(), nil
}

// opCounts are the "<op>.count" counters of the operations that run
// untraced, resolved once by initMetrics: a query bumps an atomic,
// where AddSpan(op, nil) built the name and took the registry lock.
type opCounts struct {
	rangeSearch, partialMatch, nearest, query, txCommit *obs.Int
}

func (db *DB) initMetrics() *DB {
	db.metrics, db.txMetrics = obs.NewRegistry(), newTxMetrics()
	db.ops = opCounts{
		rangeSearch:  db.metrics.Int("range-search.count"),
		partialMatch: db.metrics.Int("partial-match.count"),
		nearest:      db.metrics.Int("nearest.count"),
		query:        db.metrics.Int("query.count"),
		txCommit:     db.metrics.Int("tx-commit.count"),
	}
	return db
}

// ErrClosed is returned by every DB operation attempted after Close.
//
// The close-while-querying contract: writers serialize with Close on
// db.mu; every read is admitted through the read gate for its whole
// query, and Close shuts the gate and waits for the admitted reads
// before releasing the store. Either way Close never yanks the store
// out from under a running operation — it blocks until in-flight
// operations finish (cancel them first via WithContext for a prompt
// close), but for the reads whose callbacks it is called from, which
// release the store as they leave; and every operation that starts
// after Close marks the database closed fails with ErrClosed before
// touching the index or the store. The network server's drain sequence is built on exactly
// this contract.
var ErrClosed = errors.New("probe: database is closed")

// usableLocked verifies, under db.mu, that the database is open and
// the operation's context (nil = none) is still live; every writer
// calls it before touching the index. An operation cancelled while
// queued behind the mutex therefore fails here, without touching any
// pages.
func (db *DB) usableLocked(ctx context.Context) error {
	if db.closed {
		return ErrClosed
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// readGate admits reads until Close shuts it. Admission never waits:
// it is one compare-and-swap, so a read nested in another's callback is
// admitted or refused at once, never queued behind Close.
//
// Close counts itself as a read while it waits for the others, but for
// the own reads whose callbacks it runs inside (ownReads): those cannot
// leave before it returns. Once shut, the count only falls, so at most
// one leave finds only Close and its own reads left, and exactly one,
// the last, releases the store. The frames ownReads counts may belong
// to another database's reads: Close then waits for that many reads
// fewer, never for a read that cannot come.
type readGate struct {
	n       atomic.Int64  // admitted reads, plus gateShut and Close once shut
	left    int64         // the count when only Close and its own reads are left
	release func()        // releases the store
	drained chan struct{} // closed when the count falls to left
}

const gateShut = 1 << 62

// enter admits a read, reporting false once the gate is shut. An
// admitted read calls leave exactly once.
func (g *readGate) enter() bool {
	for {
		v := g.n.Load()
		if v >= gateShut {
			return false
		}
		if g.n.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// leave ends a read, or Close's wait, and reports whether it released
// the store.
func (g *readGate) leave() bool {
	v := g.n.Add(-1)
	switch {
	case v < gateShut:
	case v == gateShut+g.left:
		close(g.drained)
	case v == gateShut:
		g.release()
		return true
	}
	return false
}

// shut refuses every later read and returns once at most the own
// reads the caller runs inside are left. Whichever leaves last of the
// caller and those reads runs release; shut reports whether it did.
// It is called once.
func (g *readGate) shut(own int64, release func()) bool {
	g.left, g.release, g.drained = own+1, release, make(chan struct{})
	if g.n.Add(gateShut+1) > gateShut+g.left {
		<-g.drained
	}
	return g.leave()
}

// streamRead runs an admitted read's streaming range search, calling fn
// inside it. ownReads counts its frames.
func streamRead(ctx context.Context, snap *core.IndexSnapshot, box Box, sp *Trace, fn func(Point) bool) (QueryStats, error) {
	return snap.RangeSearchFuncCtx(ctx, box, sp, fn)
}

var streamReadName = runtime.FuncForPC(reflect.ValueOf(streamRead).Pointer()).Name()

// ownReads counts the admitted reads whose callbacks the calling
// goroutine runs inside: the frames of streamRead on its stack. The
// streaming reads are the only ones that call back while admitted.
func ownReads() (k int64) {
	pcs := make([]uintptr, 64)
	n := runtime.Callers(2, pcs)
	for ; n == len(pcs); n = runtime.Callers(2, pcs) {
		pcs = make([]uintptr, 2*len(pcs))
	}
	for frames, more := runtime.CallersFrames(pcs[:n]), true; more; {
		var f runtime.Frame
		if f, more = frames.Next(); f.Function == streamReadName {
			k++
		}
	}
	return k
}

// admitRead admits a read through the gate and checks its context;
// after a nil error the caller calls db.gate.leave exactly once.
func (db *DB) admitRead(ctx context.Context) error {
	if !db.gate.enter() {
		return ErrClosed
	}
	if ctx != nil && ctx.Err() != nil {
		db.gate.leave()
		return ctx.Err()
	}
	return nil
}

// endOp seals the operation span and folds the operation into the
// metrics registry: the "<op>.count" cumulative counter always bumps —
// on n, op's counter in db.ops, when the operation is untraced and has
// one — and span counters merge under "<op>.<counter>" when traced.
func (db *DB) endOp(op string, n *obs.Int, sp *Trace) {
	if sp == nil && n != nil {
		n.Add(1)
		return
	}
	sp.End()
	db.metrics.AddSpan(op, sp)
}

// beginRead enters the read path, traced or not: it is admitted
// through the gate (admitRead) and pins the newest committed index
// version by value in a recycled scratch (core.Index.Pin). The caller
// runs its query on the snapshot, one search at a time, and calls
// endRead exactly once.
func (db *DB) beginRead(ctx context.Context) (*core.IndexSnapshot, error) {
	if err := db.admitRead(ctx); err != nil {
		return nil, err
	}
	return db.index.Pin(), nil
}

// endRead ends what beginRead began.
func (db *DB) endRead(snap *core.IndexSnapshot) {
	snap.Release()
	db.gate.leave()
}

// Metrics returns the database's cumulative metrics registry. Every
// operation bumps "<op>.count"; traced operations additionally merge
// their span counters under "<op>.<counter>". The registry and its
// individual counters satisfy expvar.Var, so they can be published
// with expvar.Publish for scraping.
func (db *DB) Metrics() *Metrics { return db.metrics }

// PoolInfo describes the buffer pool's occupancy at one instant: its
// fixed capacity and how many frames are resident. Scrape-time state
// for monitoring (the admin endpoint exports it as gauges).
type PoolInfo struct {
	Capacity int // frames the pool may hold
	Resident int // frames currently held
}

// PoolInfo snapshots the buffer pool's occupancy. Zero after Close.
func (db *DB) PoolInfo() PoolInfo {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return PoolInfo{}
	}
	return PoolInfo{
		Capacity: db.pool.Capacity(),
		Resident: db.pool.Resident(),
	}
}

// MVCCStats re-exports the index tree's multi-version counters: the
// committed version sequence number, pinned snapshots, retained
// superseded versions/pages awaiting garbage collection, and pages
// freed so far. Scrape-time state for monitoring (the admin endpoint
// exports the gauges). Zero after Close.
type MVCCStats = btree.MVCCStats

// MVCCStats snapshots the index's multi-version state.
func (db *DB) MVCCStats() MVCCStats {
	if !db.gate.enter() {
		return MVCCStats{}
	}
	defer db.gate.leave()
	return db.index.Tree().MVCCStats()
}

// Grid returns the database's grid.
func (db *DB) Grid() Grid { return db.grid }

// Len returns the number of indexed points (0 after Close). It reads
// the newest committed version and never blocks behind a writer.
func (db *DB) Len() int {
	if !db.gate.enter() {
		return 0
	}
	defer db.gate.leave()
	return db.index.Len()
}

// Insert adds a point; (pixel, id) pairs must be unique. It is a
// one-shot auto-commit transaction: equivalent to an Update whose
// closure buffers a single insertion, committed before Insert
// returns. Multi-statement work should use Update/Begin directly.
func (db *DB) Insert(p Point) error {
	return db.updateAuto(nil, func(tx *Tx) error { return tx.Insert(p) })
}

// InsertAll adds many points as one auto-commit transaction: either
// every point is inserted and published as one atomic commit, or —
// on the first error — none are.
func (db *DB) InsertAll(pts []Point) error {
	return db.updateAuto(nil, func(tx *Tx) error { return tx.InsertAll(pts) })
}

// Delete removes a point, reporting whether it was present. Like
// Insert it is a one-shot auto-commit transaction.
func (db *DB) Delete(p Point) (bool, error) {
	var found bool
	err := db.updateAuto(nil, func(tx *Tx) error {
		var err error
		found, err = tx.Delete(p)
		return err
	})
	return found, err
}

// DeleteBox removes every point inside the box, returning how many
// were deleted. It is one auto-commit transaction: the search and
// all deletions observe and publish one consistent state — either
// every point in the box is removed or, on error, none are.
func (db *DB) DeleteBox(box Box) (int, error) {
	var n int
	err := db.updateAuto(nil, func(tx *Tx) error {
		var err error
		n, err = tx.DeleteBox(box)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// RangeSearch returns all points inside the box, found by the lazy
// merge of Section 3.3: the box's elements are generated on demand
// against the z-ordered point sequence. WithTrace attributes the
// query's work — operator counters, buffer-pool activity, physical
// I/O — to an execution trace.
func (db *DB) RangeSearch(box Box, opts ...QueryOption) ([]Point, QueryStats, error) {
	qc := queryOptions(opts)
	snap, err := db.beginRead(qc.ctx)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer db.endRead(snap)
	sp := qc.trace.Child("range-search")
	defer db.endOp("range-search", db.ops.rangeSearch, sp)
	return snap.RangeSearchCtx(qc.ctx, box, sp)
}

// RangeSearchFunc streams every point inside the box to fn in z
// order, without materializing the result; returning false from fn
// stops the search early (with a nil error). It accepts the same
// options as RangeSearch — in particular WithContext, which makes it
// the entry point the network server streams large range searches
// through: result batches go out as the merge produces them, and a
// client cancel stops the merge within one page read.
func (db *DB) RangeSearchFunc(box Box, fn func(Point) bool, opts ...QueryOption) (QueryStats, error) {
	qc := queryOptions(opts)
	snap, err := db.beginRead(qc.ctx)
	if err != nil {
		return QueryStats{}, err
	}
	defer db.endRead(snap)
	sp := qc.trace.Child("range-search")
	defer db.endOp("range-search", db.ops.rangeSearch, sp)
	return streamRead(qc.ctx, snap, box, sp, fn)
}

// PartialMatch pins the restricted dimensions to the given values and
// leaves the rest unconstrained. It accepts the same options as
// RangeSearch.
func (db *DB) PartialMatch(restricted []bool, value []uint32, opts ...QueryOption) ([]Point, QueryStats, error) {
	qc := queryOptions(opts)
	snap, err := db.beginRead(qc.ctx)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer db.endRead(snap)
	sp := qc.trace.Child("partial-match")
	defer db.endOp("partial-match", db.ops.partialMatch, sp)
	return snap.PartialMatchCtx(qc.ctx, restricted, value, sp)
}

// LeafPages returns the number of data pages in the index (0 after
// Close). It reads the newest committed version and never blocks
// behind a writer.
func (db *DB) LeafPages() int {
	if !db.gate.enter() {
		return 0
	}
	defer db.gate.leave()
	return db.index.Tree().LeafPages()
}

// Scan streams every indexed point in z order to fn; returning false
// stops the scan. This is the sequential access over the point
// sequence P that all the merge algorithms build on. Scan runs on a
// pinned snapshot: it streams one consistent committed state however
// many writes land while it runs.
func (db *DB) Scan(fn func(Point) bool) error {
	snap, err := db.beginRead(nil)
	if err != nil {
		return err
	}
	defer db.endRead(snap)
	_, err = streamRead(nil, snap, geom.FullBox(db.grid), nil, fn)
	return err
}

// DropCaches empties the buffer pool so subsequent page-access counts
// are cold.
func (db *DB) DropCaches() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.usableLocked(nil); err != nil {
		return err
	}
	return db.pool.Invalidate()
}

// IOStats returns the physical read/write counters of the simulated
// disk. It takes no DB mutex by design: MemStore guards its counters
// with its own lock, so the read is safe against concurrent
// operations, and skipping db.mu lets monitoring sample I/O while a
// long query holds the database lock (the same contract as
// disk.Pool.Stats). The snapshot may interleave with an in-flight
// operation's writes; counters never tear.
func (db *DB) IOStats() disk.IOStats { return db.store.Stats() }

// ResetIOStats zeroes the physical I/O counters. Like IOStats it
// relies on MemStore's own lock rather than db.mu, so a reset
// concurrent with a running operation yields counts attributable to
// neither before nor after — reset on an idle database when exact
// accounting matters.
func (db *DB) ResetIOStats() { db.store.ResetStats() }

// Index exposes the underlying index for advanced use (experiment
// harnesses, custom merges).
func (db *DB) Index() *core.Index { return db.index }

// Explain describes a range query's plan, the index scan, with the
// index's page estimate, without running it. It is an untraced read:
// it prices the version it pins and never waits behind a writer.
func (db *DB) Explain(box Box) (string, error) {
	snap, err := db.beginRead(nil)
	if err != nil {
		return "", err
	}
	defer db.endRead(snap)
	plan, err := planner.PlanRange(&planner.Table{Name: "db", Index: snap}, box, planner.Config{})
	if err != nil {
		return "", err
	}
	return plan.Description, nil
}

// Metric selects the distance for nearest-neighbor queries.
type Metric = core.Metric

// Neighbor is one nearest-neighbor result.
type Neighbor = core.Neighbor

// Nearest-neighbor metrics.
const (
	// Chebyshev is the L-infinity metric.
	Chebyshev = core.Chebyshev
	// Euclidean is the L2 metric.
	Euclidean = core.Euclidean
)

// Nearest returns the m indexed points nearest to q under the metric,
// implemented as expanding range queries (the Section 6 translation
// of proximity queries into overlap queries). It accepts the same
// options as RangeSearch. Every expansion round runs on the one pinned
// snapshot, so the certified radius is sound even against concurrent
// inserts.
func (db *DB) Nearest(q []uint32, m int, metric Metric, opts ...QueryOption) ([]Neighbor, QueryStats, error) {
	qc := queryOptions(opts)
	snap, err := db.beginRead(qc.ctx)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer db.endRead(snap)
	sp := qc.trace.Child("nearest")
	defer db.endOp("nearest", db.ops.nearest, sp)
	return snap.NearestCtx(qc.ctx, q, m, metric, sp)
}

// ContainsRegion reports whether region a covers every pixel of
// region b.
func ContainsRegion(a, b []Element) (bool, error) { return overlay.ContainsRegion(a, b) }
