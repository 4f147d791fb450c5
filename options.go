package probe

import (
	"context"

	"probe/internal/disk"
)

// This file defines the functional options accepted by the three
// variadic entry points of the redesigned API:
//
//	Open(g, ...Option)                  — database construction
//	DB.RangeSearch(box, ...QueryOption) — range queries
//	SpatialJoin(a, b, ...JoinOption)    — spatial joins

// openConfig is the resolved configuration of one Open call.
type openConfig struct {
	pageSize     int
	poolPages    int
	leafCapacity int
	bulk         []Point
	bulkSet      bool
	durPath      string
	fsys         disk.FS
	trace        *Trace
}

// Option configures Open.
type Option interface {
	applyOpen(*openConfig)
}

type openOptionFunc func(*openConfig)

func (f openOptionFunc) applyOpen(c *openConfig) { f(c) }

// WithPageSize sets the simulated disk page size in bytes [4096].
func WithPageSize(bytes int) Option {
	return openOptionFunc(func(c *openConfig) { c.pageSize = bytes })
}

// WithPoolPages sets the buffer pool capacity in pages [256].
func WithPoolPages(pages int) Option {
	return openOptionFunc(func(c *openConfig) { c.poolPages = pages })
}

// WithLeafCapacity caps points per index leaf page at a count that
// fits the page at full key width [derived: a leaf is bounded by its
// bytes at the width its keys need]. A durable database keeps the
// capacity it was created with; reopening it with another is an error.
func WithLeafCapacity(points int) Option {
	return openOptionFunc(func(c *openConfig) { c.leafCapacity = points })
}

// WithBulkLoad builds the index bottom-up from pts with fully packed
// pages (about 30% fewer data pages than one-at-a-time insertion).
func WithBulkLoad(pts []Point) Option {
	return openOptionFunc(func(c *openConfig) { c.bulk = pts; c.bulkSet = true })
}

// WithDurability places the database on a crash-safe paged store at
// path (write-ahead log at path+".wal") instead of the in-memory
// simulated disk. A fresh path creates the database; an existing one
// recovers it — including after a crash. Changes become durable at
// DB.Checkpoint (and DB.Close); a crash rolls back to the last
// checkpoint, never to a corrupt or partial state.
func WithDurability(path string) Option {
	return openOptionFunc(func(c *openConfig) { c.durPath = path })
}

// WithFS substitutes the filesystem a durable database lives on. The
// crash-recovery harness uses it to inject deterministic fault
// schedules (internal/disk/faultfs); production code leaves it alone.
func WithFS(fsys disk.FS) Option {
	return openOptionFunc(func(c *openConfig) { c.fsys = fsys })
}

// queryConfig is the resolved configuration of one range search.
type queryConfig struct {
	trace *Trace
	ctx   context.Context
}

// QueryOption configures DB.RangeSearch and the other point-query
// entry points.
type QueryOption interface {
	applyQuery(queryConfig) queryConfig
}

// queryOptions resolves a call's options. An option returns the config
// by value rather than writing through a pointer, so resolving them
// allocates nothing.
func queryOptions(opts []QueryOption) queryConfig {
	var qc queryConfig
	for _, o := range opts {
		qc = o.applyQuery(qc)
	}
	return qc
}

// joinConfig is the resolved configuration of one spatial join.
type joinConfig struct {
	workers    int
	prefixBits int
	parallel   bool
	trace      *Trace
	ctx        context.Context
}

// JoinOption configures SpatialJoin.
type JoinOption interface {
	applyJoin(*joinConfig)
}

type joinOptionFunc func(*joinConfig)

func (f joinOptionFunc) applyJoin(c *joinConfig) { f(c) }

// WithWorkers executes the join with a pool of n workers over
// z-prefix partitions of the inputs (see docs/parallelism.md);
// n <= 0 selects runtime.GOMAXPROCS. Without this option the join is
// sequential. The distinct pair set is identical either way.
func WithWorkers(n int) JoinOption {
	return joinOptionFunc(func(c *joinConfig) { c.workers = n; c.parallel = true })
}

// WithPartitionPrefix sets the z-prefix length at which a parallel
// join cuts the inputs into shards (up to 2^bits of them); zero or
// negative derives it from the worker count. It implies WithWorkers'
// parallel execution.
func WithPartitionPrefix(bits int) JoinOption {
	return joinOptionFunc(func(c *joinConfig) { c.prefixBits = bits; c.parallel = true })
}

// TraceOption attributes an operation's work to an execution trace.
// It satisfies both QueryOption and JoinOption, so one WithTrace call
// works for range searches and joins alike.
type TraceOption struct {
	t *Trace
}

// WithTrace attributes the operation's work to a child span of t:
// operator counters, buffer-pool activity, and physical I/O all land
// on the trace, and the returned QueryStats gains its attributed
// pool/phys fields. A nil t is valid and disables tracing.
func WithTrace(t *Trace) TraceOption { return TraceOption{t: t} }

func (o TraceOption) applyQuery(c queryConfig) queryConfig { c.trace = o.t; return c }

func (o TraceOption) applyJoin(c *joinConfig) { c.trace = o.t }

// applyOpen makes WithTrace an Option too: a durable Open attributes
// its recovery work (pages replayed from the log) to a child span.
func (o TraceOption) applyOpen(c *openConfig) { c.trace = o.t }

// ContextOption places an operation under a cancellation context. It
// satisfies both QueryOption and JoinOption, so one WithContext call
// works for range searches, proximity queries, and joins alike.
type ContextOption struct {
	ctx context.Context
}

// WithContext runs the operation under ctx: once the context is
// cancelled or its deadline passes, the operation stops promptly —
// the B+-tree cursor checks at every page-load boundary (so at most
// one further page is read), the decomposition cursor at every
// element generation, and the join merge every few hundred steps —
// and returns the context's error. Cancellation releases all latches
// and buffer-pool state as usual; the database remains fully usable.
//
// The context is checked as the operation enters the database — a
// read as it pins its snapshot (a traced one after first taking the
// database mutex), a writer right after acquiring that mutex — so an
// operation cancelled while still queued behind a writer returns
// without touching the index. A nil ctx is valid and means "never
// cancelled".
func WithContext(ctx context.Context) ContextOption { return ContextOption{ctx: ctx} }

func (o ContextOption) applyQuery(c queryConfig) queryConfig { c.ctx = o.ctx; return c }

func (o ContextOption) applyJoin(c *joinConfig) { c.ctx = o.ctx }
