package probe

import (
	"context"

	"probe/internal/disk"
)

// This file defines the functional options accepted by the variadic
// entry points of the API:
//
//	Open(g, ...Option)                  — database construction
//	DB.RangeSearch(box, ...QueryOption) — range queries and the other reads
//	SpatialJoin(a, b, ...QueryOption)   — spatial joins

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

// QueryOption configures DB.RangeSearch, the other point-query entry
// points and SpatialJoin.
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

// TraceOption attributes an operation's work to an execution trace.
// It satisfies both QueryOption and Option, so one WithTrace call
// works for reads, joins and a durable Open alike.
type TraceOption struct {
	t *Trace
}

// WithTrace adds the operation's counts — the same its QueryStats are
// read from — to a child span of t. A nil t is valid and disables it.
func WithTrace(t *Trace) TraceOption { return TraceOption{t: t} }

func (o TraceOption) applyQuery(c queryConfig) queryConfig { c.trace = o.t; return c }

// applyOpen makes WithTrace an Option too: a durable Open attributes
// its recovery work (pages replayed from the log) to a child span.
func (o TraceOption) applyOpen(c *openConfig) { c.trace = o.t }

// ContextOption places an operation under a cancellation context. It
// is a QueryOption, so one WithContext call works for range searches,
// proximity queries, and joins alike.
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
