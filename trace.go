package probe

import (
	"time"

	"probe/internal/obs"
)

// Trace is a hierarchical execution trace: a tree of named spans,
// each carrying a wall-clock duration and a set of typed counters
// (pages read, elements generated, pairs emitted, ...). Create one
// with NewTrace, pass it to a query via WithTrace, and inspect it
// afterwards with Render, Counters, or Children.
//
// A nil *Trace is a valid no-op: every method is safe to call on it
// and costs nothing (no allocations, no atomics). That is how the
// untraced fast path stays free.
type Trace = obs.Span

// A Counter identifies one typed counter on a Trace span (see the
// obs package for the full set).
type CounterID = obs.Counter

// Counter identifiers, re-exported for reading Trace counters via
// Get and Total.
const (
	// CounterElements counts decomposition elements generated.
	CounterElements = obs.Elements
	// CounterSeeks counts random accesses into the point sequence.
	CounterSeeks = obs.Seeks
	// CounterDataPages counts distinct leaf pages touched.
	CounterDataPages = obs.DataPages
	// CounterResults counts points reported.
	CounterResults = obs.Results
	// CounterNodeVisits counts internal B+-tree nodes crossed.
	CounterNodeVisits = obs.NodeVisits
	// CounterLeafScans counts leaf pages loaded (rescans included).
	CounterLeafScans = obs.LeafScans
	// CounterPoolGets/Hits/Misses/Evictions/WriteBacks count
	// buffer-pool activity attributed to the span.
	CounterPoolGets       = obs.PoolGets
	CounterPoolHits       = obs.PoolHits
	CounterPoolMisses     = obs.PoolMisses
	CounterPoolEvictions  = obs.PoolEvictions
	CounterPoolWriteBacks = obs.PoolWriteBacks
	// CounterPhysReads/Writes count physical page I/O attributed to
	// the span.
	CounterPhysReads  = obs.PhysReads
	CounterPhysWrites = obs.PhysWrites
	// CounterRawPairs and CounterDistinctPairs count join output
	// before and after the deduplicating projection.
	CounterRawPairs      = obs.RawPairs
	CounterDistinctPairs = obs.DistinctPairs
	// CounterMergeSteps counts items the join merge consumed.
	CounterMergeSteps = obs.MergeSteps
	// CounterItemsLeft and CounterItemsRight are join input sizes.
	CounterItemsLeft  = obs.ItemsLeft
	CounterItemsRight = obs.ItemsRight
)

// NewTrace creates the root span of a new execution trace.
func NewTrace(name string) *Trace { return obs.New(name) }

// NewSealedTrace creates a leaf span with a fixed, already-measured
// duration. A coordinator grafting externally-timed work — a backend
// call, a merge phase — into its own trace builds the grafted nodes
// this way.
func NewSealedTrace(name string, dur time.Duration) *Trace { return obs.NewSealed(name, dur) }

// DecodeTrace parses a canonical span-tree encoding back into a
// sealed Trace. Empty input decodes to nil; malformed input is
// rejected.
func DecodeTrace(b []byte) (*Trace, error) { return obs.DecodeSpan(b) }

// NewTraceID mints a nonzero random distributed-trace ID.
func NewTraceID() uint64 { return obs.NewTraceID() }

// TraceIDString renders a trace ID in the canonical 16-hex-digit form
// log lines and /debug/traces use, so IDs grep-correlate across every
// node a request touched.
func TraceIDString(id uint64) string { return obs.TraceIDString(id) }

// Metrics is an expvar-compatible registry of named cumulative
// counters: every DB operation bumps "<op>.count", and traced
// operations additionally merge their span counters under
// "<op>.<counter>". Registry.String renders the whole registry as a
// JSON object, and *Registry (like its individual Ints) satisfies
// expvar.Var, so it can be published with expvar.Publish.
type Metrics = obs.Registry
