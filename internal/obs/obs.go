// Package obs is the observability layer under every query operator:
// a lightweight hierarchical tracing and metrics facility. The
// paper's entire experimental argument (Section 5) is made in counted
// work — page accesses, elements generated, merge steps — so every
// read counts its work into a Counts array, from which its QueryStats
// are read and which a traced read adds to its span.
//
// A Span is one node of a per-query trace tree: it carries a
// monotonic start time, a duration sealed by End, and a fixed array
// of typed counters (see Counter). Counters are atomics, so many
// goroutines may Add to one span or to sibling child spans without
// external locking. The whole API is nil-tolerant: every method on a
// nil *Span is a no-op (or zero) that allocates nothing
// (TestNoopSpanAllocs, BenchmarkNoopSpan).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one typed work counter of a span. The set is the
// union of the work measures the paper reports (pages accessed,
// elements generated, merge steps) and the ones the implementation
// adds around them (buffer pool and physical I/O attribution, B+-tree
// traversal work, durability).
type Counter uint8

const (
	// Elements counts decomposition elements generated or consumed
	// (the paper's sequence-B records).
	Elements Counter = iota
	// BigMinSkips is retired: strategy C's pixels count as Elements,
	// which the merge counts for every strategy. It stays reserved so
	// the later ids keep their numbers in the TRACE codec.
	BigMinSkips
	// Seeks counts random accesses into the point sequence.
	Seeks
	// DataPages counts distinct leaf pages touched by one operator.
	DataPages
	// Results counts rows an operator reported.
	Results
	// NodeVisits counts internal B+-tree nodes visited on descents.
	NodeVisits
	// LeafScans counts leaf-page loads (including rescans, unlike
	// DataPages which is distinct).
	LeafScans
	// PoolGets/PoolHits/PoolMisses/PoolEvictions are buffer-pool
	// accesses attributed to the span.
	PoolGets
	PoolHits
	PoolMisses
	PoolEvictions
	// PoolWriteBacks is retired: the pool writes no page back, so
	// nothing adds to it. It stays reserved so the later ids keep their
	// numbers in the TRACE codec.
	PoolWriteBacks
	// PhysReads/PhysWrites are physical page transfers attributed to
	// the span.
	PhysReads
	PhysWrites
	// ItemsLeft/ItemsRight count join input items.
	ItemsLeft
	ItemsRight
	// RawPairs counts pairs emitted by the merge before the
	// deduplicating projection; DistinctPairs after it.
	RawPairs
	DistinctPairs
	// MergeSteps counts items consumed by the join merge loop.
	MergeSteps
	// ReplicatedItems and Shards are retired: they described a
	// parallel join that no longer exists, and no operator adds to
	// them. They stay reserved so the later ids keep their numbers in
	// the TRACE codec.
	ReplicatedItems
	Shards
	// WALAppends/WALSyncs count write-ahead-log records appended and
	// group fsyncs issued by a durable store.
	WALAppends
	WALSyncs
	// PagesRecovered counts page images replayed from the log when a
	// durable store was reopened.
	PagesRecovered
	// ChecksumFailures counts reads that failed page verification.
	ChecksumFailures

	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	Elements:         "elements",
	BigMinSkips:      "bigmin-skips",
	Seeks:            "seeks",
	DataPages:        "data-pages",
	Results:          "results",
	NodeVisits:       "node-visits",
	LeafScans:        "leaf-scans",
	PoolGets:         "pool-gets",
	PoolHits:         "pool-hits",
	PoolMisses:       "pool-misses",
	PoolEvictions:    "pool-evictions",
	PoolWriteBacks:   "pool-write-backs",
	PhysReads:        "phys-reads",
	PhysWrites:       "phys-writes",
	ItemsLeft:        "items-left",
	ItemsRight:       "items-right",
	RawPairs:         "raw-pairs",
	DistinctPairs:    "distinct-pairs",
	MergeSteps:       "merge-steps",
	ReplicatedItems:  "replicated-items",
	Shards:           "shards",
	WALAppends:       "wal-appends",
	WALSyncs:         "wal-syncs",
	PagesRecovered:   "pages-recovered",
	ChecksumFailures: "checksum-failures",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// Counts is one read's work as a plain counter array, which the cursor,
// the pool and the merge count into, traced or not; a traced read adds
// it to its span once (Span.AddCounts). It serves one goroutine.
type Counts [NumCounters]int64

// Inc adds one to counter k; no-op on nil (a writer's page load).
func (c *Counts) Inc(k Counter) {
	if c != nil {
		c[k]++
	}
}

// Span is one node of a trace: a named operator execution with typed
// counters, a monotonic start time, and child spans. The zero of the
// API is the nil span: every method no-ops (or returns zero) on nil,
// so disabled tracing costs nothing.
type Span struct {
	name     string
	start    time.Time // monotonic reading included
	dur      atomic.Int64
	counters [NumCounters]atomic.Int64

	mu       sync.Mutex
	children []*Span
}

// New starts a root span. The returned span's clock is running; call
// End to seal its duration.
func New(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a sub-span under s and returns it. On a nil span it
// returns nil, keeping the whole subtree disabled.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := New(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Add increments a counter. Safe for concurrent use; no-op on nil.
func (s *Span) Add(c Counter, n int64) {
	if s == nil {
		return
	}
	s.counters[c].Add(n)
}

// AddCounts adds every nonzero counter of n. Safe for concurrent use;
// no-op on nil.
func (s *Span) AddCounts(n *Counts) {
	for c, v := range n {
		if v != 0 {
			s.Add(Counter(c), v)
		}
	}
}

// Inc is Add(c, 1).
func (s *Span) Inc(c Counter) { s.Add(c, 1) }

// Get returns the span's own value of a counter (not including
// children); 0 on nil.
func (s *Span) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.counters[c].Load()
}

// Total returns the counter summed over the span and all descendants.
func (s *Span) Total(c Counter) int64 {
	if s == nil {
		return 0
	}
	t := s.counters[c].Load()
	for _, ch := range s.Children() {
		t += ch.Total(c)
	}
	return t
}

// End seals the span's duration from its monotonic start time. Only
// the first End takes effect; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := int64(time.Since(s.start))
	if d < 1 {
		d = 1 // a sealed span is distinguishable from a running one
	}
	s.dur.CompareAndSwap(0, d)
}

// Duration returns the sealed duration, or the running elapsed time
// if End has not been called; 0 on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if d := s.dur.Load(); d != 0 {
		return time.Duration(d)
	}
	return time.Since(s.start)
}

// Name returns the span's name; "" on nil.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Children returns a snapshot of the span's direct children in
// creation order; nil on nil.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	s.mu.Unlock()
	return out
}

// Render formats the span tree, one line per span, children indented.
// Counters appear in Counter order and only when nonzero, so the
// output is deterministic for a deterministic workload. withTimings
// appends wall-clock durations; leave it false for golden files.
func (s *Span) Render(withTimings bool) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, 0, withTimings)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int, withTimings bool) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.name)
	for c := Counter(0); c < NumCounters; c++ {
		if v := s.counters[c].Load(); v != 0 {
			fmt.Fprintf(b, " %s=%d", c, v)
		}
	}
	if withTimings {
		fmt.Fprintf(b, " (%v)", s.Duration().Round(time.Microsecond))
	}
	b.WriteByte('\n')
	for _, ch := range s.Children() {
		ch.render(b, depth+1, withTimings)
	}
}

// String implements fmt.Stringer as Render without timings.
func (s *Span) String() string { return s.Render(false) }

// Sorted-keys helper shared with the registry.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
