package obs

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Var is the expvar.Var interface restated (a metric that renders
// itself as a valid JSON value). The registry and its metrics satisfy
// it, so a long-running process can hand them to expvar.Publish and
// serve them from /debug/vars without this package importing expvar
// (and without its side effect of registering HTTP handlers).
type Var interface {
	String() string
}

// Int is a cumulative int64 metric, safe for concurrent use. The
// zero value is ready to use.
type Int struct {
	v atomic.Int64
}

// Add increments the metric.
func (i *Int) Add(delta int64) { i.v.Add(delta) }

// Set replaces the metric's value.
func (i *Int) Set(v int64) { i.v.Store(v) }

// Value returns the current value.
func (i *Int) Value() int64 { return i.v.Load() }

// String implements Var (and expvar.Var) as a JSON number.
func (i *Int) String() string { return strconv.FormatInt(i.v.Load(), 10) }

// Registry is a named set of metrics for long-running use: the DB
// merges every query's span counters into its registry, and the
// network server keeps its request counters, level gauges, and
// latency histograms in one, so lifetime totals are exposable
// alongside the per-query QueryStats.
//
// Three metric kinds live side by side: Int (cumulative counter),
// Gauge (instantaneous level), and Histogram (log-bucketed
// distribution). Names must be unique across kinds — registering
// "x" as both a counter and a gauge renders both and confuses every
// consumer, so don't. All methods are safe for concurrent use;
// metric lookups are read-locked and the metrics themselves are
// lock-free atomics.
type Registry struct {
	mu     sync.RWMutex
	ints   map[string]*Int
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	spans  map[string]*spanInts // AddSpan's counters, by prefix
}

// spanInts are the counters AddSpan folds spans into under one prefix:
// "prefix.count", and "prefix.<counter>" for each counter, resolved
// the first time the counter is nonzero, so that a counter no span
// sets is not registered.
type spanInts struct {
	count    *Int
	counters [NumCounters]atomic.Pointer[Int]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ints:   make(map[string]*Int),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		spans:  make(map[string]*spanInts),
	}
}

// Int returns the named counter, creating it at zero on first use.
func (r *Registry) Int(name string) *Int {
	r.mu.RLock()
	i, ok := r.ints[name]
	r.mu.RUnlock()
	if ok {
		return i
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok = r.ints[name]; ok {
		return i
	}
	i = &Int{}
	r.ints[name] = i
	return i
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it empty on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Do calls fn for every metric — counters, gauges, and histograms —
// in sorted name order.
func (r *Registry) Do(fn func(name string, v Var)) {
	r.mu.RLock()
	snapshot := make(map[string]Var, len(r.ints)+len(r.gauges)+len(r.hists))
	for k, v := range r.ints {
		snapshot[k] = v
	}
	for k, v := range r.gauges {
		snapshot[k] = v
	}
	for k, v := range r.hists {
		snapshot[k] = v
	}
	r.mu.RUnlock()
	for _, k := range sortedKeys(snapshot) {
		fn(k, snapshot[k])
	}
}

// DoNumeric calls fn for every scalar reading the registry can
// produce, in sorted name order: counters and gauges by value, and
// each histogram flattened into "<name>.count", "<name>.p50",
// "<name>.p95", "<name>.p99", and "<name>.max". This is the registry
// view the STATS wire opcode ships: flat, typed, and append-only.
func (r *Registry) DoNumeric(fn func(name string, value int64)) {
	r.mu.RLock()
	ints := make(map[string]*Int, len(r.ints))
	for k, v := range r.ints {
		ints[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	flat := make(map[string]int64, len(ints)+len(gauges)+5*len(hists))
	for k, v := range ints {
		flat[k] = v.Value()
	}
	for k, v := range gauges {
		flat[k] = v.Value()
	}
	for k, h := range hists {
		s := h.Snapshot()
		flat[k+".count"] = s.Count
		flat[k+".p50"] = s.Quantile(0.50)
		flat[k+".p95"] = s.Quantile(0.95)
		flat[k+".p99"] = s.Quantile(0.99)
		flat[k+".max"] = s.Max
	}
	for _, k := range sortedKeys(flat) {
		fn(k, flat[k])
	}
}

// String implements Var (and expvar.Var) as a JSON object with
// sorted keys, so publishing the whole registry as one expvar works.
// Counters and gauges render as numbers, histograms as summary
// objects.
func (r *Registry) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	r.Do(func(name string, v Var) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Quote(name))
		b.WriteString(": ")
		b.WriteString(v.String())
	})
	b.WriteByte('}')
	return b.String()
}

// AddSpan merges a span subtree's counter totals into the registry
// under "prefix.counter" names, and bumps "prefix.count" by one. Nil
// spans merge nothing (the count still bumps: the operation ran, just
// untraced). The names are built once per prefix and counter, so a
// fold allocates nothing once its counters are resolved.
func (r *Registry) AddSpan(prefix string, s *Span) {
	si := r.spanInts(prefix)
	si.count.Add(1)
	if s == nil {
		return
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := s.Total(c); v != 0 {
			i := si.counters[c].Load()
			if i == nil {
				i = r.Int(prefix + "." + c.String())
				si.counters[c].Store(i)
			}
			i.Add(v)
		}
	}
}

// spanInts returns AddSpan's counters under prefix, creating them on
// first use.
func (r *Registry) spanInts(prefix string) *spanInts {
	r.mu.RLock()
	si, ok := r.spans[prefix]
	r.mu.RUnlock()
	if ok {
		return si
	}
	count := r.Int(prefix + ".count")
	r.mu.Lock()
	defer r.mu.Unlock()
	if si, ok = r.spans[prefix]; !ok {
		si = &spanInts{count: count}
		r.spans[prefix] = si
	}
	return si
}
