package obs

import (
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

// The registry and its metrics must satisfy the expvar.Var contract
// so long-running processes can expvar.Publish them.
var (
	_ expvar.Var = (*Int)(nil)
	_ expvar.Var = (*Registry)(nil)
)

func TestSpanCountersAndTree(t *testing.T) {
	root := New("query")
	root.Add(Seeks, 3)
	root.Inc(Seeks)
	if got := root.Get(Seeks); got != 4 {
		t.Fatalf("Seeks = %d, want 4", got)
	}
	child := root.Child("pool")
	child.Add(PoolGets, 10)
	child.Add(PoolHits, 7)
	grand := child.Child("phys")
	grand.Add(PhysReads, 3)
	if got := root.Total(PoolGets); got != 10 {
		t.Errorf("Total(PoolGets) = %d", got)
	}
	if got := root.Total(PhysReads); got != 3 {
		t.Errorf("Total(PhysReads) = %d", got)
	}
	if got := root.Get(PhysReads); got != 0 {
		t.Errorf("Get(PhysReads) on root = %d, want 0", got)
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "pool" {
		t.Errorf("children = %v", kids)
	}
}

func TestSpanEndSealsDuration(t *testing.T) {
	s := New("op")
	time.Sleep(time.Millisecond)
	s.End()
	d := s.Duration()
	if d <= 0 {
		t.Fatalf("duration %v not positive", d)
	}
	time.Sleep(2 * time.Millisecond)
	if got := s.Duration(); got != d {
		t.Errorf("duration moved after End: %v -> %v", d, got)
	}
	// Second End is a no-op.
	s.End()
	if got := s.Duration(); got != d {
		t.Errorf("second End changed duration")
	}
}

func TestSpanRenderDeterministic(t *testing.T) {
	s := New("range-search")
	s.Add(Seeks, 2)
	s.Add(DataPages, 5)
	c := s.Child("buffer-pool")
	c.Add(PoolGets, 9)
	want := "range-search seeks=2 data-pages=5\n  buffer-pool pool-gets=9\n"
	if got := s.Render(false); got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
	if got := s.String(); got != want {
		t.Errorf("String = %q", got)
	}
	if timed := s.Render(true); !strings.Contains(timed, "(") {
		t.Errorf("timed render lacks durations: %q", timed)
	}
}

func TestSpanConcurrentAdds(t *testing.T) {
	s := New("parallel")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := s.Child("shard")
			for i := 0; i < 1000; i++ {
				sh.Inc(MergeSteps)
				s.Inc(RawPairs)
			}
			sh.End()
		}()
	}
	wg.Wait()
	if got := s.Get(RawPairs); got != 8000 {
		t.Errorf("RawPairs = %d", got)
	}
	if got := s.Total(MergeSteps); got != 8000 {
		t.Errorf("Total(MergeSteps) = %d", got)
	}
	if len(s.Children()) != 8 {
		t.Errorf("children = %d", len(s.Children()))
	}
}

// TestNilSpanIsNoop exercises the whole API on a nil span: the
// disabled path every operator threads through its hot loops.
func TestNilSpanIsNoop(t *testing.T) {
	var s *Span
	s.Add(Seeks, 5)
	s.Inc(Elements)
	s.End()
	if s.Get(Seeks) != 0 || s.Total(Seeks) != 0 {
		t.Errorf("nil span holds counters")
	}
	if c := s.Child("x"); c != nil {
		t.Errorf("nil span produced a child")
	}
	if s.Duration() != 0 || s.Name() != "" || s.Render(true) != "" || s.Children() != nil {
		t.Errorf("nil span accessors not zero")
	}
}

// TestNoopSpanAllocs proves the acceptance criterion: the disabled
// (nil-span) path performs zero allocations.
func TestNoopSpanAllocs(t *testing.T) {
	var s *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c := s.Child("op")
		c.Add(Seeks, 1)
		c.Inc(Elements)
		_ = c.Get(DataPages)
		_ = c.Total(DataPages)
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op tracer allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkNoopSpan is the same proof in benchmark form
// (run with -benchmem: expect 0 B/op, 0 allocs/op).
func BenchmarkNoopSpan(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := s.Child("op")
		c.Add(Seeks, 1)
		c.Inc(Elements)
		c.End()
	}
}

// BenchmarkEnabledSpanAdd measures the enabled fast path (one atomic
// add) for the docs' overhead claim.
func BenchmarkEnabledSpanAdd(b *testing.B) {
	s := New("op")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(Seeks, 1)
	}
}

func TestCounterNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "Counter(") {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if got := Counter(200).String(); !strings.HasPrefix(got, "Counter(") {
		t.Errorf("out-of-range counter String = %q", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Int("queries").Add(2)
	r.Int("pages").Set(7)
	if r.Int("queries").Value() != 2 {
		t.Errorf("queries = %d", r.Int("queries").Value())
	}
	// String must be valid JSON with sorted keys.
	var decoded map[string]int64
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("registry String not JSON: %v\n%s", err, r.String())
	}
	if decoded["pages"] != 7 || decoded["queries"] != 2 {
		t.Errorf("decoded = %v", decoded)
	}
	var names []string
	r.Do(func(name string, v Var) { names = append(names, name) })
	if len(names) != 2 || names[0] != "pages" || names[1] != "queries" {
		t.Errorf("Do order = %v", names)
	}
}

func TestRegistryAddSpan(t *testing.T) {
	r := NewRegistry()
	s := New("range-search")
	s.Add(DataPages, 3)
	s.Child("pool").Add(PoolGets, 9)
	r.AddSpan("range-search", s)
	r.AddSpan("range-search", nil) // untraced op still counts
	if got := r.Int("range-search.count").Value(); got != 2 {
		t.Errorf("count = %d", got)
	}
	if got := r.Int("range-search.data-pages").Value(); got != 3 {
		t.Errorf("data-pages = %d", got)
	}
	if got := r.Int("range-search.pool-gets").Value(); got != 9 {
		t.Errorf("pool-gets = %d (child totals must merge)", got)
	}
	if strings.Contains(r.String(), "range-search.seeks") {
		t.Errorf("a counter no span set is registered: %s", r.String())
	}
	// Concurrent folds under one new prefix resolve each counter once
	// and lose no count.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.AddSpan("nearest", s)
			}
		}()
	}
	wg.Wait()
	if got := r.Int("nearest.count").Value(); got != 400 {
		t.Errorf("nearest.count = %d, want 400", got)
	}
	if got := r.Int("nearest.pool-gets").Value(); got != 3600 {
		t.Errorf("nearest.pool-gets = %d, want 3600", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Int("shared").Add(1)
				_ = r.String()
			}
		}()
	}
	wg.Wait()
	if got := r.Int("shared").Value(); got != 4000 {
		t.Errorf("shared = %d", got)
	}
}
