package probe_test

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"probe"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// obsTestDB builds a deterministic database: a diagonal-ish lattice
// of points bulk-loaded into packed pages, so every counter in these
// tests is reproducible run to run.
func obsTestDB(t *testing.T) *probe.DB {
	t.Helper()
	g := probe.MustGrid(2, 8)
	var pts []probe.Point
	id := uint64(1)
	for x := uint32(0); x < 256; x += 5 {
		for y := uint32(0); y < 256; y += 11 {
			pts = append(pts, probe.Pt2(id, x, (y+x/3)%256))
			id++
		}
	}
	db, err := probe.Open(g, probe.WithPageSize(512), probe.WithPoolPages(16), probe.WithBulkLoad(pts))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTracedRangeSearchMatchesLegacy asserts the invariant the trace
// layer promises through the façade: the operation span's counters
// equal the QueryStats the same call returns. (internal/core checks
// the same agreement for every strategy of the ablation.)
func TestTracedRangeSearchMatchesLegacy(t *testing.T) {
	db := obsTestDB(t)
	tr := probe.NewTrace("q")
	pts, stats, err := db.RangeSearch(probe.Box2(40, 170, 30, 140), probe.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	kids := tr.Children()
	if len(kids) != 1 || kids[0].Name() != "range-search" {
		t.Fatalf("trace children = %v", kids)
	}
	sp := kids[0]
	if got := sp.Get(probe.CounterResults); int(got) != stats.Results || stats.Results != len(pts) {
		t.Errorf("span results %d, stats %d, points %d", got, stats.Results, len(pts))
	}
	if got := sp.Get(probe.CounterDataPages); int(got) != stats.DataPages {
		t.Errorf("span data-pages %d, stats %d", got, stats.DataPages)
	}
	if got := sp.Get(probe.CounterSeeks); int(got) != stats.Seeks {
		t.Errorf("span seeks %d, stats %d", got, stats.Seeks)
	}
	if got := sp.Get(probe.CounterElements); int(got) != stats.Elements {
		t.Errorf("span elements %d, stats %d", got, stats.Elements)
	}
}

// TestTracedPoolAttribution asserts buffer-pool and physical-I/O
// activity lands on the operation span and the unified stats, for a
// range search and a NEAREST alike; a NEAREST's span counts the
// neighbors it returns, not the points its rounds visited. The same
// query untraced, on the same cold pool, reports the same stats.
func TestTracedPoolAttribution(t *testing.T) {
	db := obsTestDB(t)
	reads := []struct {
		name string
		run  func(*probe.Trace) (probe.QueryStats, int, error)
	}{
		{"range", func(tr *probe.Trace) (probe.QueryStats, int, error) {
			pts, qs, err := db.RangeSearch(probe.Box2(0, 255, 0, 255), probe.WithTrace(tr))
			return qs, len(pts), err
		}},
		{"nearest", func(tr *probe.Trace) (probe.QueryStats, int, error) {
			nbs, qs, err := db.Nearest([]uint32{128, 128}, 40, probe.Euclidean, probe.WithTrace(tr))
			return qs, len(nbs), err
		}},
	}
	for _, r := range reads {
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		tr := probe.NewTrace("cold")
		stats, n, err := r.run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PoolGets == 0 || stats.PoolMisses == 0 || stats.PhysReads == 0 {
			t.Fatalf("%s: cold traced query attributed no pool/phys activity: %+v", r.name, stats)
		}
		if stats.PoolGets != stats.PoolHits+stats.PoolMisses {
			t.Errorf("%s: gets %d != hits %d + misses %d", r.name, stats.PoolGets, stats.PoolHits, stats.PoolMisses)
		}
		if stats.PoolMisses != stats.PhysReads {
			t.Errorf("%s: misses %d != physical reads %d", r.name, stats.PoolMisses, stats.PhysReads)
		}
		if got := tr.Children()[0].Get(probe.CounterResults); int(got) != n || stats.Results != n {
			t.Errorf("%s: span results %d, stats %d, answer %d", r.name, got, stats.Results, n)
		}
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		if untraced, _, err := r.run(nil); err != nil || untraced != stats {
			t.Errorf("%s: untraced stats %+v, %v; traced %+v", r.name, untraced, err, stats)
		}
	}
}

// TestTracedReadCallbackMayWrite: a traced read takes no writer lock,
// so its streaming callback may write, as an untraced one's may. The
// read runs in a goroutine under a deadline, so a deadlock fails the
// test instead of hanging it.
func TestTracedReadCallbackMayWrite(t *testing.T) {
	db := obsTestDB(t)
	p := probe.Pt2(1<<40, 7, 7)
	var insErr error
	done := make(chan error, 1)
	go func() {
		inserted := false
		_, err := db.RangeSearchFunc(probe.Box2(0, 255, 0, 255), func(probe.Point) bool {
			if !inserted {
				inserted, insErr = true, db.Insert(p)
			}
			return true
		}, probe.WithTrace(probe.NewTrace("t")))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil || insErr != nil {
			t.Fatalf("traced read: %v, insert in its callback: %v", err, insErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a traced read whose callback inserts did not return within 5s")
	}
	pts, _, err := db.RangeSearch(probe.Box2(7, 7, 7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(pts, func(q probe.Point) bool { return q.ID == p.ID }) {
		t.Fatalf("the point inserted in the callback is not visible to the next read: %v", pts)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTracedReadCountsOnlyItself: a traced read's pool gets are its
// own page loads, so they are the same alone, with an untraced
// whole-grid read inside its callback, and while other goroutines scan.
// (Gets are deterministic on a fixed tree; hits and misses are not.)
func TestTracedReadCountsOnlyItself(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := make([]probe.Point, 20000)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
	}
	db, err := probe.Open(probe.MustGrid(2, 10), probe.WithBulkLoad(pts))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	box := probe.Box2(100, 140, 200, 240)
	traced := func(inside func()) probe.QueryStats {
		t.Helper()
		first := true
		qs, err := db.RangeSearchFunc(box, func(probe.Point) bool {
			if first && inside != nil {
				inside()
			}
			first = false
			return true
		}, probe.WithTrace(probe.NewTrace("t")))
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	alone := traced(nil)
	if alone.PoolGets == 0 || alone.DataPages == 0 {
		t.Fatalf("traced read counted nothing: %+v", alone)
	}
	same := func(what string, qs probe.QueryStats) {
		t.Helper()
		if qs.PoolGets != alone.PoolGets || qs.DataPages != alone.DataPages {
			t.Errorf("%s: %d pool gets, %d data pages; alone %d, %d", what, qs.PoolGets, qs.DataPages, alone.PoolGets, alone.DataPages)
		}
	}
	same("untraced read in its callback", traced(func() {
		if _, _, err := db.RangeSearch(probe.Box2(0, 1023, 0, 1023)); err != nil {
			t.Error(err)
		}
	}))

	stop := make(chan struct{})
	var scans sync.WaitGroup
	started := make(chan struct{}, 2)
	for w := 0; w < 2; w++ {
		scans.Add(1)
		go func() {
			defer scans.Done()
			for {
				if err := db.Scan(func(probe.Point) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	<-started
	for i := 0; i < 20; i++ {
		same("beside two scans", traced(nil))
	}
	close(stop)
	scans.Wait()
}

// joinInputs builds two deterministic z-sorted element relations.
func joinInputs(t *testing.T) (a, b []probe.Item) {
	t.Helper()
	g := probe.MustGrid(2, 8)
	id := uint64(1)
	for x := uint32(0); x < 200; x += 23 {
		for _, e := range probe.DecomposeBox(g, probe.Box2(x, x+40, x/2, x/2+60)) {
			a = append(a, probe.Item{Elem: e, ID: id})
		}
		id++
	}
	id = 1
	for y := uint32(0); y < 200; y += 31 {
		for _, e := range probe.DecomposeBox(g, probe.Box2(y/2, y/2+50, y, y+35)) {
			b = append(b, probe.Item{Elem: e, ID: id})
		}
		id++
	}
	probe.SortItems(a)
	probe.SortItems(b)
	return a, b
}

// TestTracedJoinMatchesLegacy asserts the sequential join's span
// counters equal its QueryStats.
func TestTracedJoinMatchesLegacy(t *testing.T) {
	a, b := joinInputs(t)
	tr := probe.NewTrace("join")
	pairs, stats, err := probe.SpatialJoin(a, b, probe.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	kids := tr.Children()
	if len(kids) != 1 || kids[0].Name() != "spatial-join" {
		t.Fatalf("trace children = %v", kids)
	}
	sp := kids[0]
	if got := sp.Get(probe.CounterRawPairs); int(got) != stats.RawPairs {
		t.Errorf("span raw pairs %d, stats %d", got, stats.RawPairs)
	}
	if got := sp.Get(probe.CounterDistinctPairs); int(got) != stats.DistinctPairs || stats.DistinctPairs != len(pairs) {
		t.Errorf("span distinct %d, stats %d, pairs %d", got, stats.DistinctPairs, len(pairs))
	}
	if got := sp.Get(probe.CounterItemsLeft); int(got) != stats.LeftItems || int(got) != len(a) {
		t.Errorf("span items-left %d, stats %d, input %d", got, stats.LeftItems, len(a))
	}
	if got := sp.Get(probe.CounterItemsRight); int(got) != stats.RightItems {
		t.Errorf("span items-right %d, stats %d", got, stats.RightItems)
	}
	// Every input item is consumed exactly once by the merge.
	if got := sp.Get(probe.CounterMergeSteps); int(got) != len(a)+len(b) {
		t.Errorf("merge steps %d, want %d", got, len(a)+len(b))
	}
}

// TestExplainAnalyzeMatchesLegacy asserts the per-operator actuals
// equal the legacy counters from running the same query directly, on a
// small box, half the space and the whole space alike: EXPLAIN ANALYZE
// runs the index scan every range query runs.
func TestExplainAnalyzeMatchesLegacy(t *testing.T) {
	db := obsTestDB(t)
	// The table is 13 leaves, so a box of a 21st of a side is small.
	for _, box := range []probe.Box{probe.Box2(10, 30, 60, 80), probe.Box2(0, 255, 0, 127), probe.Box2(0, 255, 0, 255)} {
		res, err := db.ExplainAnalyze(box)
		if err != nil {
			t.Fatal(err)
		}
		pts, legacy, err := db.RangeSearch(box)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DataPages != legacy.DataPages || res.Stats.Seeks != legacy.Seeks ||
			res.Stats.Elements != legacy.Elements || res.Stats.Results != legacy.Results {
			t.Errorf("%v: explain-analyze stats %+v, legacy %+v", box, res.Stats, legacy)
		}
		if spanResults := res.Trace.Get(probe.CounterResults); res.Stats.Results != len(res.Points) || int(spanResults) != len(res.Points) {
			t.Errorf("%v: stats results %d, span results %d, points %d", box, res.Stats.Results, spanResults, len(res.Points))
		}
		if res.Trace.Get(probe.CounterDataPages) != int64(res.Stats.DataPages) {
			t.Errorf("%v: trace data-pages %d, stats %d", box, res.Trace.Get(probe.CounterDataPages), res.Stats.DataPages)
		}
		if !samePoints(res.Points, pts) {
			t.Errorf("%v: explain-analyze points differ from the range search's", box)
		}
		if res.Stats.PoolGets == 0 {
			t.Errorf("%v: explain-analyze attributed no pool activity: %+v", box, res.Stats)
		}
	}
}

// TestExplainAnalyzeGolden locks the deterministic rendering down to
// a golden file (run with -update to regenerate).
func TestExplainAnalyzeGolden(t *testing.T) {
	db := obsTestDB(t)
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExplainAnalyze(probe.Box2(32, 96, 32, 96))
	if err != nil {
		t.Fatal(err)
	}
	got := res.String()
	path := filepath.Join("testdata", "explain_analyze.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("explain-analyze rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsRegistry asserts DB operations accumulate in the
// expvar-compatible registry.
func TestMetricsRegistry(t *testing.T) {
	db := obsTestDB(t)
	box := probe.Box2(0, 50, 0, 50)
	if _, _, err := db.RangeSearch(box); err != nil {
		t.Fatal(err)
	}
	tr := probe.NewTrace("q")
	if _, _, err := db.RangeSearch(box, probe.WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Int("range-search.count").Value(); got != 2 {
		t.Errorf("range-search.count = %d, want 2", got)
	}
	if got := m.Int("range-search.data-pages").Value(); got <= 0 {
		t.Errorf("range-search.data-pages = %d, want > 0 (traced op merged)", got)
	}
	s := m.String()
	if len(s) == 0 || s[0] != '{' {
		t.Errorf("registry String not a JSON object: %q", s)
	}
}

// TestNoopTraceZeroAllocs proves the disabled-tracer path allocates
// nothing: all span methods on a nil *Trace are free.
func TestNoopTraceZeroAllocs(t *testing.T) {
	var tr *probe.Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Inc(probe.CounterSeeks)
		tr.Add(probe.CounterDataPages, 7)
		tr.End()
		_ = tr.Get(probe.CounterSeeks)
	})
	if allocs != 0 {
		t.Fatalf("nil trace allocates %v per op, want 0", allocs)
	}
}

// BenchmarkRangeSearchUntraced measures the untraced fast path end to
// end; compare with BenchmarkRangeSearchTraced for tracing overhead.
func BenchmarkRangeSearchUntraced(b *testing.B) {
	db := benchDB(b)
	box := probe.Box2(40, 170, 30, 140)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RangeSearch(box); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeSearchTraced measures the same query with a live
// trace attached.
func BenchmarkRangeSearchTraced(b *testing.B) {
	db := benchDB(b)
	box := probe.Box2(40, 170, 30, 140)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := probe.NewTrace("bench")
		if _, _, err := db.RangeSearch(box, probe.WithTrace(tr)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDB(b *testing.B) *probe.DB {
	b.Helper()
	g := probe.MustGrid(2, 8)
	var pts []probe.Point
	id := uint64(1)
	for x := uint32(0); x < 256; x += 5 {
		for y := uint32(0); y < 256; y += 11 {
			pts = append(pts, probe.Pt2(id, x, (y+x/3)%256))
			id++
		}
	}
	db, err := probe.Open(g, probe.WithBulkLoad(pts))
	if err != nil {
		b.Fatal(err)
	}
	return db
}
