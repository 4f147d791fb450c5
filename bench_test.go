// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md section 3 for the experiment index).
// Each benchmark reports the paper's metric — data-page accesses per
// query — via ReportMetric, so `go test -bench=.` reproduces the
// numbers recorded in EXPERIMENTS.md; the printable tables themselves
// come from `go run ./cmd/experiments`.
package probe_test

import (
	"testing"

	"probe/internal/analysis"
	"probe/internal/conncomp"
	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/experiment"
	"probe/internal/geom"
	"probe/internal/interfere"
	"probe/internal/overlay"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// BenchmarkFig2Decomposition decomposes the Figure 1/2 box.
func BenchmarkFig2Decomposition(b *testing.B) {
	g := zorder.MustGrid(2, 3)
	box := geom.Box2(1, 3, 0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(decompose.Box(g, box)) != 6 {
			b.Fatal("Figure 2 decomposition changed")
		}
	}
}

// BenchmarkFig4Curve computes z-order ranks over the Figure 4 grid.
func BenchmarkFig4Curve(b *testing.B) {
	g := zorder.MustGrid(2, 3)
	coords := []uint32{3, 5}
	for i := 0; i < b.N; i++ {
		if g.Rank(coords) != 27 {
			b.Fatal("Figure 4 rank changed")
		}
	}
}

// BenchmarkTableS1SpaceRequirements regenerates the E(U,V) sweep.
func BenchmarkTableS1SpaceRequirements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.SpaceTable(8, experiment.PaperSpacePairs())
		for _, r := range rows {
			if r.E != r.EDoubled {
				b.Fatal("cyclicity violated")
			}
		}
	}
}

// BenchmarkTableS2Proximity regenerates the proximity measurements.
func BenchmarkTableS2Proximity(b *testing.B) {
	g := zorder.MustGrid(2, 10)
	for i := 0; i < b.N; i++ {
		samples := analysis.MeasureProximity(g, []uint32{1, 4, 16, 64, 256}, 24)
		if len(samples) != 5 {
			b.Fatal("sample count changed")
		}
	}
}

// sweepBench builds the paper-size instance for a data set and runs
// the full query sweep, reporting pages per query.
func sweepBench(b *testing.B, ds experiment.Dataset) {
	b.Helper()
	cfg := experiment.DefaultConfig()
	in, err := experiment.Build(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	specs := workload.PaperSpecs()
	b.ResetTimer()
	var pages, queries float64
	for i := 0; i < b.N; i++ {
		rows, err := in.RunSweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			pages += r.AvgPages * float64(r.Queries)
			queries += float64(r.Queries)
		}
	}
	b.ReportMetric(pages/queries, "pages/query")
}

// BenchmarkTableS5ExperimentU regenerates the uniform-data sweep.
func BenchmarkTableS5ExperimentU(b *testing.B) { sweepBench(b, experiment.U) }

// BenchmarkTableS6ExperimentC regenerates the clustered-data sweep.
func BenchmarkTableS6ExperimentC(b *testing.B) { sweepBench(b, experiment.C) }

// BenchmarkTableS7ExperimentD regenerates the diagonal-data sweep.
func BenchmarkTableS7ExperimentD(b *testing.B) { sweepBench(b, experiment.D) }

// BenchmarkTableS3RangeQueryPages measures square queries across
// volumes against the O(vN) model.
func BenchmarkTableS3RangeQueryPages(b *testing.B) {
	cfg := experiment.DefaultConfig()
	in, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		b.Fatal(err)
	}
	var specs []workload.QuerySpec
	for _, v := range []float64{0.0025, 0.01, 0.04, 0.09, 0.16, 0.25} {
		specs = append(specs, workload.QuerySpec{Volume: v, Aspect: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := in.RunSweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.AvgPages > r.PredictedPages*1.5 {
				b.Fatalf("volume %v: measured %v far above block model %v",
					r.Spec.Volume, r.AvgPages, r.PredictedPages)
			}
		}
	}
}

// BenchmarkTableS4PartialMatch measures partial-match queries against
// O(N^(1-t/k)).
func BenchmarkTableS4PartialMatch(b *testing.B) {
	cfg := experiment.DefaultConfig()
	in, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var pages, n float64
	for i := 0; i < b.N; i++ {
		rows, err := in.RunPartialMatch([][]bool{{true, false}, {false, true}})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			pages += r.AvgPages
			n++
		}
	}
	b.ReportMetric(pages/n, "pages/query")
}

// BenchmarkFig6Partition renders the page-partition plots.
func BenchmarkFig6Partition(b *testing.B) {
	cfg := experiment.DefaultConfig()
	instances := make([]*experiment.Instance, 0, 3)
	for _, ds := range []experiment.Dataset{experiment.U, experiment.C, experiment.D} {
		in, err := experiment.Build(cfg, ds)
		if err != nil {
			b.Fatal(err)
		}
		instances = append(instances, in)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range instances {
			if _, err := in.RenderPartition(72, 36); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTableS8KdTreeComparison runs the same sweep on the zkd
// B+-tree and the bucket kd tree, reporting both page counts.
func BenchmarkTableS8KdTreeComparison(b *testing.B) {
	cfg := experiment.DefaultConfig()
	in, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		b.Fatal(err)
	}
	specs := []workload.QuerySpec{
		{Volume: 0.01, Aspect: 1}, {Volume: 0.04, Aspect: 1},
		{Volume: 0.09, Aspect: 4}, {Volume: 0.16, Aspect: 1},
	}
	b.ResetTimer()
	var zkd, kd, n float64
	for i := 0; i < b.N; i++ {
		rows, err := in.RunKdComparison(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			zkd += r.ZkdPages
			kd += r.KdLeaves
			n++
		}
	}
	b.ReportMetric(zkd/n, "zkd-pages/query")
	b.ReportMetric(kd/n, "kd-leaves/query")
}

// BenchmarkTableS9Overlay compares AG overlay with the pixel-grid
// baseline at d = 10.
func BenchmarkTableS9Overlay(b *testing.B) {
	g := zorder.MustGrid(2, 10)
	s := float64(g.Side())
	pa := geom.MustPolygon(
		geom.Vertex{X: s * 0.1, Y: s * 0.15}, geom.Vertex{X: s * 0.8, Y: s * 0.1},
		geom.Vertex{X: s * 0.7, Y: s * 0.75}, geom.Vertex{X: s * 0.2, Y: s * 0.6},
	)
	pb := geom.MustPolygon(
		geom.Vertex{X: s * 0.4, Y: s * 0.3}, geom.Vertex{X: s * 0.95, Y: s * 0.45},
		geom.Vertex{X: s * 0.55, Y: s * 0.95},
	)
	ea, err := decompose.Object(g, pa, decompose.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eb, err := decompose.Object(g, pb, decompose.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ag-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := overlay.Intersect(ea, eb); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(ea)+len(eb)), "elements")
	})
	b.Run("grid-pixels", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := overlay.GridIntersect(g, ea, eb); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.Cells()), "pixels")
	})
}

// BenchmarkTableS10ConnComp compares element-sequence labelling with
// pixel flood fill.
func BenchmarkTableS10ConnComp(b *testing.B) {
	g := zorder.MustGrid(2, 9)
	side := int(g.Side())
	var region []zorder.Element
	for i := 0; i < 8; i++ {
		d, err := geom.NewDisk(
			[]float64{float64((i*97 + 40) % side), float64((i*53 + 60) % side)},
			float64(side)/float64(8+i))
		if err != nil {
			b.Fatal(err)
		}
		elems, err := decompose.Object(g, d, decompose.Options{})
		if err != nil {
			b.Fatal(err)
		}
		region, err = overlay.Union(region, elems)
		if err != nil {
			b.Fatal(err)
		}
	}
	bm, err := overlay.GridRasterize(g, region)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ag-elements", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := conncomp.Label(g, region); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(region)), "elements")
	})
	b.Run("pixel-bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conncomp.PixelLabel(bm, side)
		}
	})
}

// BenchmarkTableS11Interference measures the spatial-join broad phase
// against the all-pairs baseline.
func BenchmarkTableS11Interference(b *testing.B) {
	g := zorder.MustGrid(2, 9)
	var parts []interfere.Part
	for i := 0; i < 120; i++ {
		cx := 20 + float64((i*337)%450)
		cy := 20 + float64((i*211)%450)
		r := 4 + float64(i%11)
		parts = append(parts, interfere.Part{
			ID: uint64(i + 1),
			Outline: geom.MustPolygon(
				geom.Vertex{X: cx - r, Y: cy - r},
				geom.Vertex{X: cx + r, Y: cy - r},
				geom.Vertex{X: cx, Y: cy + r},
			),
		})
	}
	b.Run("spatial-join", func(b *testing.B) {
		var cand float64
		for i := 0; i < b.N; i++ {
			_, stats, err := interfere.Detect(g, parts, 12)
			if err != nil {
				b.Fatal(err)
			}
			cand = float64(stats.Candidates)
		}
		b.ReportMetric(cand, "candidates")
	})
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			interfere.DetectAllPairs(parts)
		}
	})
}

// BenchmarkAblationRangeStrategies compares the three range-search
// strategies of Section 3.3 on the paper workload.
func BenchmarkAblationRangeStrategies(b *testing.B) {
	cfg := experiment.DefaultConfig()
	in, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		b.Fatal(err)
	}
	boxes, err := workload.Queries(in.Index.Grid(), workload.QuerySpec{Volume: 0.04, Aspect: 1}, 20, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []core.Strategy{core.MergeDecomposed, core.MergeLazy, core.SkipBigMin} {
		b.Run(s.String(), func(b *testing.B) {
			var pages, n float64
			for i := 0; i < b.N; i++ {
				for _, box := range boxes {
					in.Pool.Invalidate()
					_, stats, err := in.Index.RangeSearch(box, s)
					if err != nil {
						b.Fatal(err)
					}
					pages += float64(stats.DataPages)
					n++
				}
			}
			b.ReportMetric(pages/n, "pages/query")
		})
	}
}

// BenchmarkInsertThroughput measures index build rate at the paper's
// page capacity.
func BenchmarkInsertThroughput(b *testing.B) {
	g := zorder.MustGrid(2, 16)
	pts := workload.Uniform(g, 100000, 5)
	b.ResetTimer()
	i := 0
	store := disk.MustMemStore(4096)
	pool := disk.MustPool(store, 1024, disk.LRU)
	ix, err := core.NewIndex(pool, g, core.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < b.N; n++ {
		p := pts[i%len(pts)]
		p.ID = uint64(n)
		if err := ix.Insert(p); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkAblationBulkLoad compares one-at-a-time insertion with
// bottom-up bulk loading, reporting build cost and resulting page
// counts.
func BenchmarkAblationBulkLoad(b *testing.B) {
	g := zorder.MustGrid(2, 10)
	pts := workload.Uniform(g, 5000, 3)
	b.Run("insert", func(b *testing.B) {
		var leaves float64
		for i := 0; i < b.N; i++ {
			pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
			ix, err := core.NewIndex(pool, g, core.IndexConfig{LeafCapacity: 20})
			if err != nil {
				b.Fatal(err)
			}
			if err := ix.BulkLoad(pts); err != nil {
				b.Fatal(err)
			}
			leaves = float64(ix.Tree().LeafPages())
		}
		b.ReportMetric(leaves, "leaf-pages")
	})
	b.Run("bulk", func(b *testing.B) {
		var leaves float64
		for i := 0; i < b.N; i++ {
			pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
			ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts)
			if err != nil {
				b.Fatal(err)
			}
			leaves = float64(ix.Tree().LeafPages())
		}
		b.ReportMetric(leaves, "leaf-pages")
	})
}

// BenchmarkNearestNeighbor measures the Section 6 proximity-query
// translation.
func BenchmarkNearestNeighbor(b *testing.B) {
	g := zorder.MustGrid(2, 10)
	pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, workload.Uniform(g, 5000, 3))
	if err != nil {
		b.Fatal(err)
	}
	q := []uint32{512, 512}
	b.ResetTimer()
	var pages float64
	for i := 0; i < b.N; i++ {
		_, stats, err := ix.Nearest(q, 10, core.Euclidean, core.MergeLazy)
		if err != nil {
			b.Fatal(err)
		}
		pages = float64(stats.DataPages)
	}
	b.ReportMetric(pages, "pages/query")
}

// joinBenchInputs builds the large in-memory join workload of
// BenchmarkSpatialJoinSequential: two element relations decomposed
// from many random boxes on a 1024x1024 grid.
func joinBenchInputs(b *testing.B) (left, right []core.Item) {
	b.Helper()
	g := zorder.MustGrid(2, 10)
	build := func(seed int64) []core.Item {
		boxes, err := workload.Queries(g, workload.QuerySpec{Volume: 0.001, Aspect: 2}, 600, seed)
		if err != nil {
			b.Fatal(err)
		}
		var items []core.Item
		for id, box := range boxes {
			for _, e := range decompose.Box(g, box) {
				items = append(items, core.Item{Elem: e, ID: uint64(id)})
			}
		}
		core.SortItems(items)
		return items
	}
	return build(301), build(302)
}

// BenchmarkSpatialJoinSequential measures the §3.2 stack merge plus
// the deduplicating projection on one core.
func BenchmarkSpatialJoinSequential(b *testing.B) {
	left, right := joinBenchInputs(b)
	b.ResetTimer()
	b.ReportAllocs()
	var pairs int
	for i := 0; i < b.N; i++ {
		out, _, err := core.SpatialJoinDistinct(left, right)
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(out)
	}
	b.ReportMetric(float64(pairs), "distinct-pairs")
}
