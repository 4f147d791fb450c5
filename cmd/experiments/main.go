// Command experiments reproduces every table and figure of the
// paper's evaluation (Section 5 and Figure 6) plus the Section 6
// algorithm measurements, printing the tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-quick] [-table NAME]
//
// -quick shrinks the data sets for a fast smoke run; -table limits
// output to one table (s1, s2, s3, s4, s5, s6, s7, fig6, s8, s9,
// s10, s11).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"probe/internal/analysis"
	"probe/internal/conncomp"
	"probe/internal/decompose"
	"probe/internal/experiment"
	"probe/internal/geom"
	"probe/internal/interfere"
	"probe/internal/overlay"
	"probe/internal/workload"
	"probe/internal/zorder"
)

func main() {
	quick := flag.Bool("quick", false, "shrink data sets for a fast run")
	table := flag.String("table", "", "run a single table (s1..s11, fig6)")
	flag.Parse()

	cfg := experiment.DefaultConfig()
	if *quick {
		cfg.N = 1000
		cfg.GridBits = 8
		cfg.Locations = 3
	}

	run := func(name string, fn func(experiment.Config) error) {
		if *table != "" && *table != name {
			return
		}
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("s1", tableS1)
	run("s2", tableS2)
	run("s3", tableS3)
	run("s4", tableS4)
	run("s5", sweep(experiment.U, "Table S5: experiment U (uniform)"))
	run("s6", sweep(experiment.C, "Table S6: experiment C (clustered)"))
	run("s7", sweep(experiment.D, "Table S7: experiment D (diagonal)"))
	run("fig6", figure6)
	run("s8", tableS8)
	run("s9", tableS9)
	run("s10", tableS10)
	run("s11", tableS11)
}

func tableS1(experiment.Config) error {
	rows := experiment.SpaceTable(8, experiment.PaperSpacePairs())
	fmt.Print(experiment.FormatSpaceTable(rows))
	return nil
}

func tableS2(cfg experiment.Config) error {
	samples := analysis.MeasureProximity(cfg.Grid(), []uint32{1, 2, 4, 8, 16, 32, 64, 128}, 32)
	fmt.Print(experiment.FormatProximityTable(samples))
	fmt.Printf("pages-per-block bound: %.2f (2d), %.2f (3d)\n",
		analysis.PagesPerBlock(2), analysis.PagesPerBlock(3))
	in2, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		return err
	}
	row, err := in2.MeasurePagesPerBlock()
	if err != nil {
		return err
	}
	fmt.Printf("measured pages per block (uniform, %d blocks of side 2^%d): mean %.1f, max %d\n",
		row.Blocks, row.BlockBits, row.MeanPages, row.MaxPages)
	fmt.Println("ordering comparison (fraction of neighbor pairs staying within the neighborhood window):")
	fmt.Printf("%-8s %-10s %-11s %-8s\n", "dist", "z-order", "row-major", "snake")
	for _, dist := range []uint32{1, 4, 16, 64} {
		res := analysis.CompareOrderings(cfg.Grid(), dist, 64)
		fmt.Printf("%-8d %-10.2f %-11.2f %-8.2f\n",
			dist, res[analysis.ZOrder], res[analysis.RowMajor], res[analysis.Snake])
	}
	return nil
}

// tableS3: range-query page accesses vs the O(vN) leading term, for
// square queries across volumes.
func tableS3(cfg experiment.Config) error {
	in, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		return err
	}
	var specs []workload.QuerySpec
	for _, v := range []float64{0.0025, 0.01, 0.04, 0.09, 0.16, 0.25} {
		specs = append(specs, workload.QuerySpec{Volume: v, Aspect: 1})
	}
	rows, err := in.RunSweep(specs)
	if err != nil {
		return err
	}
	fmt.Println("Table S3: range query pages vs O(vN) (Section 5.3.1)")
	fmt.Printf("%-10s %-10s %-8s %-12s %-14s\n", "volume", "avg-pages", "vN", "block-model", "pages/(vN)")
	for _, r := range rows {
		vn := in.Model.PredictPagesVolume(r.Spec.Volume)
		ratio := 0.0
		if vn > 0 {
			ratio = r.AvgPages / vn
		}
		fmt.Printf("%-10.4f %-10.1f %-8.1f %-12.1f %-14.2f\n",
			r.Spec.Volume, r.AvgPages, vn, r.PredictedPages, ratio)
	}
	fmt.Printf("N = %d data pages\n", in.Index.Tree().LeafPages())
	return nil
}

func tableS4(cfg experiment.Config) error {
	in2, err := experiment.Build(cfg, experiment.U)
	if err != nil {
		return err
	}
	rows, err := in2.RunPartialMatch([][]bool{{true, false}, {false, true}})
	if err != nil {
		return err
	}
	// A 3-d instance for t = 1, 2 of k = 3.
	cfg3 := cfg
	cfg3.Dims = 3
	if cfg3.GridBits > 10 {
		cfg3.GridBits = 10
	}
	in3, err := experiment.Build(cfg3, experiment.U)
	if err != nil {
		return err
	}
	rows3, err := in3.RunPartialMatch([][]bool{
		{true, false, false},
		{true, true, false},
	})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatPartialTable(append(rows, rows3...)))
	return nil
}

func sweep(ds experiment.Dataset, title string) func(experiment.Config) error {
	return func(cfg experiment.Config) error {
		in, err := experiment.Build(cfg, ds)
		if err != nil {
			return err
		}
		rows, err := in.RunSweep(workload.PaperSpecs())
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatRows(title, rows))
		f := experiment.Summarize(rows)
		fmt.Printf("findings: shapeTrend=%v upperBound=%.0f%% efficiencyGrows=%v bestAspect=%g lowEffLowPages=%.0f%%\n",
			f.ShapeTrend, f.UpperBoundFrac*100, f.EfficiencyGrowsWithVolume, f.BestAspect, f.LowEffLowPagesFrac*100)
		return nil
	}
}

func figure6(cfg experiment.Config) error {
	for _, ds := range []experiment.Dataset{experiment.U, experiment.C, experiment.D} {
		in, err := experiment.Build(cfg, ds)
		if err != nil {
			return err
		}
		art, err := in.RenderPartition(72, 36)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 6%c: %s\n", 'a'+int(ds), art)
	}
	return nil
}

func tableS8(cfg experiment.Config) error {
	fmt.Println("Table S8: zkd B+-tree vs kd tree vs grid file vs R-tree")
	for _, ds := range []experiment.Dataset{experiment.U, experiment.C, experiment.D} {
		in, err := experiment.Build(cfg, ds)
		if err != nil {
			return err
		}
		rows, err := in.RunKdComparison([]workload.QuerySpec{
			{Volume: 0.01, Aspect: 1},
			{Volume: 0.04, Aspect: 1},
			{Volume: 0.09, Aspect: 4},
			{Volume: 0.16, Aspect: 1},
		})
		if err != nil {
			return err
		}
		fmt.Printf("dataset %v (zkd pages N=%d, kd leaves N=%d, grid buckets N=%d, rtree leaves N=%d)\n",
			ds, rows[0].ZkdN, rows[0].KdN, rows[0].GridN, rows[0].RtreeN)
		fmt.Print(experiment.FormatKdTable(rows))
	}
	return nil
}

func tableS9(cfg experiment.Config) error {
	fmt.Println("Table S9: AG overlay (boundary cost) vs grid overlay (area cost)")
	fmt.Printf("%-4s %-10s %-12s %-12s %-12s %-12s\n",
		"d", "pixels", "elems(A+B)", "ag-time", "grid-time", "area(AandB)")
	maxD := 10
	if cfg.GridBits < 10 {
		maxD = cfg.GridBits
	}
	for d := 6; d <= maxD; d++ {
		g := zorder.MustGrid(2, d)
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
			return err
		}
		eb, err := decompose.Object(g, pb, decompose.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		inter, err := overlay.Intersect(ea, eb)
		if err != nil {
			return err
		}
		agTime := time.Since(t0)
		t0 = time.Now()
		gridArea, err := overlay.GridIntersect(g, ea, eb)
		if err != nil {
			return err
		}
		gridTime := time.Since(t0)
		agArea := overlay.Area(g, inter)
		if agArea != gridArea {
			return fmt.Errorf("overlay algorithms disagree: %d vs %d", agArea, gridArea)
		}
		fmt.Printf("%-4d %-10d %-12d %-12v %-12v %-12d\n",
			d, g.Cells(), len(ea)+len(eb), agTime.Round(time.Microsecond),
			gridTime.Round(time.Microsecond), agArea)
	}
	return nil
}

func tableS10(cfg experiment.Config) error {
	fmt.Println("Table S10: connected component labelling, elements vs pixels")
	fmt.Printf("%-4s %-8s %-8s %-8s %-10s %-10s\n", "d", "elems", "comps", "pixels", "ag-time", "px-time")
	maxD := 9
	if cfg.GridBits < 9 {
		maxD = cfg.GridBits
	}
	for d := 5; d <= maxD; d++ {
		g := zorder.MustGrid(2, d)
		side := int(g.Side())
		// A deterministic blobby picture: several disks.
		var region []zorder.Element
		for i := 0; i < 8; i++ {
			cx := float64((i * 97) % side)
			cy := float64((i * 53) % side)
			r := float64(side) / float64(8+i)
			disk, err := geom.NewDisk([]float64{cx, cy}, r)
			if err != nil {
				return err
			}
			elems, err := decompose.Object(g, disk, decompose.Options{})
			if err != nil {
				return err
			}
			region, err = overlay.Union(region, elems)
			if err != nil {
				return err
			}
		}
		t0 := time.Now()
		res, err := conncomp.Label(g, region)
		if err != nil {
			return err
		}
		agTime := time.Since(t0)
		bm, err := overlay.GridRasterize(g, region)
		if err != nil {
			return err
		}
		t0 = time.Now()
		pxCount, _ := conncomp.PixelLabel(bm, side)
		pxTime := time.Since(t0)
		if res.Count() != pxCount {
			return fmt.Errorf("labelling algorithms disagree: %d vs %d", res.Count(), pxCount)
		}
		fmt.Printf("%-4d %-8d %-8d %-8d %-10v %-10v\n",
			d, len(region), res.Count(), side*side,
			agTime.Round(time.Microsecond), pxTime.Round(time.Microsecond))
	}
	return nil
}

func tableS11(cfg experiment.Config) error {
	g := zorder.MustGrid(2, 9)
	n := 120
	if cfg.N < 5000 {
		n = 40
	}
	var parts []interfere.Part
	for i := 0; i < n; i++ {
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
	fmt.Println("Table S11: CAD interference detection (Section 6)")
	fmt.Printf("%-8s %-10s %-12s %-11s %-10s\n", "maxLen", "elements", "candidates", "confirmed", "all-pairs")
	for _, maxLen := range []int{8, 12, 0} {
		pairs, stats, err := interfere.Detect(g, parts, maxLen)
		if err != nil {
			return err
		}
		baseline := interfere.DetectAllPairs(parts)
		if len(pairs) != len(baseline) {
			return fmt.Errorf("join-based detection disagrees with all-pairs: %d vs %d",
				len(pairs), len(baseline))
		}
		fmt.Printf("%-8d %-10d %-12d %-11d %-10d\n",
			maxLen, stats.Elements, stats.Candidates, stats.Confirmed, stats.AllPairs)
	}
	return nil
}
