package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"probe/internal/analysis"
	"probe/internal/decompose"
	"probe/internal/geom"
	"probe/internal/gridfile"
	"probe/internal/kdtree"
	"probe/internal/rtree"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// This file produces the remaining tables of EXPERIMENTS.md: the
// Section 5.1 space-requirements table, the Section 5.2 proximity
// table, the Section 5.3.1 partial-match table, and the kd-tree
// comparison.

// SpaceRow is one line of Table S1.
type SpaceRow struct {
	U, V     uint32
	E        int // elements in the decomposition of the U x V box
	EDoubled int // E(2U, 2V) on the doubled grid — equals E (cyclicity)
	BitSpan  int // positions between first and last 1 bits of U|V
	M        int // boundary expansion amount
	EExp     int // E after expanding boundaries by m bits
	AreaGrow float64
}

// SpaceTable sweeps E(U,V) for the Section 5.1 analysis: cyclicity,
// bit-span dependence and the boundary-expansion optimization
// (m = 4 unless the value is already aligned).
func SpaceTable(d int, pairs [][2]uint32) []SpaceRow {
	g := zorder.MustGrid(2, d)
	g2 := zorder.MustGrid(2, d+1)
	rows := make([]SpaceRow, 0, len(pairs))
	for _, p := range pairs {
		u, v := p[0], p[1]
		const m = 4
		// The table's sides are far below 2^32, so the expanded
		// values fit back into uint32.
		eu := uint32(decompose.ExpandBoundary(u, m))
		ev := uint32(decompose.ExpandBoundary(v, m))
		row := SpaceRow{
			U: u, V: v,
			E:        decompose.E(g, u, v),
			EDoubled: decompose.E(g2, 2*u, 2*v),
			BitSpan:  bitSpan(u | v),
			M:        m,
			EExp:     decompose.E(g, eu, ev),
			AreaGrow: float64(eu)*float64(ev)/(float64(u)*float64(v)) - 1,
		}
		rows = append(rows, row)
	}
	return rows
}

// bitSpan returns the number of bit positions between the first and
// last 1 bits of x, inclusive (0 for x == 0).
func bitSpan(x uint32) int {
	if x == 0 {
		return 0
	}
	hi := 31
	for x&(1<<uint(hi)) == 0 {
		hi--
	}
	lo := 0
	for x&(1<<uint(lo)) == 0 {
		lo++
	}
	return hi - lo + 1
}

// FormatSpaceTable renders Table S1.
func FormatSpaceTable(rows []SpaceRow) string {
	var b strings.Builder
	b.WriteString("Table S1: space requirements E(U,V) (Section 5.1)\n")
	fmt.Fprintf(&b, "%-6s %-6s %-8s %-9s %-8s %-4s %-8s %-9s\n",
		"U", "V", "E(U,V)", "E(2U,2V)", "bitspan", "m", "E(expd)", "area+%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-6d %-8d %-9d %-8d %-4d %-8d %-9.1f\n",
			r.U, r.V, r.E, r.EDoubled, r.BitSpan, r.M, r.EExp, r.AreaGrow*100)
	}
	return b.String()
}

// FormatProximityTable renders Table S2 from analysis samples.
func FormatProximityTable(samples []analysis.ProximitySample) string {
	var b strings.Builder
	b.WriteString("Table S2: proximity preservation (Section 5.2)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-12s %-12s %-12s %-10s\n",
		"spatial-d", "pairs", "mean-zd", "median-zd", "p90-zd", "frac-close")
	for _, s := range samples {
		fmt.Fprintf(&b, "%-10d %-8d %-12.0f %-12.0f %-12.0f %-10.2f\n",
			s.SpatialDist, s.Pairs, s.MeanZDist, s.MedianZDist, s.P90ZDist, s.FracZClose)
	}
	return b.String()
}

// PartialRow is one line of Table S4.
type PartialRow struct {
	K, T      int
	Queries   int
	AvgPages  float64
	Predicted float64
}

// RunPartialMatch measures partial-match queries restricting t of k
// dimensions against the O(N^(1-t/k)) prediction.
func (in *Instance) RunPartialMatch(masks [][]bool) ([]PartialRow, error) {
	g := in.Index.Grid()
	rows := make([]PartialRow, 0, len(masks))
	for mi, mask := range masks {
		t := 0
		for _, r := range mask {
			if r {
				t++
			}
		}
		boxes := workload.PartialMatches(g, mask, in.Config.Locations, in.Config.Seed+100+int64(mi))
		row := PartialRow{K: g.Dims(), T: t, Queries: len(boxes)}
		for _, box := range boxes {
			in.Pool.Invalidate()
			_, stats, err := in.Index.RangeSearch(box, in.Config.Strategy)
			if err != nil {
				return nil, err
			}
			row.AvgPages += float64(stats.DataPages)
		}
		row.AvgPages /= float64(len(boxes))
		pred, err := in.Model.PredictPartialMatch(t)
		if err != nil {
			return nil, err
		}
		row.Predicted = pred
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPartialTable renders Table S4.
func FormatPartialTable(rows []PartialRow) string {
	var b strings.Builder
	b.WriteString("Table S4: partial match O(N^(1-t/k)) (Section 5.3.1)\n")
	fmt.Fprintf(&b, "%-4s %-4s %-8s %-10s %-10s\n", "k", "t", "queries", "avg-pages", "predicted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %-4d %-8d %-10.1f %-10.1f\n", r.K, r.T, r.Queries, r.AvgPages, r.Predicted)
	}
	return b.String()
}

// KdRow is one line of Table S8: the zkd B+-tree vs the bucket kd
// tree and the grid file [NIEV84] on the same workload.
type KdRow struct {
	Spec        workload.QuerySpec
	ZkdPages    float64
	KdLeaves    float64
	GridBuckets float64
	RtreeLeaves float64
	ZkdN        int // total leaf pages in the B+-tree
	KdN         int // total leaves in the kd tree
	GridN       int // total buckets in the grid file
	RtreeN      int // total leaves in the R-tree
}

// RunKdComparison runs the sweep on all three structures. The kd
// tree's buckets and the grid file's buckets hold the same number of
// points as the B+-tree's leaves.
func (in *Instance) RunKdComparison(specs []workload.QuerySpec) ([]KdRow, error) {
	pts := in.Config.Points(in.Data)
	kt, err := kdtree.BuildBucket(pts, in.Config.LeafCapacity)
	if err != nil {
		return nil, err
	}
	gf, err := gridfile.New(in.Index.Grid(), in.Config.LeafCapacity)
	if err != nil {
		return nil, err
	}
	rt, err := rtree.New(in.Index.Grid().Dims(), in.Config.LeafCapacity)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if err := gf.Insert(p); err != nil {
			return nil, err
		}
		if err := rt.Insert(p); err != nil {
			return nil, err
		}
	}
	rows := make([]KdRow, 0, len(specs))
	for si, spec := range specs {
		boxes, err := workload.Queries(in.Index.Grid(), spec, in.Config.Locations, in.Config.Seed+int64(si)+1)
		if err != nil {
			return nil, err
		}
		row := KdRow{
			Spec: spec,
			ZkdN: in.Index.Tree().LeafPages(), KdN: kt.Leaves(),
			GridN: gf.Buckets(), RtreeN: rt.Leaves(),
		}
		for _, box := range boxes {
			in.Pool.Invalidate()
			zres, stats, err := in.Index.RangeSearch(box, in.Config.Strategy)
			if err != nil {
				return nil, err
			}
			kres, leaves := kt.RangeSearch(box)
			gres, buckets := gf.RangeSearch(box)
			rres, _, rleaves := rt.RangeSearch(box)
			if len(zres) != len(kres) || len(zres) != len(gres) || len(zres) != len(rres) {
				return nil, fmt.Errorf("experiment: structures disagree: %d vs %d vs %d vs %d results",
					len(zres), len(kres), len(gres), len(rres))
			}
			row.ZkdPages += float64(stats.DataPages)
			row.KdLeaves += float64(leaves)
			row.GridBuckets += float64(buckets)
			row.RtreeLeaves += float64(rleaves)
		}
		n := float64(len(boxes))
		row.ZkdPages /= n
		row.KdLeaves /= n
		row.GridBuckets /= n
		row.RtreeLeaves /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatKdTable renders Table S8.
func FormatKdTable(rows []KdRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-11s %-10s %-12s %-12s %-8s\n",
		"volume", "aspect", "zkd-pages", "kd-leaves", "grid-bkts", "rtree-lvs", "zkd/kd")
	for _, r := range rows {
		ratio := 0.0
		if r.KdLeaves > 0 {
			ratio = r.ZkdPages / r.KdLeaves
		}
		fmt.Fprintf(&b, "%-10.4f %-8g %-11.1f %-10.1f %-12.1f %-12.1f %-8.2f\n",
			r.Spec.Volume, r.Spec.Aspect, r.ZkdPages, r.KdLeaves, r.GridBuckets, r.RtreeLeaves, ratio)
	}
	return b.String()
}

// PaperSpacePairs returns the (U, V) pairs used for Table S1,
// covering aligned, nearly aligned and worst-case bit patterns.
func PaperSpacePairs() [][2]uint32 {
	return [][2]uint32{
		{32, 32},
		{33, 33},
		{31, 31},
		{63, 63},
		{64, 64},
		{0b01101101, 0b01011011},
		{100, 100},
		{96, 96},
		{127, 1},
		{1, 127},
		{85, 51},
	}
}

// checkVolumeBox is kept for tests: predicted pages of the full space
// equal N.
func (in *Instance) fullSpacePrediction() float64 {
	return in.Model.PredictPages(geom.FullBox(in.Index.Grid()))
}

// BlockRow is the measured pages-per-block distribution of Section
// 5.2: under the fixed-size-page assumption, the number of pages per
// (aligned, equal-size) block is bounded by a constant — 6 in 2d.
type BlockRow struct {
	BlockBits int // block side = 2^BlockBits
	Blocks    int
	MeanPages float64
	MaxPages  int
}

// MeasurePagesPerBlock tiles the space with aligned square blocks
// sized so that there are about N/6 of them (each block should hold
// about the bound's worth of pages) and counts, for each block, how
// many leaf pages overlap its z range.
func (in *Instance) MeasurePagesPerBlock() (BlockRow, error) {
	g := in.Index.Grid()
	bounds, err := in.LeafBoundaries()
	if err != nil {
		return BlockRow{}, err
	}
	n := len(bounds)
	ppb := analysis.PagesPerBlock(g.Dims())
	targetBlocks := float64(n) / ppb
	if targetBlocks < 1 {
		targetBlocks = 1
	}
	// Aligned blocks have side 2^m; blocks count = (side/2^m)^k.
	perDim := math.Pow(targetBlocks, 1/float64(g.Dims()))
	m := g.BitsPerDim() - int(math.Round(math.Log2(perDim)))
	if m < 0 {
		m = 0
	}
	if m > g.BitsPerDim() {
		m = g.BitsPerDim()
	}
	// Each block is an element of length k*(d-m): iterate them in z
	// order; their z ranges tile the key space.
	prefixBits := g.Dims() * (g.BitsPerDim() - m)
	blocks := 1 << uint(prefixBits)
	row := BlockRow{BlockBits: m, Blocks: blocks}
	total := 0
	for b := 0; b < blocks; b++ {
		e := zorder.NewElement(uint64(b), prefixBits)
		lo, hi := e.MinZ(), e.MaxZ(g.TotalBits())
		// Pages overlapping = boundaries in (lo, hi] plus the page
		// covering lo.
		first := sort.Search(len(bounds), func(i int) bool { return bounds[i] > lo })
		last := sort.Search(len(bounds), func(i int) bool { return bounds[i] > hi })
		pages := last - first + 1
		total += pages
		if pages > row.MaxPages {
			row.MaxPages = pages
		}
	}
	row.MeanPages = float64(total) / float64(blocks)
	return row, nil
}
