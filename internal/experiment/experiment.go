// Package experiment is the harness that reproduces the paper's
// evaluation (Section 5.3.2 and Figure 6): it builds the zkd
// B+-tree over the U/C/D data sets (5000 points, 20 points per
// page), runs the query sweeps, measures data-page accesses and
// efficiency, compares them with the block-model predictions, and
// renders the page-boundary partition of the space.
package experiment

import (
	"fmt"
	"strings"

	"probe/internal/analysis"
	"probe/internal/core"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// Dataset selects one of the paper's three point distributions.
type Dataset int

const (
	// U: uniformly distributed points.
	U Dataset = iota
	// C: 50 small clusters of 100 points each.
	C
	// D: points uniformly distributed along the x=y diagonal.
	D
)

// String implements fmt.Stringer.
func (d Dataset) String() string {
	switch d {
	case U:
		return "U"
	case C:
		return "C"
	case D:
		return "D"
	}
	return fmt.Sprintf("Dataset(%d)", int(d))
}

// Config fixes an experiment's parameters. The defaults mirror the
// paper: 5000 points in 2d, page capacity 20 points, queries of four
// volumes and several shapes at five random locations each.
type Config struct {
	GridBits     int // bits per dimension
	Dims         int
	N            int // number of points
	LeafCapacity int // points per page
	PageSize     int
	PoolPages    int
	Seed         int64
	Locations    int // query placements per spec
	Strategy     core.Strategy
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		GridBits:     10,
		Dims:         2,
		N:            5000,
		LeafCapacity: 20,
		PageSize:     1024,
		PoolPages:    128,
		Seed:         1986,
		Locations:    5,
		Strategy:     core.MergeLazy,
	}
}

// Grid returns the configured grid.
func (c Config) Grid() zorder.Grid { return zorder.MustGrid(c.Dims, c.GridBits) }

// Points generates the configured data set.
func (c Config) Points(ds Dataset) []geom.Point {
	g := c.Grid()
	switch ds {
	case C:
		clusters := 50
		per := c.N / clusters
		return workload.Clustered(g, clusters, per, float64(g.Side())/80, c.Seed)
	case D:
		return workload.Diagonal(g, c.N, float64(g.Side())/256, c.Seed)
	default:
		return workload.Uniform(g, c.N, c.Seed)
	}
}

// Instance is a built experiment: the index plus its storage, ready
// for measured queries.
type Instance struct {
	Config Config
	Data   Dataset
	Index  *core.Index
	Store  *disk.MemStore
	Pool   *disk.Pool
	Model  *analysis.Model
}

// Build constructs the index for a data set.
func Build(cfg Config, ds Dataset) (*Instance, error) {
	store, err := disk.NewMemStore(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	pool, err := disk.NewPool(store, cfg.PoolPages, disk.LRU)
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndex(pool, cfg.Grid(), core.IndexConfig{LeafCapacity: cfg.LeafCapacity})
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(cfg.Points(ds)); err != nil {
		return nil, err
	}
	model, err := analysis.NewModel(cfg.Grid(), ix.Tree().LeafPages())
	if err != nil {
		return nil, err
	}
	return &Instance{Config: cfg, Data: ds, Index: ix, Store: store, Pool: pool, Model: model}, nil
}

// Row is one line of a Tables S5-S7 sweep: aggregates over the
// query placements of one (volume, aspect) spec.
type Row struct {
	Spec           workload.QuerySpec
	Queries        int
	AvgPages       float64
	MaxPages       int
	PredictedPages float64 // block-model prediction for this shape
	AvgResults     float64
	AvgEfficiency  float64
}

// RunSweep measures every query spec at cfg.Locations random
// placements. The buffer pool is invalidated before each query so the
// page counts are cold, as in the paper's measurements.
func (in *Instance) RunSweep(specs []workload.QuerySpec) ([]Row, error) {
	rows := make([]Row, 0, len(specs))
	for si, spec := range specs {
		boxes, err := workload.Queries(in.Index.Grid(), spec, in.Config.Locations, in.Config.Seed+int64(si)+1)
		if err != nil {
			return nil, err
		}
		row := Row{Spec: spec, Queries: len(boxes)}
		var predicted float64
		for _, box := range boxes {
			in.Pool.Invalidate()
			_, stats, err := in.Index.RangeSearch(box, in.Config.Strategy)
			if err != nil {
				return nil, err
			}
			row.AvgPages += float64(stats.DataPages)
			if stats.DataPages > row.MaxPages {
				row.MaxPages = stats.DataPages
			}
			row.AvgResults += float64(stats.Results)
			row.AvgEfficiency += stats.Efficiency(in.Config.LeafCapacity)
			predicted += in.Model.PredictPages(box)
		}
		n := float64(len(boxes))
		row.AvgPages /= n
		row.AvgResults /= n
		row.AvgEfficiency /= n
		row.PredictedPages = predicted / n
		rows = append(rows, row)
	}
	return rows, nil
}

// Findings summarizes the paper's four Section 5.3.2 observations
// over a sweep.
type Findings struct {
	// ShapeTrend: within each volume, the narrowest shapes cost at
	// least as many pages as the squarish ones.
	ShapeTrend bool
	// UpperBoundFrac is the fraction of rows whose measured average
	// is at or below the prediction ("the predicted results provided
	// an upper bound... except for a few data points").
	UpperBoundFrac float64
	// EfficiencyGrowsWithVolume: mean efficiency is nondecreasing
	// across the sorted volumes.
	EfficiencyGrowsWithVolume bool
	// BestAspect is the aspect ratio with the highest mean
	// efficiency (the paper: square or twice as tall as wide).
	BestAspect float64
	// LowEffLowPagesFrac is the fraction of bottom-quartile-efficiency
	// rows whose page count is below the median: the paper's "low
	// efficiency was usually accompanied by a low number of page
	// accesses (fortunately)".
	LowEffLowPagesFrac float64
}

// Summarize computes the Findings of a sweep.
func Summarize(rows []Row) Findings {
	var f Findings
	// Group rows by volume.
	byVol := map[float64][]Row{}
	var vols []float64
	for _, r := range rows {
		if _, ok := byVol[r.Spec.Volume]; !ok {
			vols = append(vols, r.Spec.Volume)
		}
		byVol[r.Spec.Volume] = append(byVol[r.Spec.Volume], r)
	}
	sortFloats(vols)

	// Shape trend: most-extreme aspect vs most-square aspect.
	f.ShapeTrend = true
	for _, v := range vols {
		group := byVol[v]
		var extreme, square *Row
		for i := range group {
			r := &group[i]
			if extreme == nil || aspectExtremity(r.Spec.Aspect) > aspectExtremity(extreme.Spec.Aspect) {
				extreme = r
			}
			if square == nil || aspectExtremity(r.Spec.Aspect) < aspectExtremity(square.Spec.Aspect) {
				square = r
			}
		}
		if extreme.AvgPages < square.AvgPages {
			f.ShapeTrend = false
		}
	}

	// Upper bound fraction.
	within := 0
	for _, r := range rows {
		if r.AvgPages <= r.PredictedPages {
			within++
		}
	}
	if len(rows) > 0 {
		f.UpperBoundFrac = float64(within) / float64(len(rows))
	}

	// Efficiency vs volume.
	f.EfficiencyGrowsWithVolume = true
	prev := -1.0
	for _, v := range vols {
		sum := 0.0
		for _, r := range byVol[v] {
			sum += r.AvgEfficiency
		}
		mean := sum / float64(len(byVol[v]))
		if mean < prev {
			f.EfficiencyGrowsWithVolume = false
		}
		prev = mean
	}

	// Low efficiency accompanied by low page counts.
	if len(rows) >= 4 {
		effs := make([]float64, len(rows))
		pages := make([]float64, len(rows))
		for i, r := range rows {
			effs[i] = r.AvgEfficiency
			pages[i] = r.AvgPages
		}
		sortFloats(effs)
		sortFloats(pages)
		effQ1 := effs[len(effs)/4]
		pageMedian := pages[len(pages)/2]
		low, lowAndCheap := 0, 0
		for _, r := range rows {
			if r.AvgEfficiency <= effQ1 {
				low++
				if r.AvgPages <= pageMedian {
					lowAndCheap++
				}
			}
		}
		if low > 0 {
			f.LowEffLowPagesFrac = float64(lowAndCheap) / float64(low)
		}
	}

	// Best aspect by mean efficiency across volumes.
	byAspect := map[float64]float64{}
	counts := map[float64]int{}
	for _, r := range rows {
		byAspect[r.Spec.Aspect] += r.AvgEfficiency
		counts[r.Spec.Aspect]++
	}
	best, bestEff := 0.0, -1.0
	for a, sum := range byAspect {
		eff := sum / float64(counts[a])
		if eff > bestEff {
			best, bestEff = a, eff
		}
	}
	f.BestAspect = best
	return f
}

func aspectExtremity(a float64) float64 {
	if a < 1 {
		a = 1 / a
	}
	return a
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// FormatRows renders a sweep as the table recorded in EXPERIMENTS.md.
func FormatRows(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-8s %-10s %-9s %-10s %-10s %-10s\n",
		"volume", "aspect", "avg-pages", "max", "predicted", "avg-hits", "efficiency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.4f %-8g %-10.1f %-9d %-10.1f %-10.1f %-10.3f\n",
			r.Spec.Volume, r.Spec.Aspect, r.AvgPages, r.MaxPages,
			r.PredictedPages, r.AvgResults, r.AvgEfficiency)
	}
	return b.String()
}

// LeafBoundaries returns the first z key of every leaf page, in
// order: the page partition of the space.
func (in *Instance) LeafBoundaries() ([]uint64, error) {
	var bounds []uint64
	snap := in.Index.Tree().Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	var last disk.PageID
	ok, err := c.First()
	for ok {
		if c.LeafID() != last {
			bounds = append(bounds, c.Key().Hi)
			last = c.LeafID()
		}
		ok, err = c.Next()
	}
	if err != nil {
		return nil, err
	}
	return bounds, nil
}

// RenderPartition draws Figure 6: the partitioning of the space
// induced by page boundaries, sampled onto a width x height character
// raster. Each cell shows a character identifying the leaf page
// covering the cell's center pixel; neighbouring cells with different
// pages therefore show the page boundaries.
func (in *Instance) RenderPartition(width, height int) (string, error) {
	if in.Index.Grid().Dims() != 2 || !in.Index.Grid().Symmetric() {
		return "", fmt.Errorf("experiment: partition rendering requires a symmetric 2d grid")
	}
	bounds, err := in.LeafBoundaries()
	if err != nil {
		return "", err
	}
	g := in.Index.Grid()
	const alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var b strings.Builder
	fmt.Fprintf(&b, "partition of %v into %d pages (experiment %v)\n", g, len(bounds), in.Data)
	for row := height - 1; row >= 0; row-- {
		for col := 0; col < width; col++ {
			x := uint32((uint64(col)*2 + 1) * g.Side() / uint64(2*width))
			y := uint32((uint64(row)*2 + 1) * g.Side() / uint64(2*height))
			z := g.ShuffleKey([]uint32{x, y})
			idx := pageOf(bounds, z)
			b.WriteByte(alphabet[idx%len(alphabet)])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// pageOf returns the index of the leaf whose z range covers z: the
// last boundary <= z (page 0 covers everything before the second
// boundary).
func pageOf(bounds []uint64, z uint64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= z {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}
