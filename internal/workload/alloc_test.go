//go:build !race

package workload

import (
	"testing"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// TestAllocGateGenerators: a generator allocates per call, not per
// point (its random source, the points and one coordinate slab; Clustered also
// its center), and Dedupe its set alone. Exact counts, so the file is
// left out of -race builds.
func TestAllocGateGenerators(t *testing.T) {
	g := zorder.MustGrid(2, 12)
	in := append(Uniform(g, 5000, 1), Uniform(g, 5000, 1)...)
	work := make([]geom.Point, len(in))
	for _, c := range []struct {
		name string
		run  func(n int)
		want float64
	}{
		{"Uniform", func(n int) { Uniform(g, n, 1) }, 3},
		{"Clustered", func(n int) { Clustered(g, n/100, 100, 48, 1) }, 4},
		{"Diagonal", func(n int) { Diagonal(g, n, 8, 1) }, 3},
		{"Dedupe", func(n int) { Dedupe(g, work[:copy(work, in[:n])]) }, 1},
	} {
		for _, n := range []int{100, 10000} {
			if got := testing.AllocsPerRun(5, func() { c.run(n) }); got != c.want {
				t.Errorf("%s of %d points costs %v allocs, want %v", c.name, n, got, c.want)
			}
		}
	}
}
