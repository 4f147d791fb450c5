//go:build !race

package decompose

import (
	"math/rand"
	"testing"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// The alloc gates (see internal/btree/alloc_test.go for why they stay
// out of -race builds): decomposing a box costs its answer and nothing
// else.

// gateBoxes are boxes as the benchmark's JOIN relations draw them:
// sides 8 to 64 anywhere on a 12-bit square grid.
func gateBoxes(g zorder.Grid, n int) []geom.Box {
	rng := rand.New(rand.NewSource(22))
	boxes := make([]geom.Box, n)
	for i := range boxes {
		w, h := uint32(8+rng.Intn(57)), uint32(8+rng.Intn(57))
		x, y := uint32(rng.Intn(4096-64)), uint32(rng.Intn(4096-64))
		boxes[i] = geom.Box2(x, x+w-1, y, y+h-1)
	}
	return boxes
}

func TestAllocGateDecomposeBox(t *testing.T) {
	g := zorder.MustGrid(2, 12)
	boxes := gateBoxes(g, 64)
	var dst []zorder.Element
	for _, b := range boxes {
		dst = AppendBox(dst[:0], g, b) // grow dst to the largest answer
	}
	i, elems := 0, 0
	if allocs := testing.AllocsPerRun(200, func() {
		dst = AppendBox(dst[:0], g, boxes[i%len(boxes)])
		i++
	}); allocs != 0 {
		t.Errorf("AppendBox into a dst with room costs %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		elems += len(Box(g, boxes[i%len(boxes)]))
		i++
	}); allocs > 2 {
		t.Errorf("Box costs %v allocs, want at most 2 (its result, and a buffer past 256 elements)", allocs)
	}
	var c Cursor
	if allocs := testing.AllocsPerRun(200, func() {
		c.ResetBox(g, boxes[i%len(boxes)])
		for c.Next() {
			elems++
		}
		i++
	}); allocs != 0 {
		t.Errorf("a Cursor's ResetBox and Next to the end cost %v allocs, want 0", allocs)
	}
	if elems == 0 {
		t.Fatal("no elements")
	}
}

func TestBoxIsSizedExactly(t *testing.T) {
	g := zorder.MustGrid(2, 12)
	for _, b := range gateBoxes(g, 64) {
		got := Box(g, b)
		if len(got) != cap(got) {
			t.Fatalf("Box(%v): len %d, cap %d", b, len(got), cap(got))
		}
		want, err := Object(g, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Box(%v): %d elements, Object %d", b, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Box(%v)[%d] = %v, Object %v", b, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkBox(b *testing.B) {
	g := zorder.MustGrid(2, 12)
	boxes := gateBoxes(g, 64)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += len(Box(g, boxes[i%len(boxes)]))
	}
	b.ReportMetric(float64(n)/float64(b.N), "elems/op")
}
