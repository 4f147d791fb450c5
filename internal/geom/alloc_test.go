//go:build !race

package geom

import "testing"

// TestAllocGateNewBox: a box copies both bounds into one allocation.
// Exact counts, so the file is left out of -race builds.
func TestAllocGateNewBox(t *testing.T) {
	lo, hi := []uint32{1, 2, 3}, []uint32{4, 5, 6}
	var b Box
	if allocs := testing.AllocsPerRun(200, func() {
		b, _ = NewBox(lo, hi)
	}); allocs != 1 {
		t.Errorf("NewBox costs %v allocs, want 1", allocs)
	}
	if b.Lo = append(b.Lo, 9); b.Hi[0] != 4 {
		t.Errorf("an append to Lo wrote Hi[0] = %d", b.Hi[0])
	}
}
