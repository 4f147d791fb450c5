//go:build !race

package client

import (
	"context"
	"testing"

	"probe/internal/wire"
)

// TestAllocGateClientRange: the fixed cost in allocations of one
// request, a RANGE that answers no rows, which is what zbench reports
// as client.range_allocs. The peer allocates nothing, so the count is
// the client's alone; it is committed here, and a rise fails the
// build. Exact counts, so the file is left out of -race builds; CI runs
// `-run TestAllocGate` as its own step.
func TestAllocGateClientRange(t *testing.T) {
	stats := make([]uint64, wire.NumStats)
	c := peerConn(t, func(out []byte, _ uint8, id uint32) []byte {
		out, _ = wire.AppendFrame(out, wire.MsgDone, wire.Done{ID: id, Stats: stats})
		return out
	})
	ctx, lo, hi := context.Background(), []uint32{3, 3}, []uint32{3, 3}
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, rerr := c.Range(ctx, lo, hi); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A context that can be cancelled adds what context.AfterFunc costs
	// (3 with the Go this was written under), not gated because it is
	// the standard library's to change.
	if allocs != 0 {
		t.Errorf("an empty RANGE round trip cost %v allocs, want 0", allocs)
	}
}
