//go:build !race

package client

import (
	"context"
	"testing"

	"probe"
	"probe/internal/wire"
)

// TestAllocGateClient: what one request costs the client in
// allocations, by the shape of its answer. An empty RANGE costs
// nothing, which is what zbench reports as client.range_allocs; an
// answer of one batch costs what decoding that batch costs, because
// the decoded batch is the answer the call returns. The peer allocates
// nothing, so each count is the client's alone; a rise fails the
// build. Exact counts, so the file is left out of -race builds; CI
// runs `-run TestAllocGate` as its own step.
func TestAllocGateClient(t *testing.T) {
	const n = 64
	stats := make([]uint64, wire.NumStats)
	types := []uint8{wire.ColID}
	cols := []wire.SchemaCol{{Name: "id", Type: wire.ColID}}
	pts := make([]probe.Point, n)
	rows := make([]probe.QueryRow, n)
	for j := range pts {
		pts[j] = peerPoint(1, j)
		rows[j] = probe.QueryRow{uint64(1000 + j)} // above the small values Go boxes for free
	}
	// batch answers a request with one BATCH of n records of kind.
	batch := func(kind uint8, dims uint32, record func([]byte, int) []byte) func([]byte, uint32) []byte {
		return func(out []byte, id uint32) []byte {
			out, open := wire.BeginBatch(out, id, kind, dims)
			for j := 0; j < n; j++ {
				out = record(out, j)
			}
			out, _ = open.End(out, n)
			return out
		}
	}
	ctx, lo, hi := context.Background(), []uint32{3, 3}, []uint32{3, 3}
	items := []BoxItem{{ID: 1, Lo: lo, Hi: hi}}
	for _, tc := range []struct {
		name   string
		answer func(out []byte, id uint32) []byte // the frames before DONE
		call   func(*Conn) (int, error)           // the request; the records it returned
		want   float64
		size   int // records in the answer
	}{
		{"range-empty", func(out []byte, _ uint32) []byte { return out },
			func(c *Conn) (int, error) { pts, _, err := c.Range(ctx, lo, hi); return len(pts), err },
			0, 0},
		// The points and one coordinate arena.
		{"range", batch(wire.KindPoints, 2, func(b []byte, j int) []byte { return wire.AppendPoint(b, pts[j]) }),
			func(c *Conn) (int, error) { pts, _, err := c.Range(ctx, lo, hi); return len(pts), err },
			2, n},
		// The neighbours and one coordinate arena.
		{"nearest", batch(wire.KindNeighbors, 2, func(b []byte, j int) []byte { return wire.AppendNeighbor(b, pts[j], float64(j)) }),
			func(c *Conn) (int, error) {
				nbs, _, err := c.Nearest(ctx, lo, n, probe.Euclidean)
				return len(nbs), err
			},
			2, n},
		// The pairs.
		{"join", batch(wire.KindPairs, 0, func(b []byte, j int) []byte { return wire.AppendPair(b, uint64(j), uint64(n-j)) }),
			func(c *Conn) (int, error) { prs, _, err := c.Join(ctx, items, items, 0); return len(prs), err },
			1, n},
		// The QueryResult; the schema's columns and the one name; the
		// ROWS frame's type array, rows and cell arena, and a box a
		// value.
		{"query-id", func(out []byte, id uint32) []byte {
			out, _ = wire.AppendFrame(out, wire.MsgSchema, wire.SchemaMsg{ID: id, Cols: cols})
			out, open := wire.BeginRows(out, id, types)
			for _, row := range rows {
				out, _ = wire.AppendRow(out, types, row)
			}
			out, _ = open.End(out, n)
			return out
		}, func(c *Conn) (int, error) {
			res, err := c.Query(ctx, "SELECT id FROM points")
			if err != nil {
				return 0, err
			}
			return len(res.Rows), nil
		}, 1 + 2 + 3 + n, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := peerConn(t, func(out []byte, _ uint8, id uint32) []byte {
				out, _ = wire.AppendFrame(tc.answer(out, id), wire.MsgDone, wire.Done{ID: id, Stats: stats})
				return out
			})
			var err error
			got := tc.size
			allocs := testing.AllocsPerRun(200, func() {
				if k, cerr := tc.call(c); cerr != nil || k != tc.size {
					got, err = k, cerr
				}
			})
			if err != nil || got != tc.size {
				t.Fatalf("a request answered %d records, want %d: %v", got, tc.size, err)
			}
			// A context that can be cancelled adds what
			// context.AfterFunc costs (3 with the Go this was written
			// under), not gated because it is the standard library's
			// to change.
			if allocs != tc.want {
				t.Errorf("a %s round trip cost %v allocs, want %v", tc.name, allocs, tc.want)
			}
		})
	}
}
