package main

import (
	"context"
	"fmt"

	"probe"
)

// verifyReads compares every kept read with the in-process library's
// answer on the same static points: the repository's differential
// contract, wire versus library. exact says no writes ran beside the
// reads, so answers must match in full; otherwise only the static
// part of an answer is determined and the checks are the ones that
// hold under any interleaving of the callers' writes. It returns the
// number of wrong answers and the first of them.
func verifyReads(ctx context.Context, grid probe.Grid, static []probe.Point, callers []*caller, exact bool) (int, error) {
	ref, err := probe.Open(grid, probe.WithBulkLoad(static), probe.WithPoolPages(4096))
	if err != nil {
		return 0, fmt.Errorf("reference database: %w", err)
	}
	defer ref.Close()
	lib := &embedTarget{db: ref, ctx: ctx}
	wrong, brute := 0, 0
	var first error
	bad := func(c *caller, ck *check, why string) {
		wrong++
		if first == nil {
			first = fmt.Errorf("caller %d %s: %s", c.idx, ck.o.kind, why)
		}
	}
	for _, c := range callers {
		for i := range c.checks {
			ck := &c.checks[i]
			want, err := lib.do(&ck.o, false)
			if err != nil {
				return wrong, fmt.Errorf("reference %s: %w", ck.o.kind, err)
			}
			got := ck.got
			switch {
			case ck.o.kind == opJoin, exact:
				if got.digest != want.digest || got.n != want.n {
					bad(c, ck, fmt.Sprintf("answer differs from the library's (%d vs %d results)", got.n, want.n))
				}
			case ck.o.kind == opRange, ck.o.kind == opScan:
				if got.digest != want.digest || got.n < want.n {
					bad(c, ck, fmt.Sprintf("static part differs from the library's (%d vs %d results)", got.n, want.n))
				}
			case ck.o.kind == opQuery && ck.o.count:
				if got.n < want.n {
					bad(c, ck, fmt.Sprintf("COUNT(*) %d below the static count %d", got.n, want.n))
				}
			}
			// The library checked against itself proves nothing on the
			// embedded path, so some ranges are also counted by hand.
			if exact && ck.o.kind == opRange && brute < 200 {
				brute++
				n := 0
				for _, p := range static {
					if p.Coords[0] >= ck.o.lo[0] && p.Coords[0] <= ck.o.hi[0] &&
						p.Coords[1] >= ck.o.lo[1] && p.Coords[1] <= ck.o.hi[1] {
						n++
					}
				}
				if n != got.n {
					bad(c, ck, fmt.Sprintf("%d results, %d points are in the box", got.n, n))
				}
			}
		}
	}
	return wrong, first
}

// verifySample re-reads, after the restart, a sample of the points
// whose insert or delete was acknowledged before the final checkpoint:
// inserted and not deleted must be present, deleted must be absent.
func verifySample(t target, callers []*caller, sampleN int) (int, error) {
	gone := make(map[uint64]bool)
	var all, deleted []probe.Point
	for _, c := range callers {
		for _, p := range c.deleted {
			gone[p.ID] = true
		}
		all = append(all, c.inserted...)
		deleted = append(deleted, c.deleted...)
	}
	wrong := 0
	var first error
	probeOne := func(p probe.Point, want bool) error {
		pts, err := t.points(p.Coords, p.Coords)
		if err != nil {
			return err
		}
		if containsAll(pts, []probe.Point{p}) != want {
			wrong++
			if first == nil {
				first = fmt.Errorf("point %d present=%v after the restart, want %v", p.ID, !want, want)
			}
		}
		return nil
	}
	stride := func(n int) int { return max(1, n/max(1, sampleN)) }
	for i := 0; i < len(all); i += stride(len(all)) {
		if err := probeOne(all[i], !gone[all[i].ID]); err != nil {
			return wrong, err
		}
	}
	for i := 0; i < len(deleted); i += stride(len(deleted)) {
		if err := probeOne(deleted[i], false); err != nil {
			return wrong, err
		}
	}
	return wrong, first
}
