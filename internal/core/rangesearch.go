package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"probe/internal/btree"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/zorder"
)

// Strategy selects the range-search variant. All three produce
// identical results; they are the successive optimizations of
// Section 3.3 and exist side by side for the ablation benchmarks.
// Each is one seek of the same merge: they differ only in how the
// box's next element is found.
type Strategy int

const (
	// MergeDecomposed materializes the box's full element sequence B
	// and merges it against the point sequence P, using random
	// accesses on both sides to skip dead space (the base algorithm
	// plus the first optimization of Section 3.3).
	MergeDecomposed Strategy = iota
	// MergeLazy is MergeDecomposed with the second optimization:
	// elements of B are generated on demand by a decomposition
	// cursor, never materialized.
	MergeLazy
	// SkipBigMin dispenses with B altogether: the merge's seek
	// hands it the pixel of an in-box z, or else the next in-box
	// pixel, found by BigMin. It is the tightest form of the skip and
	// works for box queries only.
	SkipBigMin
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case MergeDecomposed:
		return "merge-decomposed"
	case MergeLazy:
		return "merge-lazy"
	case SkipBigMin:
		return "skip-bigmin"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// RangeSearch returns all indexed points inside the box, found by the
// given strategy: the ablation's entry point. The serving path is
// RangeSearchCtx.
func (ix *reader) RangeSearch(box geom.Box, strategy Strategy) ([]geom.Point, QueryStats, error) {
	return ix.searchAll(nil, box, strategy, nil)
}

// RangeSearchCtx is the serving path's range search: the lazy merge
// (MergeLazy) under a cancellation context (nil = never cancelled; see
// RangeSearchFuncCtx). Its counts — the merge's elements, data pages
// and results, the B+-tree cursor's traversal counters and the pool's
// counters of the cursor's page loads — are its QueryStats, and are
// added to sp once if sp is not nil.
func (ix *reader) RangeSearchCtx(ctx context.Context, box geom.Box, sp *obs.Span) ([]geom.Point, QueryStats, error) {
	return ix.searchAll(ctx, box, MergeLazy, sp)
}

// EstimatePages prices a range search on the box without running it:
// the leaves the box's elements, generated as the merge generates
// them, reach in the reader's version, counted on its internal pages
// (btree.Cursor.CountLeaves). It is Section 5's block structure as the
// tree has it, with no uniformity assumed.
func (ix *reader) EstimatePages(box geom.Box) (int, error) {
	if box.Dims() != ix.g.Dims() {
		return 0, fmt.Errorf("core: box has %d dims, index %d", box.Dims(), ix.g.Dims())
	}
	s := ix.take()
	defer ix.give(s)
	s.bc.ResetBox(ix.g, box)
	total := ix.g.TotalBits()
	return ix.cursor(s, nil).CountLeaves(func(z uint64) (uint64, uint64, bool, error) {
		e, ok, err := seekCursor(&s.bc, z)
		return e.MinZ(), e.MaxZ(total), ok, err
	})
}

// searchAll materializes a search at its final size: the keys collect
// in the scratch, then one slice of points and one slab of their
// coordinates hold the answer, whatever its length. A search that
// fails returns no points.
func (ix *reader) searchAll(ctx context.Context, box geom.Box, strategy Strategy, sp *obs.Span) ([]geom.Point, QueryStats, error) {
	s := ix.take()
	defer ix.give(s)
	s.keys = s.keys[:0]
	err := ix.searchKeys(s, ctx, box, strategy, func(z, id uint64) bool {
		s.keys = append(s.keys, btree.Key{Hi: z, Lo: id})
		return true
	})
	stats := s.stats(sp)
	if err != nil || len(s.keys) == 0 {
		return nil, stats, err
	}
	out := make([]geom.Point, len(s.keys))
	slab := make([]uint32, len(s.keys)*ix.g.Dims())
	for i, k := range s.keys {
		out[i] = ix.pointAt(slab, i, k.Hi, k.Lo)
	}
	return out, stats, nil
}

// pointAt makes the point of key (z, id) the i-th of an answer whose
// coordinates share slab, each capped at its own length so that a
// caller's append reallocates and cannot run into the next point's.
func (ix *reader) pointAt(slab []uint32, i int, z, id uint64) geom.Point {
	k := ix.g.Dims()
	c := slab[i*k : (i+1)*k : (i+1)*k]
	ix.unshuffle(z, c)
	return geom.Point{ID: id, Coords: c}
}

// RangeSearchFuncCtx is the streaming form of RangeSearchCtx. The
// context is threaded into both cursors of the merge — the B+-tree
// cursor checks it at every page-load boundary, the decomposition
// cursor at every element generation — so a cancelled search stops
// promptly with the context's error having read at most one further
// page. A nil context (the internal convention for "never cancelled")
// disables the checks at zero cost.
func (ix *reader) RangeSearchFuncCtx(ctx context.Context, box geom.Box, sp *obs.Span, fn func(geom.Point) bool) (QueryStats, error) {
	return ix.search(ctx, box, MergeLazy, sp, fn)
}

// RangeScanCtx is RangeSearchFuncCtx for a consumer that keeps nothing
// it is handed: every point's Coords is one buffer, which the next
// point overwrites, so the stream allocates nothing.
func (ix *reader) RangeScanCtx(ctx context.Context, box geom.Box, fn func(geom.Point) bool) (QueryStats, error) {
	s := ix.take()
	defer ix.give(s)
	at := s.at[:ix.g.Dims()]
	err := ix.searchKeys(s, ctx, box, MergeLazy, func(z, id uint64) bool {
		ix.unshuffle(z, at)
		return fn(geom.Point{ID: id, Coords: at})
	})
	return s.stats(nil), err
}

// JoinScanCtx is Section 4's spatial join of boxes against the points:
// it streams to fn every pair of a box, by its index in boxes, and a
// point inside it, in z order of the points. The boxes may overlap and
// nest. Each is decomposed on demand, as strategy B does, so the join
// holds one element per box, never a box's whole decomposition. As in
// RangeScanCtx, every point's Coords is one buffer, which the next
// point overwrites.
func (ix *reader) JoinScanCtx(ctx context.Context, boxes []geom.Box, fn func(box int, p geom.Point)) (QueryStats, error) {
	s := ix.take()
	defer ix.give(s)
	at := s.at[:ix.g.Dims()]
	var atZ uint64
	unshuffled := false
	bc := &s.bc
	err := ix.merge(s, ctx, len(boxes), func(i int, z uint64) (zorder.Element, bool, error) {
		bc.ResetBox(ix.g, boxes[i])
		bc.SetContext(ctx)
		return seekCursor(bc, z)
	}, func(i int, z, id uint64) bool {
		if !unshuffled || z != atZ { // once per point, however many boxes hold it
			ix.unshuffle(z, at)
			atZ, unshuffled = z, true
		}
		fn(i, geom.Point{ID: id, Coords: at})
		return true
	})
	return s.stats(nil), err
}

// scratch is the machinery of a search, everything that is not its
// answer: the counts of its work, the tree cursor with its page buffer
// per level and the sequence stepping it, the decomposition cursor,
// strategy A's element sequence, the merge's waiting and open
// elements, the keys of an answer being collected, NEAREST's box and
// candidates, the version a read of the live index pins, and a Pin's
// version and view. A search
// takes one from the pool, aims it at its own tree version and gives it
// back detached, so a warm read allocates what it returns and nothing
// else. The pool is per process, not per snapshot: the serving path
// pins a snapshot per query, so nothing smaller than the process
// outlives a search.
type scratch struct {
	counts obs.Counts
	pc     btree.Cursor
	ps     pointSeq
	bc     decompose.Cursor
	elems  []zorder.Element
	wait   []Item
	open   []Item
	keys   []btree.Key
	lo, hi [zorder.MaxBits]uint32
	at     [zorder.MaxBits]uint32
	best   []candidate
	pin    btree.Snapshot
	view   IndexSnapshot
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// keepLen bounds, in entries, each buffer a scratch keeps for its next
// search: one that a huge answer grew past it (NEAREST with a large k,
// a scan of the whole tree) is dropped on release, not pooled.
const keepLen = 4096

// kept is b emptied for the next search, or nil once it outgrew keepLen.
func kept[T any](b []T) []T {
	if cap(b) > keepLen {
		return nil
	}
	return b[:0]
}

// release detaches the cursors and drops the pin's version and view,
// so the pool holds no tree version, context or caller's box, trims the
// buffers to keepLen and recycles the scratch. A pin must be unpinned
// first.
func (s *scratch) release() {
	s.pc.Reset(nil)
	s.ps = pointSeq{}
	s.bc = decompose.Cursor{}
	s.pin, s.view = btree.Snapshot{}, IndexSnapshot{}
	s.elems, s.wait, s.open = kept(s.elems), kept(s.wait), kept(s.open)
	s.keys, s.best = kept(s.keys), kept(s.best)
	scratchPool.Put(s)
}

// take returns the scratch a search runs on, its counts zero: a Pin's
// own, or else one from the pool. On the live index it also pins the
// newest committed version into the scratch, so the whole call reads
// that one version. give hands back what take returned, unpinning what
// take pinned.
func (ix *reader) take() *scratch {
	s := ix.own
	if s == nil {
		s = scratchPool.Get().(*scratch)
		if ix.snap == nil {
			ix.tree.SnapshotInto(&s.pin)
		}
	}
	s.counts = obs.Counts{}
	return s
}

// stats is the QueryStats of the search on s, read off its counts,
// which a traced search adds to its span once.
func (s *scratch) stats(sp *obs.Span) QueryStats {
	sp.AddCounts(&s.counts)
	return StatsOf(&s.counts)
}

func (ix *reader) give(s *scratch) {
	if ix.own == nil {
		if ix.snap == nil {
			s.pin.Release()
		}
		s.release()
	}
}

// version is the tree version a search on s reads: the reader's
// snapshot, or on the live index the one take pinned.
func (ix *reader) version(s *scratch) *btree.Snapshot {
	if ix.snap != nil {
		return ix.snap
	}
	return &s.pin
}

// cursor aims the scratch's tree cursor at the version the search
// reads, counting on the scratch's counts.
func (ix *reader) cursor(s *scratch, ctx context.Context) *btree.Cursor {
	s.pc.Reset(ix.version(s))
	s.pc.SetCounts(&s.counts)
	s.pc.SetContext(ctx)
	return &s.pc
}

// search runs one range search by the given strategy on a scratch of
// its own, unshuffling each result into a point for fn; every exported
// range entry point funnels here.
func (ix *reader) search(ctx context.Context, box geom.Box, strategy Strategy, sp *obs.Span, fn func(geom.Point) bool) (QueryStats, error) {
	s := ix.take()
	defer ix.give(s)
	var slab coordSlab
	err := ix.searchKeys(s, ctx, box, strategy, func(z, id uint64) bool {
		coords := slab.take(ix.g.Dims())
		ix.unshuffle(z, coords)
		return fn(geom.Point{ID: id, Coords: coords})
	})
	return s.stats(sp), err
}

// unshuffle writes the coordinates of a point's z key into coords.
func (ix *reader) unshuffle(z uint64, coords []uint32) {
	ix.g.UnshuffleInto(zorder.Element{Bits: z, Len: uint8(ix.g.TotalBits())}, coords)
}

// searchKeys is the search itself: it streams the (z, id) keys of the
// points inside the box to visit, in z order, using s for the
// duration, and adds its work to s's counts. visit returning false
// stops it.
func (ix *reader) searchKeys(s *scratch, ctx context.Context, box geom.Box, strategy Strategy, visit func(z, id uint64) bool) error {
	if box.Dims() != ix.g.Dims() {
		return fmt.Errorf("core: box has %d dims, index %d", box.Dims(), ix.g.Dims())
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	total := ix.g.TotalBits()
	var seek seekFunc
	switch strategy {
	case MergeDecomposed:
		// Strategy A: materialize B, the box's elements, and seek in it.
		s.elems = decompose.AppendBox(s.elems[:0], ix.g, box)
		elems := s.elems
		i := 0
		seek = func(_ int, z uint64) (zorder.Element, bool, error) {
			i += sort.Search(len(elems)-i, func(j int) bool { return elems[i+j].MaxZ(total) >= z })
			if i == len(elems) {
				return zorder.Element{}, false, nil
			}
			return elems[i], true, nil
		}
	case MergeLazy:
		// Strategy B: generate B on demand by the decomposition
		// cursor, which checks ctx.
		bc := &s.bc
		bc.ResetBox(ix.g, box)
		bc.SetContext(ctx)
		seek = func(_ int, z uint64) (zorder.Element, bool, error) { return seekCursor(bc, z) }
	case SkipBigMin:
		// Strategy C: no elements of B, only pixels: BIGMIN finds the
		// first in-box pixel at or after z, z itself when it is in the box.
		bk := ix.g.BoxKeys(box.Lo, box.Hi)
		seek = func(_ int, z uint64) (zorder.Element, bool, error) {
			z, ok := bk.BigMin(z)
			if !ok {
				return zorder.Element{}, false, nil
			}
			return zorder.Element{Bits: z, Len: uint8(total)}, true, nil
		}
	default:
		return fmt.Errorf("core: unknown strategy %d", int(strategy))
	}
	elems := s.counts[obs.Elements]
	err := ix.merge(s, ctx, 1, seek, func(_ int, z, id uint64) bool { return visit(z, id) })
	if strategy == MergeDecomposed {
		// Strategy A generated all of B, not only what the merge reached.
		s.counts[obs.Elements] = elems + int64(len(s.elems))
	}
	return err
}

// pageTracker counts the distinct leaf pages a forward cursor touches:
// the range merge's and each input of a stored join's. A forward
// cursor never returns to a leaf it has left, so the distinct leaves
// are the changes of the leaf id.
type pageTracker struct {
	last  disk.PageID
	pages int
}

func (pt *pageTracker) touch(c *btree.Cursor) {
	if c.Valid() && (pt.pages == 0 || c.LeafID() != pt.last) {
		pt.last = c.LeafID()
		pt.pages++
	}
}

// coordSlab hands out the Coords of one search's results from chunked
// backing arrays: one allocation per chunk, not one per result. Chunks
// double up to 512 points, so a small answer stays small and a
// retained point pins at most one chunk. Each slice is capped at its
// own length, so a caller's append reallocates and cannot run into
// the next point's coordinates.
type coordSlab struct {
	free   []uint32
	points int // size of the last chunk, in points
}

func (s *coordSlab) take(k int) []uint32 {
	if len(s.free) < k {
		s.points = min(max(2*s.points, 8), 512)
		s.free = make([]uint32, k*s.points)
	}
	c := s.free[:k:k]
	s.free = s.free[k:]
	return c
}

// seekFunc positions box i of a merge on its first element whose z
// range ends at or after z, reporting false when there is none.
type seekFunc func(i int, z uint64) (zorder.Element, bool, error)

// merge is the merge of Section 4: the elements of n boxes, each box's
// disjoint and in z order, against the points, streaming to visit
// every (box, z, id) whose key lies in one of the box's elements, in z
// order. A box holds one element at a time, found by seek: the one
// containing the current key, which makes the box open, or the next
// after it, which makes it wait. When no box is open the cursor seeks
// to the least waiting start, so the merge reads only leaves an
// element reaches, each once, and tests no coordinate. It counts on s
// the elements its seeks find, the distinct leaves it reads and the
// keys it visits; visit returning false stops it.
func (ix *reader) merge(s *scratch, ctx context.Context, n int, seek seekFunc, visit func(i int, z, id uint64) bool) error {
	c := &s.counts
	total := ix.g.TotalBits()
	// An Item here is a box's element tagged with the box's index.
	wait, open := s.wait[:0], s.open[:0]
	defer func() { s.wait, s.open = wait, open }()
	for i := 0; i < n; i++ {
		e, ok, err := seek(i, 0)
		if err != nil {
			return err
		}
		if ok {
			c[obs.Elements]++
			wait = pushWaiting(wait, Item{Elem: e, ID: uint64(i)})
		}
	}
	if len(wait) == 0 {
		return nil
	}
	ps := ix.points(s, ctx)
	var pages pageTracker
	ok, err := ps.SeekGE(btree.Key{Hi: wait[0].Elem.MinZ()})
	pages.touch(ps.pc)
merge:
	for ok && err == nil {
		k := ps.Key()
		for len(wait) > 0 && wait[0].Elem.MinZ() <= k.Hi {
			open = append(open, wait[0])
			wait = popWaiting(wait)
		}
		still := open[:0]
		for _, it := range open {
			if it.Elem.MaxZ(total) < k.Hi {
				var more bool
				if it.Elem, more, err = seek(int(it.ID), k.Hi); !more {
					if err != nil {
						break merge
					}
					continue
				}
				c[obs.Elements]++
				if it.Elem.MinZ() > k.Hi {
					wait = pushWaiting(wait, it)
					continue
				}
			}
			still = append(still, it)
			c[obs.Results]++
			if !visit(int(it.ID), k.Hi, k.Lo) {
				break merge
			}
		}
		if open = still; len(open) > 0 {
			ok, err = ps.Next()
		} else if len(wait) > 0 {
			// Random access into P: skip to the next element's start.
			ok, err = ps.SeekGE(btree.Key{Hi: wait[0].Elem.MinZ()})
		} else {
			break
		}
		pages.touch(ps.pc)
	}
	c[obs.DataPages] += int64(pages.pages)
	return err
}

// pushWaiting adds it to wait, a min-heap of items by their element's
// start.
func pushWaiting(wait []Item, it Item) []Item {
	i := len(wait)
	wait = append(wait, it)
	for ; i > 0 && wait[i].Elem.MinZ() < wait[(i-1)/2].Elem.MinZ(); i = (i - 1) / 2 {
		wait[i], wait[(i-1)/2] = wait[(i-1)/2], wait[i]
	}
	return wait
}

// popWaiting drops wait's least item, wait[0].
func popWaiting(wait []Item) []Item {
	last := len(wait) - 1
	wait[0], wait = wait[last], wait[:last]
	for i := 0; ; {
		least := i
		for _, j := range [2]int{2*i + 1, 2*i + 2} {
			if j < last && wait[j].Elem.MinZ() < wait[least].Elem.MinZ() {
				least = j
			}
		}
		if least == i {
			return wait
		}
		wait[i], wait[least] = wait[least], wait[i]
		i = least
	}
}

// seekCursor is a merge's seek on a decomposition cursor aimed at the
// box: its first element whose z range ends at or after z. A cancelled
// cursor reports the context's error.
func seekCursor(bc *decompose.Cursor, z uint64) (zorder.Element, bool, error) {
	if !bc.Seek(z) {
		return zorder.Element{}, false, bc.Err()
	}
	return bc.Element(), true, nil
}

// PartialMatchCtx runs a partial-match query (Section 5.3.1) as a
// range search by the lazy merge: restricted[i] pins dimension i to
// value[i]. ctx cancels it (nil = never cancelled); its counts are
// added to sp if sp is not nil.
func (ix *reader) PartialMatchCtx(ctx context.Context, restricted []bool, value []uint32, sp *obs.Span) ([]geom.Point, QueryStats, error) {
	if len(restricted) != ix.g.Dims() || len(value) != ix.g.Dims() {
		return nil, QueryStats{}, fmt.Errorf("core: partial match arity mismatch")
	}
	return ix.searchAll(ctx, geom.PartialMatchBox(ix.g, restricted, value), MergeLazy, sp)
}
