package core

import (
	"context"
	"fmt"
	"slices"

	"probe/internal/decompose"
	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/zorder"
)

// Item is one row of a decomposed object relation: an element tagged
// with the identifier of the object that produced it — the (id@, z)
// tuples that Decompose yields in Section 4.
type Item struct {
	Elem zorder.Element
	ID   uint64
}

// Pair records that object A (from the left relation) overlaps object
// B (from the right relation).
type Pair struct {
	A, B uint64
}

// SortItems sorts a decomposed relation into z order, the order the
// spatial join requires: by element (zorder.Element.Compare), then by
// id. It radix-sorts (radixSort) on the element's bits masked to its
// length, then the length, then the id, which is that order: O(n),
// with one scratch copy of the relation.
func SortItems(items []Item) {
	radixSort(items, 3, func(it *Item, w int) uint64 {
		switch w {
		case 0:
			return it.Elem.Bits &^ (^uint64(0) >> it.Elem.Len)
		case 1:
			return uint64(it.Elem.Len)
		}
		return it.ID
	})
}

// AppendBoxItems appends the decomposition of box, each element tagged
// with id, to dst: one object's rows of a decomposed relation. Up to
// 256 elements pass through the stack, so a caller that reuses dst
// pays nothing per box.
func AppendBoxItems(dst []Item, g zorder.Grid, box geom.Box, id uint64) []Item {
	var buf [256]zorder.Element
	for _, e := range decompose.AppendBox(buf[:0], g, box) {
		dst = append(dst, Item{Elem: e, ID: id})
	}
	return dst
}

// SpatialJoin computes R[zr <> zs]S: every pair of items (r, s) such
// that r's element contains s's or vice versa, i.e. their regions
// overlap. Both inputs must be sorted in z order (SortItems); an
// unsorted input is reported as an error.
//
// The algorithm is the stack-based sequence merge enabled by the key
// structural property of Section 3.2: the only possible relationships
// between elements are containment and precedence, so the set of
// "open" elements at any z position forms a nesting stack per input.
// Time is O(len(a) + len(b) + pairs).
//
// The same object pair is emitted once per overlapping element pair;
// project with DedupPairs, as the paper projects out zr and zs to
// eliminate the redundancy.
func SpatialJoin(a, b []Item) ([]Pair, error) {
	if err := checkSorted(a); err != nil {
		return nil, fmt.Errorf("core: left input: %w", err)
	}
	if err := checkSorted(b); err != nil {
		return nil, fmt.Errorf("core: right input: %w", err)
	}
	var pairs []Pair
	err := spatialJoinFunc(nil, itemSlice(a), itemSlice(b), new(obs.Counts), func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	return pairs, err
}

func checkSorted(items []Item) error {
	for i := 1; i < len(items); i++ {
		if items[i].Elem.Compare(items[i-1].Elem) < 0 {
			return fmt.Errorf("items not in z order at position %d", i)
		}
	}
	return nil
}

// joinCancelStride is how many merge steps a join runs between
// context checks: frequent enough that a cancelled join stops within
// microseconds, sparse enough that the ctx.Err call (a mutex
// acquisition on cancelable contexts) stays off the hot path.
const joinCancelStride = 1024

// itemSeq is one input of the join, a relation read front to back in
// z order: an in-memory one (itemSlice) or a stored one (storeCursor,
// which only the disk-resident join ablation in the tests uses).
// head is the current item, false once the input is exhausted; next
// moves past it and returns the sequence that remains.
type itemSeq[S any] interface {
	head() (Item, bool)
	next() (S, error)
}

// itemSlice is an in-memory relation as a join input. It is passed by
// value, so reading it allocates nothing.
type itemSlice []Item

func (s itemSlice) head() (Item, bool) {
	if len(s) == 0 {
		return Item{}, false
	}
	return s[0], true
}

func (s itemSlice) next() (itemSlice, error) { return s[1:], nil }

// spatialJoinFunc is the streaming form of SpatialJoin, over any pair
// of inputs. It counts on n one obs.MergeSteps per item the merge
// consumes and one obs.RawPairs per emitted pair. A non-nil ctx is
// checked every joinCancelStride merge steps; a nil ctx is never
// cancelled.
func spatialJoinFunc[S itemSeq[S]](ctx context.Context, a, b S, n *obs.Counts, fn func(Pair) bool) error {
	const total = zorder.MaxBits
	var stackA, stackB []Item
	pop := func(stack []Item, minZ uint64) []Item {
		for len(stack) > 0 && stack[len(stack)-1].Elem.MaxZ(total) < minZ {
			stack = stack[:len(stack)-1]
		}
		return stack
	}
	ia, okA := a.head()
	ib, okB := b.head()
	for okA || okB {
		n[obs.MergeSteps]++
		if ctx != nil && n[obs.MergeSteps]%joinCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		fromA := !okB || (okA && ia.Elem.Compare(ib.Elem) <= 0)
		var it Item
		var err error
		if fromA {
			it = ia
			a, err = a.next()
			ia, okA = a.head()
		} else {
			it = ib
			b, err = b.next()
			ib, okB = b.head()
		}
		if err != nil {
			return err
		}
		minZ := it.Elem.MinZ()
		stackA = pop(stackA, minZ)
		stackB = pop(stackB, minZ)
		if fromA {
			for _, s := range stackB {
				n[obs.RawPairs]++
				if !fn(Pair{A: it.ID, B: s.ID}) {
					return nil
				}
			}
			stackA = append(stackA, it)
		} else {
			for _, s := range stackA {
				n[obs.RawPairs]++
				if !fn(Pair{A: s.ID, B: it.ID}) {
					return nil
				}
			}
			stackB = append(stackB, it)
		}
	}
	return nil
}

// DedupPairs sorts the pairs by A, then B, and removes duplicates:
// the projection that eliminates the multiply-reported overlaps. The
// sort is a radix sort, O(n), with one scratch copy of the pairs.
func DedupPairs(pairs []Pair) []Pair {
	radixSort(pairs, 2, func(p *Pair, w int) uint64 {
		if w == 0 {
			return p.A
		}
		return p.B
	})
	return slices.Compact(pairs)
}

// SpatialJoinDistinct runs the join and the deduplicating projection,
// returning distinct overlapping object pairs plus statistics.
func SpatialJoinDistinct(a, b []Item) ([]Pair, QueryStats, error) {
	return SpatialJoinDistinctCtx(nil, a, b, nil)
}

// SpatialJoinDistinctCtx is SpatialJoinDistinct under a cancellation
// context, checked every joinCancelStride merge steps (nil = never
// cancelled). Its counts — input sizes, merge steps, raw and distinct
// pair counts — are its QueryStats, and are added to sp once if sp is
// not nil.
func SpatialJoinDistinctCtx(ctx context.Context, a, b []Item, sp *obs.Span) (out []Pair, stats QueryStats, err error) {
	var n obs.Counts
	n[obs.ItemsLeft], n[obs.ItemsRight] = int64(len(a)), int64(len(b))
	defer func() {
		sp.AddCounts(&n)
		stats = StatsOf(&n)
	}()
	if err := checkSorted(a); err != nil {
		return nil, stats, fmt.Errorf("core: left input: %w", err)
	}
	if err := checkSorted(b); err != nil {
		return nil, stats, fmt.Errorf("core: right input: %w", err)
	}
	var raw []Pair
	if err := spatialJoinFunc(ctx, itemSlice(a), itemSlice(b), &n, func(p Pair) bool {
		raw = append(raw, p)
		return true
	}); err != nil {
		return nil, stats, err
	}
	out = DedupPairs(raw)
	n[obs.DistinctPairs] = int64(len(out))
	return out, stats, nil
}
