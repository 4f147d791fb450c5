package core

import "probe/internal/btree"

// radixSort sorts recs stably into ascending order of their keys: the
// words key(r, 0), ..., key(r, words-1), words <= 3, as unsigned
// integers, the first most significant. It sorts by bytes, least
// significant first: one counting pass fills every byte position's
// histogram on the stack, then each position is one stable scatter
// between recs and one scratch slice. A position every record shares
// is skipped, and so are the trailing words recs already ascend on (a
// bulk load's ids in the order they were assigned). O(n) per position.
func radixSort[T any](recs []T, words int, key func(r *T, w int) uint64) {
	n := len(recs)
	if n < 2 {
		return
	}
	var count [3 * 8][256]int // a histogram per byte position
	var prev [3]uint64
	var unsorted [3]bool // some record is below its predecessor on words w..words-1
	for i := range recs {
		below := false // recs[i] is below recs[i-1] on words w..words-1
		for w := words - 1; w >= 0; w-- {
			x, c := key(&recs[i], w), (*[8][256]int)(count[w*8:])
			c[0][byte(x>>56)]++
			c[1][byte(x>>48)]++
			c[2][byte(x>>40)]++
			c[3][byte(x>>32)]++
			c[4][byte(x>>24)]++
			c[5][byte(x>>16)]++
			c[6][byte(x>>8)]++
			c[7][byte(x)]++
			if x != prev[w] {
				below = x < prev[w]
			}
			prev[w], unsorted[w] = x, unsorted[w] || below
		}
	}
	from := words // the scatters of words from..words-1 would leave recs as it is
	for w := words - 1; w >= 0; w-- {
		if !unsorted[w] {
			from = w
		}
	}
	src, dst := recs, []T(nil)
	for p := from*8 - 1; p >= 0; p-- {
		w, shift, c := p/8, 56-8*(p%8), &count[p]
		if c[byte(key(&src[0], w)>>shift)] == n {
			continue
		}
		if dst == nil {
			dst = make([]T, n)
		}
		sum := 0
		for v, m := range c {
			c[v], sum = sum, sum+m
		}
		for i := range src {
			v := byte(key(&src[i], w) >> shift)
			dst[c[v]] = src[i]
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}

// sortEntries sorts bulk-load entries into the tree's key order, by
// Hi, then Lo.
func sortEntries(es []btree.Entry) {
	radixSort(es, 2, func(e *btree.Entry, w int) uint64 {
		if w == 0 {
			return e.Key.Hi
		}
		return e.Key.Lo
	})
}
