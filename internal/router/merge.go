package router

import "probe"

// mergeNeighbors folds per-shard nearest-neighbor lists (each sorted
// by (dist, id), at most m long) into the global top m in the same
// order. Shard counts are tiny (≤ m each), so this sorts by k-way
// merge over slices for determinism rather than resorting.
func mergeNeighbors(lists [][]probe.Neighbor, m int) []probe.Neighbor {
	idx := make([]int, len(lists))
	out := make([]probe.Neighbor, 0, m)
	for len(out) < m {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best == -1 || neighborLess(l[idx[i]], lists[best][idx[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

func neighborLess(a, b probe.Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Point.ID < b.Point.ID
}
