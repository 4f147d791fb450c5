package btree

import (
	"fmt"

	"probe/internal/disk"
)

// Entry is one key for bulk loading: the tree stores keys only.
type Entry struct {
	Key Key
}

// Load builds a tree bottom-up from sorted, strictly increasing
// entries: leaves are packed left to right at the given fill (as a
// fraction of LeafCapacity, and of the page when it is derived; 0
// means full), then internal levels are built over them. A
// bulk-loaded tree satisfies the same invariants
// as one built by insertion but packs pages tighter — loading n
// entries costs O(n) page writes instead of O(n log n) page accesses.
// The finished tree is published as its first committed version.
func Load(pool *disk.Pool, cfg Config, entries []Entry, fill float64) (*Tree, error) {
	t, err := newTreeShell(pool, cfg)
	if err != nil {
		return nil, err
	}
	if fill == 0 {
		fill = 1
	}
	if fill < 0.5 || fill > 1 {
		return nil, fmt.Errorf("btree: fill %v outside [0.5, 1]", fill)
	}
	if len(entries) == 0 {
		// Degenerate load: a single empty root leaf, like New.
		return t, t.publishEmpty()
	}
	for i, e := range entries {
		if i > 0 && !entries[i-1].Key.Less(e.Key) {
			return nil, fmt.Errorf("btree: entries not strictly increasing at %d", i)
		}
		if err := t.checkKey(e.Key); err != nil {
			return nil, err
		}
	}
	// Level 0: pack leaves. At an explicit capacity chunkSizes
	// distributes the entries evenly over ceil(n/target) leaves, the
	// same leaves however wide the keys' frames are.
	var sizes []int
	if t.cfgCap == 0 {
		sizes = t.packLeaves(entries, fill)
	} else {
		sizes = chunkSizes(len(entries), max(int(fill*float64(t.leafCap)), 2), t.minLeaf)
	}
	type childRef struct {
		id  disk.PageID
		sep []byte // separator preceding this child (nil for first)
	}
	var level []childRef
	pos := 0
	for _, size := range sizes {
		// The entries go straight into the page's image.
		id, err := t.writeNew(func(img []byte) { t.putLeafImage(img, entries[pos:pos+size]) })
		if err != nil {
			return nil, err
		}
		var sep []byte
		if pos > 0 {
			sep = t.separator(entries[pos-1].Key, entries[pos].Key)
		}
		pos += size
		level = append(level, childRef{id: id, sep: sep})
	}

	// Build internal levels until one node remains.
	height := 1
	intTarget := t.fanout
	for len(level) > 1 {
		sizes := chunkSizes(len(level), intTarget, t.minChildren())
		var next []childRef
		pos := 0
		for ni, size := range sizes {
			n := &internalNode{}
			var nodeSep []byte
			for i := 0; i < size; i++ {
				c := level[pos]
				pos++
				if i == 0 {
					nodeSep = c.sep // promoted to the next level
					n.children = append(n.children, c.id)
					continue
				}
				n.children = append(n.children, c.id)
				n.seps = append(n.seps, c.sep)
			}
			if ni == 0 {
				nodeSep = nil
			}
			id, err := t.writeNew(n.encode)
			if err != nil {
				return nil, err
			}
			next = append(next, childRef{id: id, sep: nodeSep})
		}
		level = next
		height++
	}
	t.publishInitial(&version{
		root:   level[0].id,
		height: height,
		count:  len(entries),
		leaves: len(sizes),
	})
	return t, nil
}

// packLeaves cuts entries into leaves greedily by count and bytes: a
// leaf takes the next entry while both stay within fill of the count
// cap and of the page, and minLeaf entries, which fit at any frame, in
// any case. A last leaf under minLeaf takes what it lacks from the one
// before, or joins it when the two hold fewer than 2*minLeaf.
func (t *Tree) packLeaves(entries []Entry, fill float64) []int {
	maxCount, maxBytes := int(fill*float64(t.leafCap)), int(fill*float64(t.pageSize))
	var sizes []int
	for pos := 0; pos < len(entries); {
		n := min(max(t.fitSpan(entries[pos:], +1, maxCount, maxBytes), t.minLeaf), len(entries)-pos)
		sizes = append(sizes, n)
		pos += n
	}
	if k := len(sizes) - 1; k > 0 && sizes[k] < t.minLeaf {
		if sizes[k-1]+sizes[k] < 2*t.minLeaf {
			sizes[k-1] += sizes[k]
			sizes = sizes[:k]
		} else {
			sizes[k-1] -= t.minLeaf - sizes[k]
			sizes[k] = t.minLeaf
		}
	}
	return sizes
}

// chunkSizes splits n items into roughly ceil(n/target) chunks of
// nearly equal size, reducing the chunk count as needed so that every
// chunk holds at least min items (a single chunk is exempt — it
// becomes the root).
func chunkSizes(n, target, min int) []int {
	if n == 0 {
		return nil
	}
	chunks := (n + target - 1) / target
	if min > 0 && chunks > 1 {
		maxChunks := n / min
		if maxChunks < 1 {
			maxChunks = 1
		}
		if chunks > maxChunks {
			chunks = maxChunks
		}
	}
	base := n / chunks
	extra := n % chunks
	sizes := make([]int, chunks)
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}
