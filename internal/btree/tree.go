package btree

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"probe/internal/disk"
)

// Config tunes a tree.
type Config struct {
	// LeafCapacity is the maximum number of entries per leaf, at most
	// what fits the page at the widest frame (node.go) and 65 535. Zero
	// derives the capacity from the page: a leaf is then bounded by its
	// bytes, at the frame its keys need, and by the 65 535 entries its
	// header counts, and a full leaf spreads over itself and its
	// neighbours, as many leaves or one more, before it is cut alone into
	// the fewest leaves that fit (recutLeaf). An explicit capacity splits
	// a full leaf in half, so it gives the same leaves whatever frames the
	// keys need. At either capacity an underfull leaf is re-cut with its
	// neighbours, into one leaf fewer when they fit, else as many. The
	// paper's experiments use 20.
	LeafCapacity int
	// KeyBits is how many leading bits of Key.Hi a stored key may set;
	// zero means all 64. The tree stores only the bytes of Hi those
	// bits reach, so a narrower key packs more entries into a leaf.
	KeyBits int
}

// Tree is a prefix B+-tree over disk pages with multi-version
// concurrency control.
//
// Thread safety: the tree is a chain of immutable versions (see
// version.go). Reads — Get, the accessors and Snapshot views — pin a
// committed version and traverse its pages without any tree-wide lock,
// so they never block behind a writer. Structural writes (Insert,
// Delete) serialize on an internal writer mutex, build new pages along
// the modified path, and publish a new root with one atomic commit. A
// Snapshot observes exactly one committed version for its whole
// lifetime, and so does every cursor: a cursor comes from
// Snapshot.Cursor and reads its snapshot's version.
type Tree struct {
	pool     *disk.Pool
	pageSize int
	keyBits  int // leading bits of Key.Hi a stored key may set
	keyLen   int // bytes of an encoded key
	leafCap  int // max entries of a leaf
	minLeaf  int // min entries of a leaf other than the root
	cfgCap   int // Config.LeafCapacity: 0 derives leafCap and bounds leaves by bytes
	fanout   int // max children of an internal node

	// writeMu serializes structural writers (Insert, Delete, and
	// version publication from Load). It guards the writer's buffers,
	// kept for the next write: leaf, the keys of the leaf a write edits,
	// and window, those of the leaves a re-cut spreads over (recutLeaf).
	writeMu sync.Mutex
	leaf    []Entry
	window  []Entry

	// verMu guards the version chain: cur, pin counts, and the retire
	// queue. It is held only for pointer-sized critical sections —
	// never across page I/O — so readers pinning a version contend
	// only momentarily with a committing writer.
	verMu         sync.Mutex
	cur           *version
	pinnedVers    []*version  // versions with pins > 0
	retired       []retireSet // superseded pages awaiting GC
	retainedPages int
	freedPages    uint64
	freeFailures  uint64

	// commits is the key-set log of published versions, kept for
	// transaction validation (tx.go); prunedSeq is the highest record
	// sequence already pruned. Both guarded by verMu.
	commits   []commitRecord
	prunedSeq uint64
}

// newTreeShell validates the geometry and returns a Tree with no
// published version yet; callers publish one via publishInitial.
func newTreeShell(pool *disk.Pool, cfg Config) (*Tree, error) {
	ps := pool.Store().PageSize()
	leafCapacity, keyBits := cfg.LeafCapacity, cfg.KeyBits
	if keyBits < 0 || keyBits > 64 {
		return nil, fmt.Errorf("btree: key bits %d outside [0,64]", keyBits)
	}
	if keyBits == 0 {
		keyBits = 64
	}
	keyLen := keyLenFor(keyBits)
	minCap := leafMinCap(ps, keyLen)
	if minCap < 2 {
		return nil, fmt.Errorf("btree: page size %d cannot hold 2 keys of %d bytes", ps, keyLen)
	}
	leafCap, minLeaf := leafCapacity, leafCapacity/2
	if leafCap == 0 {
		// A leaf of minLeaf entries fits at any frame, and so does an
		// underfull leaf with a neighbour of minLeaf (at most 2*minLeaf-1
		// entries), so an underfull window always has a cut (recutLeaf).
		// Otherwise a leaf is bounded by its bytes and by the count its
		// header holds.
		leafCap, minLeaf = maxCount, minCap/2
	} else if leafCap < 2 || leafCap > minCap {
		return nil, fmt.Errorf("btree: leaf capacity %d outside [2,%d]", leafCapacity, minCap)
	}
	// The fanout that held each separator behind a 2-byte length, kept
	// so that every node keeps its children: with the lengths gone the
	// page has 2 bytes a separator to spare (internalBytes).
	// internalHeaderLen + fanout*4 + (fanout-1)*(2+keyLen) <= ps
	fanout := min((ps-internalHeaderLen+2+keyLen)/(4+2+keyLen), maxCount)
	if fanout < 4 {
		return nil, fmt.Errorf("btree: page size %d too small for internal nodes", ps)
	}
	return &Tree{pool: pool, pageSize: ps, keyBits: keyBits, keyLen: keyLen,
		leafCap: leafCap, minLeaf: minLeaf, cfgCap: leafCapacity, fanout: fanout}, nil
}

// leafMinCap is the number of entries that fit a page of pageSize
// bytes at the widest frame, whatever their keyLen-byte keys: each
// entry keyLen bytes and each block base keyLen-8, the whole width of
// the z bytes.
func leafMinCap(pageSize, keyLen int) int {
	zw := 8 * (keyLen - 8)
	widest := leafFrame{zbits: zw, bbits: zw, ibits: 64}
	n := min((pageSize-leafHeaderLen(keyLen))/keyLen, maxCount)
	for n > 0 && leafBytes(n, widest, keyLen) > pageSize {
		n--
	}
	return n
}

// fitLeaf returns the canonical frame of a leaf holding es and whether
// es may be one leaf: at most leafCap entries in an image, at that
// frame, no larger than the page. At an explicit capacity the image
// always fits.
func (t *Tree) fitLeaf(es []Entry) (leafFrame, bool) {
	f := frameOf(es, t.keyLen)
	return f, len(es) <= t.leafCap && leafBytes(len(es), f, t.keyLen) <= t.pageSize
}

// fitSpan returns the length of the longest run of es, taken from its
// front (step +1) or its back (step -1), of at most maxCount entries
// whose image at its canonical frame is at most maxBytes, and one entry
// at least; es is not empty. A shorter run's image is never larger, so
// one frameScan runs to the first entry that no frame fits. It also
// returns the run's frame from that scan, which from the front is the
// run's canonical frame (frameOf).
func (t *Tree) fitSpan(es []Entry, step, maxCount, maxBytes int) (int, leafFrame) {
	i := 0
	if step < 0 {
		i = len(es) - 1
	}
	s := newFrameScan(t.keyLen, es[i].Key, step < 0)
	n := 1
	for ; n < min(len(es), maxCount); n++ {
		prev := s
		s.add(es[i+n*step : i+n*step+1])
		if _, size := s.shape(); size > maxBytes {
			s = prev
			break
		}
	}
	return n, s.frame()
}

// checkKey refuses a key the tree cannot store: one that sets a bit
// of Hi below the leading KeyBits.
func (t *Tree) checkKey(k Key) error {
	if k.Hi<<uint(t.keyBits) != 0 {
		return fmt.Errorf("btree: %v sets bits below the tree's %d key bits", k, t.keyBits)
	}
	return nil
}

// publishInitial installs v as version 1 of a freshly built tree.
func (t *Tree) publishInitial(v *version) {
	v.seq = 1
	t.cur = v
}

// New creates an empty tree on the pool.
func New(pool *disk.Pool, cfg Config) (*Tree, error) {
	t, err := newTreeShell(pool, cfg)
	if err != nil {
		return nil, err
	}
	return t, t.publishEmpty()
}

// publishEmpty publishes a single empty root leaf as the tree's first
// version.
func (t *Tree) publishEmpty() error {
	id, err := t.writeNew(func(img []byte) { encodeLeaf(img, nil, leafFrame{}, t.keyLen) })
	if err != nil {
		return err
	}
	t.publishInitial(&version{root: id, height: 1, leaves: 1})
	return nil
}

// writeNew allocates a page, encodes its image into a new buffer and
// Puts it.
func (t *Tree) writeNew(encode func([]byte)) (disk.PageID, error) {
	id, err := t.pool.Store().Allocate()
	if err != nil {
		return disk.InvalidPage, err
	}
	img := make([]byte, t.pageSize)
	encode(img)
	return id, t.pool.Put(id, img)
}

// Meta is the persistent identity of a tree: everything needed to
// reattach to its pages after the process restarts. A durable caller
// serializes it at each checkpoint and hands it back to Attach on
// reopen. Meta describes one committed version; the version sequence
// itself is process-local and restarts at 1 on Attach.
type Meta struct {
	Root         disk.PageID
	Height       int // 1 = root is a leaf
	Count        int
	Leaves       int
	LeafCapacity int // as configured: 0 when derived from the page size
	KeyBits      int // as Config.KeyBits; it fixes the page layout
}

// Meta returns the persistent metadata of the current committed
// version.
func (t *Tree) Meta() Meta {
	v := t.currentVersion()
	return Meta{
		Root:         v.root,
		Height:       v.height,
		Count:        v.count,
		Leaves:       v.leaves,
		LeafCapacity: t.cfgCap,
		KeyBits:      t.keyBits,
	}
}

// Attach reattaches to an existing tree whose pages live on the
// pool's store, using metadata captured by Meta. It validates the
// geometry against the store's page size but does not touch any
// pages; the first operation does. A derived capacity (0) is derived
// again from the page size.
func Attach(pool *disk.Pool, m Meta) (*Tree, error) {
	t, err := newTreeShell(pool, Config{LeafCapacity: m.LeafCapacity, KeyBits: m.KeyBits})
	if err != nil {
		return nil, err
	}
	if m.Root == disk.InvalidPage || m.Height < 1 || m.Count < 0 || m.Leaves < 1 {
		return nil, fmt.Errorf("btree: implausible tree metadata %+v", m)
	}
	t.publishInitial(&version{root: m.Root, height: m.Height, count: m.Count, leaves: m.Leaves})
	return t, nil
}

// Len returns the number of entries in the current committed version.
func (t *Tree) Len() int { return t.currentVersion().count }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.currentVersion().height }

// LeafPages returns the number of leaf pages, the N of the paper's
// O(vN) page-access analysis.
func (t *Tree) LeafPages() int { return t.currentVersion().leaves }

// LeafCapacity returns the maximum entries per leaf: the configured
// capacity, or 65 535, the most a leaf header counts, for a derived one
// (see Config).
func (t *Tree) LeafCapacity() int { return t.leafCap }

// Pool returns the buffer pool the tree lives on.
func (t *Tree) Pool() *disk.Pool { return t.pool }

// searchLeaf returns the index of the first key >= k in the leaf.
func searchLeaf(n []Entry, k Key) int {
	return sort.Search(len(n), func(i int) bool { return !n[i].Key.Less(k) })
}

// getAt reports whether the key is in one committed version. The
// caller must hold a pin on v (or be the serialized writer). Each page
// is searched in its pool image.
func (t *Tree) getAt(v *version, k Key) (bool, error) {
	sk := k.ceil(t.keyLen)
	id := v.root
	for level := v.height; level > 1; level-- {
		p, err := t.viewInternal(id)
		if err != nil {
			return false, err
		}
		id = p.child(p.childIndex(sk))
	}
	data, err := t.pool.View(id, nil)
	if err != nil {
		return false, err
	}
	var bases [stackBases]uint64
	p := leafPage{bases: bases[:0]}
	if err := p.view(data, t.keyLen); err != nil {
		return false, err
	}
	i, key := p.search(k)
	return i < p.count && key == k, nil
}

// Get reports whether the key is in the current committed version.
// The tree stores keys only, so the value is always nil.
func (t *Tree) Get(k Key) ([]byte, bool, error) {
	v := t.pin()
	defer t.unpin(v)
	found, err := t.getAt(v, k)
	return nil, found, err
}

// ErrDuplicateKey is returned by Insert when the exact key exists.
var ErrDuplicateKey = fmt.Errorf("btree: duplicate key")

// cow accumulates the page bookkeeping of one copy-on-write
// transformation: pages freshly written (to drop again if the write
// aborts) and old pages superseded by the new version (to retire at
// commit). Every page is encoded into a buffer of its own and Put. A
// fresh page is reachable from no published version, so a batch gives
// each published page it rewrites one new id and Puts its own copies
// again under theirs; no image a reader may hold is written into.
type cow struct {
	t       *Tree
	fresh   map[disk.PageID]struct{}
	retired []disk.PageID
}

// put Puts img in place of page old and returns its id. A fresh old
// keeps its id; a published one is immutable, so the image goes to a
// new page and old retires. disk.InvalidPage as old asks for a new
// page that replaces nothing.
func (w *cow) put(old disk.PageID, img []byte) (disk.PageID, error) {
	id := old
	if _, ok := w.fresh[old]; !ok {
		var err error
		if id, err = w.t.pool.Store().Allocate(); err != nil {
			return disk.InvalidPage, err
		}
		if w.fresh == nil {
			w.fresh = make(map[disk.PageID]struct{})
		}
		w.fresh[id] = struct{}{}
		if old != disk.InvalidPage {
			w.retired = append(w.retired, old)
		}
	}
	return id, w.t.pool.Put(id, img)
}

// putLeafIn writes the leaf holding es in its canonical frame f in
// place of page old (see put) and returns its id.
func (w *cow) putLeafIn(old disk.PageID, es []Entry, f leafFrame) (disk.PageID, error) {
	img := make([]byte, w.t.pageSize)
	encodeLeaf(img, es, f, w.t.keyLen)
	return w.put(old, img)
}

// putInternal is putLeafIn for a decoded internal node.
func (w *cow) putInternal(old disk.PageID, n *internalNode) (disk.PageID, error) {
	img := make([]byte, w.t.pageSize)
	n.encode(img, w.t.keyLen)
	return w.put(old, img)
}

// retire marks a page no node replaces (a merge's right half, a
// collapsed root) as superseded. A fresh one was never published and
// is dropped at once, errors ignored as in abort.
func (w *cow) retire(id disk.PageID) {
	if _, ok := w.fresh[id]; ok {
		delete(w.fresh, id)
		_ = w.t.pool.Drop(id)
		return
	}
	w.retired = append(w.retired, id)
}

// abort drops the pages written so far; the published tree never
// referenced them. Drop errors are ignored — the store is likely the
// reason the write failed in the first place, and an unfreed page is
// only a leak.
func (w *cow) abort() {
	for id := range w.fresh {
		_ = w.t.pool.Drop(id)
	}
}

// cowLevel is one internal node on the writer's descent path, decoded.
type cowLevel struct {
	n     *internalNode
	id    disk.PageID
	child int
}

// descendPath walks from v's root to the leaf responsible for k,
// returning the decoded internal path and the leaf's page id.
func (t *Tree) descendPath(v *version, k Key) ([]cowLevel, disk.PageID, error) {
	var path []cowLevel
	k = k.ceil(t.keyLen)
	id := v.root
	for level := v.height; level > 1; level-- {
		p, err := t.viewInternal(id)
		if err != nil {
			return nil, disk.InvalidPage, err
		}
		i := p.childIndex(k)
		path = append(path, cowLevel{n: decodeInternal(p), id: id, child: i})
		id = p.child(i)
	}
	return path, id, nil
}

// replaceUpward rewrites the internal path from level pi up to the
// root, pointing each level at the new id of the child below it, and
// returns the new root id. These levels carry no other edit, so the
// ascent stops at one whose child kept its id (it was rewritten in
// place). No rebalancing happens here.
func (t *Tree) replaceUpward(w *cow, path []cowLevel, pi int, childID disk.PageID) (disk.PageID, error) {
	for li := pi; li >= 0; li-- {
		if path[li].n.children[path[li].child] == childID {
			return path[0].id, nil
		}
		path[li].n.children[path[li].child] = childID
		id, err := w.putInternal(path[li].id, path[li].n)
		if err != nil {
			return disk.InvalidPage, err
		}
		childID = id
	}
	return childID, nil
}

// Insert adds a key. The tree stores keys only: a non-empty value is
// an error. Inserting an existing key returns ErrDuplicateKey, and a
// key that sets bits of Hi below Config.KeyBits is an error. The insert is
// copy-on-write: it builds new pages along the root-to-leaf path and
// atomically publishes a new version, so concurrent snapshot readers
// are undisturbed. A failed insert publishes nothing.
func (t *Tree) Insert(k Key, value []byte) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if len(value) != 0 {
		return fmt.Errorf("btree: value of %d bytes: the tree stores keys only", len(value))
	}
	w := &cow{t: t}
	nv, err := t.insertCOW(w, t.currentVersion(), k)
	if err != nil {
		w.abort()
		return err
	}
	t.commit(nv, w.retired, []Key{k})
	return nil
}

func (t *Tree) insertCOW(w *cow, v *version, k Key) (*version, error) {
	if err := t.checkKey(k); err != nil {
		return nil, err
	}
	path, leafID, err := t.descendPath(v, k)
	if err != nil {
		return nil, err
	}
	n, err := t.loadLeaf(t.leaf[:0], leafID)
	if err != nil {
		return nil, err
	}
	i := searchLeaf(n, k)
	if i < len(n) && n[i].Key == k {
		return nil, ErrDuplicateKey
	}
	n = slices.Insert(n, i, Entry{Key: k})
	t.leaf = n

	nv := &version{seq: v.seq + 1, height: v.height, count: v.count + 1, leaves: v.leaves}
	nv.root, err = t.putLeafAt(w, nv, path, leafID, n)
	return nv, err
}

// putLeafAt writes leaf n in place of page leafID, at the end of path,
// and returns the new root id. A leaf that overflows its count or its
// page, or one other than the root that underflows minLeaf, is re-cut
// (recutLeaf), and the levels above are rebalanced (rebalanceUpward).
// A leaf overflows when a key joins it, and at a derived capacity also
// when one leaves it: the z gap it leaves is the sum of two, and may
// take a bit more.
func (t *Tree) putLeafAt(w *cow, nv *version, path []cowLevel, leafID disk.PageID, n []Entry) (disk.PageID, error) {
	pi := len(path) - 1
	if f, ok := t.fitLeaf(n); ok && (len(n) >= t.minLeaf || pi < 0) {
		id, err := w.putLeafIn(leafID, n, f)
		if err != nil {
			return disk.InvalidPage, err
		}
		return t.replaceUpward(w, path, pi, id)
	}
	// A root leaf, which overflows, first gets a new root above it, so
	// that every cut has a parent to edit.
	if pi < 0 {
		path = []cowLevel{{n: &internalNode{children: []disk.PageID{leafID}}, id: disk.InvalidPage}}
		nv.height++
		pi = 0
	}
	if err := t.recutLeaf(w, nv, path[pi].n, path[pi].child, n); err != nil {
		return disk.InvalidPage, err
	}
	return t.rebalanceUpward(w, nv, path, pi)
}

// recutLeaf writes n, the leaf at child ci of parent, which overflows
// its count or its page or underflows minLeaf, and edits the parent to
// match. A leaf that underflows, or overflows at a derived capacity, is
// re-cut with its window, itself and its neighbours under parent (up to
// three leaves), into the fewest pieces that fit, from one fewer than
// the window holds when it underflows and from as many when it
// overflows (spread): an underfull leaf's window loses a leaf where a
// merge would, and keeps its leaves where a lend would, and a full
// leaf's window keeps its leaves or gains one, as a B*-tree shares a
// full node. The neighbours' keys are decoded from their page views
// straight into t.window. Otherwise, as for a root leaf and always at
// an explicit capacity, a full n is cut alone into the fewest pieces
// that fit: two, the half split at an explicit capacity, unless its new
// key adds an id group that no frame of two pieces narrows; three
// always fit. Each piece that does not hold the new key, or the gap a
// deleted one left, is a run of the leaf that fitted, so it fits, and
// the one that does may be as short as minLeaf entries, which fit at
// any frame. An underfull window always has a cut: a lend's, when a
// neighbour holds more than minLeaf entries, else a merge's, which
// holds at most 2*minLeaf-1 and fits at any frame.
func (t *Tree) recutLeaf(w *cow, nv *version, parent *internalNode, ci int, n []Entry) error {
	under := len(n) < t.minLeaf
	if (under || t.cfgCap == 0) && len(parent.children) > 1 {
		lo, hi := max(ci-1, 0), min(ci+1, len(parent.children)-1)
		all, err := t.window[:0], error(nil)
		for j := lo; j <= hi; j++ {
			if j == ci {
				all = append(all, n...)
			} else if all, err = t.loadLeaf(all, parent.children[j]); err != nil {
				return err
			}
		}
		t.window = all
		m := hi - lo + 1
		from := m
		if under {
			from--
		}
		for k := from; k <= from+1; k++ {
			if cuts, frames, ok := t.spread(all, k); ok {
				return t.putWindow(w, nv, parent, lo, m, all, cuts, frames)
			}
		}
	}
	for k := 2; k <= 3 && !under; k++ {
		if cuts, frames, ok := t.spread(n, k); ok {
			return t.putWindow(w, nv, parent, ci, 1, n, cuts, frames)
		}
	}
	return fmt.Errorf("btree: no cut fits a leaf of %d entries", len(n))
}

// spread cuts all into k leaves of at least minLeaf entries that pass
// fitLeaf, at the cuts nearest its even shares, and returns the k+1 cut
// positions from 0 to len(all) and the pieces' frames. The even cuts
// come first: when each even piece is a leaf, they are the cuts the
// search below would pick.
// Left to right, cut i lies at least minLeaf past cut i-1, within the
// longest run from it that fits a leaf, and no earlier than back[i],
// from which the k-i pieces after it fit as the longest runs taken from
// the back (fitSpan). It reports false when no such cut is left.
func (t *Tree) spread(all []Entry, k int) ([]int, []leafFrame, bool) {
	cuts := make([]int, k+1)
	for i := 1; i <= k; i++ {
		cuts[i] = i * len(all) / k
	}
	if frames, ok := t.leaves(all, cuts); ok {
		return cuts, frames, true
	}
	back := make([]int, k+1)
	back[k] = len(all)
	for i := k - 1; i > 0 && back[i+1] > 0; i-- {
		n, _ := t.fitSpan(all[:back[i+1]], -1, t.leafCap, t.pageSize)
		back[i] = back[i+1] - n
	}
	for i := 1; i < k; i++ {
		prev := cuts[i-1]
		lo := max(prev+t.minLeaf, back[i])
		n, _ := t.fitSpan(all[prev:], +1, t.leafCap, t.pageSize)
		hi := min(prev+n, len(all)-(k-i)*t.minLeaf)
		if lo > hi {
			return nil, nil, false
		}
		cuts[i] = min(max(i*len(all)/k, lo), hi)
	}
	frames, ok := t.leaves(all, cuts)
	return cuts, frames, ok
}

// leaves reports whether each piece of all between cuts has at least
// minLeaf entries and passes fitLeaf, and returns their frames when
// they do.
func (t *Tree) leaves(all []Entry, cuts []int) ([]leafFrame, bool) {
	frames := make([]leafFrame, len(cuts)-1)
	for i := range frames {
		piece := all[cuts[i]:cuts[i+1]]
		f, ok := t.fitLeaf(piece)
		if len(piece) < t.minLeaf || !ok {
			return nil, false
		}
		frames[i] = f
	}
	return frames, true
}

// putWindow writes all, cut at cuts, in the frames found for its
// pieces, over the m leaves from child lo of parent, a piece past them
// as a new leaf and a leaf past the pieces retired, and resets the
// separators between the pieces.
func (t *Tree) putWindow(w *cow, nv *version, parent *internalNode, lo, m int, all []Entry, cuts []int, frames []leafFrame) error {
	ids := make([]disk.PageID, len(frames))
	seps := make([]Key, len(frames)-1)
	for j, f := range frames {
		piece := all[cuts[j]:cuts[j+1]]
		if j > 0 {
			seps[j-1] = separator(all[cuts[j]-1].Key, piece[0].Key)
		}
		var err error
		if ids[j], err = w.putLeafIn(windowPage(parent, lo, m, j), piece, f); err != nil {
			return err
		}
	}
	nv.leaves += len(ids) - m
	w.replaceWindow(parent, lo, m, ids, seps)
	return nil
}

// windowPage is the page piece j of a window of m children from child
// lo of parent replaces: the window's j-th child, or none past them.
func windowPage(parent *internalNode, lo, m, j int) disk.PageID {
	if j < m {
		return parent.children[lo+j]
	}
	return disk.InvalidPage
}

// replaceWindow puts ids, with seps between them, in place of the m
// children of parent from lo and the separators between those, and
// retires the children past len(ids), which no piece replaced.
func (w *cow) replaceWindow(parent *internalNode, lo, m int, ids []disk.PageID, seps []Key) {
	for j := len(ids); j < m; j++ {
		w.retire(parent.children[lo+j])
	}
	parent.children = slices.Replace(parent.children, lo, lo+m, ids...)
	parent.seps = slices.Replace(parent.seps, lo, lo+m-1, seps...)
}

// rebalanceUpward writes out path[pi].n, an internal node whose
// children a re-cut below edited, and the path above it, and returns
// the new root id. Each level is rebalanced by the one rule the leaves
// follow (recutLeaf): a node over fanout is cut alone into two, and one
// other than the root under minChildren is re-cut with its window
// (recutInternal). Either edits the level above, which is rebalanced
// in turn; a root that is cut grows a new root above it, and a root
// left with one child collapses into it.
func (t *Tree) rebalanceUpward(w *cow, nv *version, path []cowLevel, pi int) (disk.PageID, error) {
	for ; ; pi-- {
		cur := path[pi]
		if pi == 0 && len(cur.n.children) == 1 {
			w.retire(cur.id)
			nv.height--
			return cur.n.children[0], nil
		}
		under := pi > 0 && len(cur.n.children) < t.minChildren()
		if !under && len(cur.n.children) <= t.fanout {
			id, err := w.putInternal(cur.id, cur.n)
			if err != nil {
				return disk.InvalidPage, err
			}
			return t.replaceUpward(w, path, pi-1, id)
		}
		if pi == 0 {
			path = slices.Insert(path, 0, cowLevel{n: &internalNode{children: []disk.PageID{cur.id}}, id: disk.InvalidPage})
			nv.height++
			pi++
		}
		if err := t.recutInternal(w, path[pi-1].n, path[pi-1].child, cur.n, under); err != nil {
			return disk.InvalidPage, err
		}
	}
}

// recutInternal writes cur, the internal node at child ci of parent,
// which overflows or underflows, and edits the parent to match. An
// overfull cur is cut alone into two, the left keeping ceil(n/2) of its
// n children. An underfull one is re-cut with its window, itself and
// its neighbours under parent: their children, the parent's separators
// between them pulled down, are cut into one node fewer than the window
// holds when those fit, else as many, which always fit. The cuts lie at
// even shares, rounded up, and the separators at them are promoted.
func (t *Tree) recutInternal(w *cow, parent *internalNode, ci int, cur *internalNode, under bool) error {
	lo, hi := ci, ci
	if under {
		lo, hi = max(ci-1, 0), min(ci+1, len(parent.children)-1)
	}
	var all internalNode
	for j := lo; j <= hi; j++ {
		n := cur
		if j != ci {
			var err error
			if n, err = t.loadInternal(parent.children[j]); err != nil {
				return err
			}
		}
		if j > lo {
			all.seps = append(all.seps, parent.seps[j-1])
		}
		all.children = append(all.children, n.children...)
		all.seps = append(all.seps, n.seps...)
	}
	m, c := hi-lo+1, len(all.children)
	k := 2
	if under {
		k = m - 1
		if (c+k-1)/k > t.fanout {
			k = m
		}
	}
	ids := make([]disk.PageID, k)
	seps := make([]Key, k-1)
	for j, from := 0, 0; j < k; j++ {
		to := ((j+1)*c + k - 1) / k
		if j > 0 {
			seps[j-1] = all.seps[from-1]
		}
		var err error
		if ids[j], err = w.putInternal(windowPage(parent, lo, m, j), &internalNode{children: all.children[from:to], seps: all.seps[from : to-1]}); err != nil {
			return err
		}
		from = to
	}
	w.replaceWindow(parent, lo, m, ids, seps)
	return nil
}
