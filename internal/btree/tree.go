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
	// what fits the page at the widest frame (node.go). Zero derives
	// the capacity from the page: a leaf is then bounded by its bytes,
	// at the frame its keys need, and by twice that count less one, and
	// a full leaf spreads over itself and its neighbours, as many leaves
	// or one more, before it splits alone (splitLeaf). An explicit
	// capacity splits a full leaf in half, so it gives the same leaves
	// whatever frames the keys need. The paper's experiments use 20.
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
	// version publication from Load).
	writeMu sync.Mutex

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
	// minCap entries fit a page at the widest frame, whatever their keys.
	minCap := (ps - leafHeaderLen(keyLen)) / keyLen
	if minCap < 2 {
		return nil, fmt.Errorf("btree: page size %d cannot hold 2 keys of %d bytes", ps, keyLen)
	}
	leafCap, minLeaf := leafCapacity, leafCapacity/2
	if leafCap == 0 {
		// A leaf of minLeaf entries fits at any frame. So does a merge of
		// an underfull leaf into one that cannot lend (at most
		// 2*minLeaf-1 entries), and each half of a leaf that overflows
		// its count or its page (minCap+1 to 2*minCap entries): the split
		// that is left when no cut spreads the leaf over its window.
		leafCap, minLeaf = 2*minCap-1, minCap/2
	} else if leafCap < 2 || leafCap > minCap {
		return nil, fmt.Errorf("btree: leaf capacity %d outside [2,%d]", leafCapacity, minCap)
	}
	// Pessimistic fanout: assume every separator is a full key, so
	// any mix of truncated separators always fits the page.
	// internalHeaderLen + fanout*4 + (fanout-1)*(2+keyLen) <= ps
	fanout := (ps - internalHeaderLen + 2 + keyLen) / (4 + 2 + keyLen)
	if fanout < 4 {
		return nil, fmt.Errorf("btree: page size %d too small for internal nodes", ps)
	}
	return &Tree{pool: pool, pageSize: ps, keyBits: keyBits, keyLen: keyLen,
		leafCap: leafCap, minLeaf: minLeaf, cfgCap: leafCapacity, fanout: fanout}, nil
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
// whose image at its canonical frame is at most maxBytes; es is not
// empty. Keys ascend, so a run's z delta is its last z less its first
// and the running id bounds give its plain frame: one pass finds the
// longest run that fits at that frame. Id bases never make a run's
// image larger, and a shorter run's never larger than a longer one's,
// so the runs past it are searched by halves at their canonical frames;
// when the next run does not fit that is one frameOf.
func (t *Tree) fitSpan(es []Entry, step, maxCount, maxBytes int) int {
	drop, i := zDrop(t.keyLen), 0
	if step < 0 {
		i = len(es) - 1
	}
	z, lo, hi := es[i].Key.Hi>>drop, es[i].Key.Lo, es[i].Key.Lo
	n := 1
	for ; n < len(es); n++ {
		k := es[i+n*step].Key
		dz := k.Hi>>drop - z
		if step < 0 {
			dz = -dz
		}
		lo, hi = min(lo, k.Lo), max(hi, k.Lo)
		if n+1 > maxCount || leafBytes(n+1, leafFrame{zw: bytesFor(dz), iw: bytesFor(hi - lo)}, t.keyLen) > maxBytes {
			break
		}
	}
	fits := func(n int) bool {
		run := es[:n]
		if step < 0 {
			run = es[len(es)-n:]
		}
		return leafBytes(n, frameOf(run, t.keyLen), t.keyLen) <= maxBytes
	}
	if top := min(len(es), maxCount); n < top && fits(n+1) {
		n0 := n + 1
		n = n0 + sort.Search(top-n0, func(k int) bool { return !fits(n0 + k + 1) })
	}
	return n
}

// putLeafImage makes data the canonical image of a leaf holding es.
func (t *Tree) putLeafImage(data []byte, es []Entry) {
	encodeLeaf(data, es, frameOf(es, t.keyLen), t.keyLen)
}

// checkKey refuses a key the tree cannot store: one that sets a bit
// of Hi below the leading KeyBits.
func (t *Tree) checkKey(k Key) error {
	if k.Hi<<uint(t.keyBits) != 0 {
		return fmt.Errorf("btree: %v sets bits below the tree's %d key bits", k, t.keyBits)
	}
	return nil
}

// encodeKey encodes k at the tree's key length into buf and returns
// the encoded bytes.
func (t *Tree) encodeKey(k Key, buf *[encodedKeyLen]byte) []byte {
	enc := buf[:t.keyLen]
	k.encode(enc)
	return enc
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
	id, err := t.writeNew(func(img []byte) { t.putLeafImage(img, nil) })
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
// capacity, or the count cap of a derived one (see Config).
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
	var buf [encodedKeyLen]byte
	enc := t.encodeKey(k, &buf)
	id := v.root
	for level := v.height; level > 1; level-- {
		data, err := t.pool.View(id, nil)
		if err != nil {
			return false, err
		}
		p, err := viewInternal(data)
		if err != nil {
			return false, err
		}
		i, err := p.childIndex(enc)
		if err != nil {
			return false, err
		}
		id = p.child(i)
	}
	data, err := t.pool.View(id, nil)
	if err != nil {
		return false, err
	}
	p, err := viewLeaf(data, t.keyLen)
	if err != nil {
		return false, err
	}
	i := p.search(k)
	return i < p.count && p.key(i) == k, nil
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

// putLeaf writes the decoded leaf in place of page old (see put) and
// returns its id.
func (w *cow) putLeaf(old disk.PageID, es []Entry) (disk.PageID, error) {
	return w.putLeafIn(old, es, frameOf(es, w.t.keyLen))
}

// putLeafIn is putLeaf for a leaf whose canonical frame f is known.
func (w *cow) putLeafIn(old disk.PageID, es []Entry, f leafFrame) (disk.PageID, error) {
	img := make([]byte, w.t.pageSize)
	encodeLeaf(img, es, f, w.t.keyLen)
	return w.put(old, img)
}

// putInternal is putLeaf for a decoded internal node.
func (w *cow) putInternal(old disk.PageID, n *internalNode) (disk.PageID, error) {
	img := make([]byte, w.t.pageSize)
	n.encode(img)
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

// descendPath walks from v's root to the leaf responsible for enc,
// returning the decoded internal path and the leaf's page id.
func (t *Tree) descendPath(v *version, enc []byte) ([]cowLevel, disk.PageID, error) {
	var path []cowLevel
	id := v.root
	for level := v.height; level > 1; level-- {
		n, err := t.loadInternal(id)
		if err != nil {
			return nil, disk.InvalidPage, err
		}
		i := n.childIndex(enc)
		path = append(path, cowLevel{n: n, id: id, child: i})
		id = n.children[i]
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
	var buf [encodedKeyLen]byte
	path, leafID, err := t.descendPath(v, t.encodeKey(k, &buf))
	if err != nil {
		return nil, err
	}
	n, err := t.loadLeaf(leafID)
	if err != nil {
		return nil, err
	}
	i := searchLeaf(n, k)
	if i < len(n) && n[i].Key == k {
		return nil, ErrDuplicateKey
	}
	n = slices.Insert(n, i, Entry{Key: k})

	nv := &version{seq: v.seq + 1, height: v.height, count: v.count + 1, leaves: v.leaves}
	if f, ok := t.fitLeaf(n); ok {
		id, err := w.putLeafIn(leafID, n, f)
		if err != nil {
			return nil, err
		}
		nv.root, err = t.replaceUpward(w, path, len(path)-1, id)
		return nv, err
	}
	// The leaf overflows its count or its page. A root leaf first gets
	// a new root above it, so that every split has a parent to edit.
	if len(path) == 0 {
		path = []cowLevel{{n: &internalNode{children: []disk.PageID{leafID}}, id: disk.InvalidPage}}
		nv.height++
	}
	pi := len(path) - 1
	if err := t.splitLeaf(w, nv, path[pi].n, path[pi].child, n); err != nil {
		return nil, err
	}
	nv.root, err = t.splitUpward(w, nv, path, pi)
	return nv, err
}

// splitLeaf writes n, the leaf at child ci of parent, which overflows
// its count or its page, and edits the parent to match. At a derived
// capacity n spreads over its window, itself and its neighbours under
// parent (up to three leaves), as a B*-tree shares a full node: the
// window's entries are cut into as many leaves as it has, or else one
// more (spread). Otherwise, and always at an explicit capacity, n splits
// in half; both halves fit (newTreeShell).
func (t *Tree) splitLeaf(w *cow, nv *version, parent *internalNode, ci int, n []Entry) error {
	if t.cfgCap == 0 {
		lo, hi := max(ci-1, 0), min(ci+1, len(parent.children)-1)
		var all []Entry
		for j := lo; j <= hi; j++ {
			es := n
			if j != ci {
				var err error
				if es, err = t.loadLeaf(parent.children[j]); err != nil {
					return err
				}
			}
			all = append(all, es...)
		}
		for k := max(hi-lo+1, 2); k <= hi-lo+2; k++ {
			if cuts, ok := t.spread(all, k); ok {
				return t.putWindow(w, nv, parent, lo, hi-lo+1, all, cuts)
			}
		}
	}
	return t.putWindow(w, nv, parent, ci, 1, n, []int{0, len(n) / 2, len(n)})
}

// spread cuts all into k leaves of at least minLeaf entries that pass
// fitLeaf, at the cuts nearest its even shares, and returns the k+1 cut
// positions from 0 to len(all). Left to right, cut i lies at least
// minLeaf past cut i-1, within the longest run from it that fits a
// leaf, and no earlier than back[i], from which the k-i pieces after it
// fit as the longest runs taken from the back (fitSpan). It reports
// false when no such cut is left.
func (t *Tree) spread(all []Entry, k int) ([]int, bool) {
	back, cuts := make([]int, k+1), make([]int, k+1)
	back[k], cuts[k] = len(all), len(all)
	for i := k - 1; i > 0 && back[i+1] > 0; i-- {
		back[i] = back[i+1] - t.fitSpan(all[:back[i+1]], -1, t.leafCap, t.pageSize)
	}
	for i := 1; i < k; i++ {
		prev := cuts[i-1]
		lo := max(prev+t.minLeaf, back[i])
		hi := min(prev+t.fitSpan(all[prev:], +1, t.leafCap, t.pageSize), len(all)-(k-i)*t.minLeaf)
		if lo > hi {
			return nil, false
		}
		cuts[i] = min(max(i*len(all)/k, lo), hi)
	}
	for i := 0; i < k; i++ {
		if _, ok := t.fitLeaf(all[cuts[i]:cuts[i+1]]); !ok {
			return nil, false
		}
	}
	return cuts, true
}

// putWindow writes all, cut at cuts, over the m leaves from child lo of
// parent, and the piece past them, if any, as a new leaf; it resets the
// separators between the pieces.
func (t *Tree) putWindow(w *cow, nv *version, parent *internalNode, lo, m int, all []Entry, cuts []int) (err error) {
	for j := 0; j+1 < len(cuts); j++ {
		piece := all[cuts[j]:cuts[j+1]]
		if j == m {
			return t.addLeaf(w, nv, parent, lo+j-1, all[cuts[j]-1].Key, piece)
		}
		if j > 0 {
			parent.seps[lo+j-1] = t.separator(all[cuts[j]-1].Key, piece[0].Key)
		}
		if parent.children[lo+j], err = w.putLeaf(parent.children[lo+j], piece); err != nil {
			return err
		}
	}
	return nil
}

// addLeaf writes es as a new leaf right of child i of parent; prev is
// the largest key left of it.
func (t *Tree) addLeaf(w *cow, nv *version, parent *internalNode, i int, prev Key, es []Entry) error {
	id, err := w.putLeaf(disk.InvalidPage, es)
	if err != nil {
		return err
	}
	parent.insertAt(i, t.separator(prev, es[0].Key), id)
	nv.leaves++
	return nil
}

// splitUpward writes out path[pi].n, an internal node that may have
// gained a child, splitting it when it overflows its fanout and
// cascading upward as needed; the mirror of rebalanceUpward. It returns
// the new root id.
func (t *Tree) splitUpward(w *cow, nv *version, path []cowLevel, pi int) (disk.PageID, error) {
	for ; len(path[pi].n.children) > t.fanout; pi-- {
		// Split the node; the middle separator is promoted.
		pn := path[pi].n
		mid := len(pn.seps) / 2
		promoted := pn.seps[mid]
		right := &internalNode{
			children: append([]disk.PageID(nil), pn.children[mid+1:]...),
			seps:     append([][]byte(nil), pn.seps[mid+1:]...),
		}
		pn.children, pn.seps = pn.children[:mid+1], pn.seps[:mid]
		left, err := w.putInternal(path[pi].id, pn)
		if err != nil {
			return disk.InvalidPage, err
		}
		extra, err := w.putInternal(disk.InvalidPage, right)
		if err != nil {
			return disk.InvalidPage, err
		}
		if pi == 0 {
			// The root itself split: grow a new root.
			nv.height++
			return w.putInternal(disk.InvalidPage, &internalNode{children: []disk.PageID{left, extra}, seps: [][]byte{promoted}})
		}
		up := path[pi-1]
		up.n.children[up.child] = left
		up.n.insertAt(up.child, promoted, extra)
	}
	return t.writeParentAndReplaceUp(w, path, pi)
}
