package btree

import (
	"fmt"

	"probe/internal/disk"
)

// MVCC machinery: the tree is a chain of immutable versions. Every
// committed state of the tree is a version — a root page id plus the
// counters that describe the tree hanging off it. Pages reachable from
// a committed root are never mutated in place; writers copy the pages
// along the modified path (copy-on-write) and publish a new version
// with one pointer swap under verMu. Readers pin a version and
// traverse its pages without any tree-wide lock: the pages of a pinned
// version cannot be reclaimed, so a reader races nothing.
//
// Reclamation is epoch-based. A commit with sequence number s retires
// the pages it replaced into a retire set stamped s. A retired page
// was part of versions <= s-1 only, so it may be freed once no pinned
// snapshot is older than s: freeable iff s <= horizon, where horizon
// is the minimum pinned sequence number (or the current sequence when
// nothing is pinned). GC runs at writer commit and on demand via
// CollectGarbage — never on read paths, which therefore cannot fail on
// free errors.

// version is one immutable committed state of the tree. All fields
// except pins are written once, before publication; pins is guarded by
// Tree.verMu.
type version struct {
	seq    uint64
	root   disk.PageID
	height int // 1 = root is a leaf
	count  int // number of entries
	leaves int // number of leaf pages
	pins   int // open snapshots on this version (guarded by verMu)
}

// retireSet is the pages a single commit made unreachable, stamped
// with that commit's sequence number.
type retireSet struct {
	seq   uint64
	pages []disk.PageID
}

// MVCCStats describes the version chain for gauges and tests.
type MVCCStats struct {
	// Seq is the current (latest committed) version sequence number.
	Seq uint64
	// PinnedSnapshots is the number of open snapshots.
	PinnedSnapshots int
	// RetainedVersions is the number of retire sets awaiting GC —
	// superseded page groups kept alive for pinned snapshots.
	RetainedVersions int
	// RetainedPages is the total page count across those retire sets.
	RetainedPages int
	// FreedPages counts pages reclaimed by GC over the tree's lifetime.
	FreedPages uint64
	// FreeFailures counts pages whose reclamation failed (the page
	// leaks in the store; harmless for correctness, counted so leaks
	// are visible).
	FreeFailures uint64
	// CommitRecords is the number of commit key-set records retained
	// for transaction validation (pruned with the GC horizon).
	CommitRecords int
}

// MVCCStats returns a snapshot of the version-chain state.
func (t *Tree) MVCCStats() MVCCStats {
	t.verMu.Lock()
	defer t.verMu.Unlock()
	s := MVCCStats{
		Seq:              t.cur.seq,
		PinnedSnapshots:  0,
		RetainedVersions: len(t.retired),
		RetainedPages:    t.retainedPages,
		FreedPages:       t.freedPages,
		FreeFailures:     t.freeFailures,
		CommitRecords:    len(t.commits),
	}
	for _, v := range t.pinnedVers {
		s.PinnedSnapshots += v.pins
	}
	return s
}

// currentVersion returns the latest committed version without pinning
// it. The returned struct is immutable; only its identity matters.
func (t *Tree) currentVersion() *version {
	t.verMu.Lock()
	defer t.verMu.Unlock()
	return t.cur
}

// pin takes a reference on the current version, protecting its pages
// from GC until the matching unpin.
func (t *Tree) pin() *version {
	t.verMu.Lock()
	v := t.cur
	v.pins++
	if v.pins == 1 {
		t.pinnedVers = append(t.pinnedVers, v)
	}
	t.verMu.Unlock()
	return v
}

// unpin releases a reference taken by pin. It performs no page frees
// itself (GC runs at writer commits and CollectGarbage), so release
// paths never fail.
func (t *Tree) unpin(v *version) {
	t.verMu.Lock()
	v.pins--
	if v.pins < 0 {
		t.verMu.Unlock()
		panic("btree: snapshot released twice")
	}
	if v.pins == 0 {
		for i, pv := range t.pinnedVers {
			if pv == v {
				last := len(t.pinnedVers) - 1
				t.pinnedVers[i] = t.pinnedVers[last]
				t.pinnedVers[last] = nil
				t.pinnedVers = t.pinnedVers[:last]
				break
			}
		}
	}
	t.verMu.Unlock()
}

// horizonLocked returns the oldest sequence number still protected by
// a pinned snapshot, or the current sequence when nothing is pinned.
// Retire sets stamped <= horizon are reclaimable. Caller holds verMu.
func (t *Tree) horizonLocked() uint64 {
	h := t.cur.seq
	for _, v := range t.pinnedVers {
		if v.seq < h {
			h = v.seq
		}
	}
	return h
}

// commit publishes nv as the new current version, queues the pages
// the writer replaced for reclamation, and records the key-set the
// commit changed for transaction validation (tx.go); then it runs an
// opportunistic GC pass. The publish itself is a single pointer swap
// under verMu, so a concurrent pin sees either the old or the new
// version, never a mixture. Caller holds writeMu.
func (t *Tree) commit(nv *version, retired []disk.PageID, keys []Key) {
	t.verMu.Lock()
	t.cur = nv
	if len(retired) > 0 {
		t.retired = append(t.retired, retireSet{seq: nv.seq, pages: retired})
		t.retainedPages += len(retired)
	}
	t.recordCommitLocked(nv.seq, keys)
	t.verMu.Unlock()
	t.collect()
}

// collect frees every retire set at or below the horizon. Free
// failures are counted, not returned: a page that cannot be freed
// merely leaks in the store and is reported via MVCCStats.
func (t *Tree) collect() {
	t.verMu.Lock()
	h := t.horizonLocked()
	t.pruneCommitsLocked(h)
	var pages []disk.PageID
	keep := t.retired[:0]
	for _, rs := range t.retired {
		if rs.seq <= h {
			pages = append(pages, rs.pages...)
		} else {
			keep = append(keep, rs)
		}
	}
	for i := len(keep); i < len(t.retired); i++ {
		t.retired[i] = retireSet{}
	}
	t.retired = keep
	t.retainedPages -= len(pages)
	t.verMu.Unlock()
	for _, id := range pages {
		if err := t.pool.Drop(id); err != nil {
			t.verMu.Lock()
			t.freeFailures++
			t.verMu.Unlock()
		} else {
			t.verMu.Lock()
			t.freedPages++
			t.verMu.Unlock()
		}
	}
}

// CollectGarbage frees all superseded page versions no pinned snapshot
// can still reach and reports how many pages remain retained (pages
// held for open snapshots). Writers GC opportunistically at each
// commit, so calling this is only needed to reclaim space on an
// otherwise idle tree after snapshots are released.
func (t *Tree) CollectGarbage() int {
	t.collect()
	t.verMu.Lock()
	defer t.verMu.Unlock()
	return t.retainedPages
}

// Snapshot is an immutable read-only view of the tree at one committed
// version. Snapshots are cheap (no page I/O; opening one allocates the
// handle, and SnapshotInto not even that) and any number may be open;
// each holds its version's pages against reclamation until Release.
// The pages of a snapshot never change, so its read methods may be
// used from many goroutines concurrently and race neither writers nor
// GC.
type Snapshot struct {
	t        *Tree
	v        *version
	released bool
}

// Snapshot pins the current committed version and returns a read-only
// view of it. The caller must Release it.
func (t *Tree) Snapshot() *Snapshot { return t.SnapshotInto(new(Snapshot)) }

// SnapshotInto is Snapshot into a caller-owned value: it pins the
// current committed version in s, overwriting whatever s held, and
// returns s. The caller must Release it.
func (t *Tree) SnapshotInto(s *Snapshot) *Snapshot {
	*s = Snapshot{t: t, v: t.pin()}
	return s
}

// Release unpins the snapshot's version, making its superseded pages
// eligible for reclamation at the next GC pass. Release is idempotent;
// it never fails. Using the snapshot after Release is a bug (its pages
// may be reclaimed under it).
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	s.t.unpin(s.v)
}

// Seq returns the committed version sequence the snapshot pins.
func (s *Snapshot) Seq() uint64 { return s.v.seq }

// Len returns the number of entries in the snapshot.
func (s *Snapshot) Len() int { return s.v.count }

// Height returns the snapshot's tree height (1 = root is a leaf).
func (s *Snapshot) Height() int { return s.v.height }

// LeafPages returns the snapshot's number of leaf pages.
func (s *Snapshot) LeafPages() int { return s.v.leaves }

// Cursor returns a cursor over the snapshot, positioned before the
// first entry. It iterates the snapshot's version: concurrent writers
// are invisible to it.
func (s *Snapshot) Cursor() *Cursor { return &Cursor{snap: s} }

// Get reports whether the key is in the snapshot. The tree stores keys
// only, so the value is always nil.
func (s *Snapshot) Get(k Key) ([]byte, bool, error) {
	if s.released {
		return nil, false, fmt.Errorf("btree: Get on released snapshot")
	}
	found, err := s.t.getAt(s.v, k)
	return nil, found, err
}
