package btree

import (
	"testing"

	"probe/internal/disk"
)

// FuzzVersionGC drives the version chain through a fuzzed schedule of
// inserts, deletes, snapshot opens, releases, and explicit garbage
// collection, asserting the two GC invariants after every step:
//
//   - no pinned version is ever reclaimed: every open snapshot still
//     answers with exactly the entry count it pinned (checked cheaply
//     each step via Len against the recorded count, and by full
//     iteration when the schedule closes the snapshot — a reclaimed
//     or recycled page would corrupt the count, the order, or fail
//     outright);
//   - no unpinned version is retained past the epoch horizon: right
//     after any commit or explicit collection, every retained retire
//     set must be stamped newer than the horizon (older ones were
//     freeable and must be gone).
//
// At the end the schedule releases everything; one collection must
// then drain the chain to zero retained versions and pages.
func FuzzVersionGC(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 0, 3, 1, 4})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 1, 1, 1, 4, 4})
	f.Add([]byte{3, 0, 1, 3, 0, 1, 3, 4, 4, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := disk.MustPool(disk.MustMemStore(256), 64, disk.LRU)
		tr, err := New(pool, Config{LeafCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		type pin struct {
			s     *Snapshot
			count int
		}
		var (
			pins []pin
			live []Key
			next uint64
		)
		checkHorizon := func() {
			t.Helper()
			tr.verMu.Lock()
			h := tr.horizonLocked()
			for _, rs := range tr.retired {
				if rs.seq <= h {
					tr.verMu.Unlock()
					t.Fatalf("retire set at seq %d survived past horizon %d", rs.seq, h)
				}
			}
			tr.verMu.Unlock()
		}
		for _, b := range data {
			switch b % 5 {
			case 0: // insert
				k := Key{Hi: uint64(b) * 2654435761, Lo: next}
				next++
				if err := tr.Insert(k, nil); err != nil {
					t.Fatalf("insert: %v", err)
				}
				live = append(live, k)
				checkHorizon()
			case 1: // delete a live key
				if len(live) == 0 {
					continue
				}
				i := int(b) % len(live)
				ok, err := tr.Delete(live[i])
				if err != nil || !ok {
					t.Fatalf("delete: ok=%v err=%v", ok, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				checkHorizon()
			case 2: // explicit GC
				tr.CollectGarbage()
				checkHorizon()
			case 3: // open a snapshot
				s := tr.Snapshot()
				pins = append(pins, pin{s: s, count: s.Len()})
			case 4: // close the oldest snapshot, verifying its version first
				if len(pins) == 0 {
					continue
				}
				p := pins[0]
				pins = pins[1:]
				n := 0
				c := p.s.Cursor()
				ok, err := c.First()
				for ; ok && err == nil; ok, err = c.Next() {
					n++
				}
				if err != nil {
					t.Fatalf("iterate pinned version %d: %v", p.s.Seq(), err)
				}
				if n != p.count {
					t.Fatalf("pinned version %d decayed: iterated %d entries, pinned %d",
						p.s.Seq(), n, p.count)
				}
				p.s.Release()
			}
			// Cheap per-step check: every still-open snapshot answers
			// with the count it pinned.
			for _, p := range pins {
				if p.s.Len() != p.count {
					t.Fatalf("pinned version %d reports Len %d, pinned %d",
						p.s.Seq(), p.s.Len(), p.count)
				}
			}
		}
		for _, p := range pins {
			p.s.Release()
		}
		tr.CollectGarbage()
		checkHorizon()
		st := tr.MVCCStats()
		if st.PinnedSnapshots != 0 || st.RetainedVersions != 0 || st.RetainedPages != 0 {
			t.Fatalf("version chain not drained after full release: %+v", st)
		}
		if st.FreeFailures != 0 {
			t.Fatalf("%d pages failed to free: %+v", st.FreeFailures, st)
		}
		if tr.Len() != len(live) {
			t.Fatalf("final Len %d, model has %d", tr.Len(), len(live))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
