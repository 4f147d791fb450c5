package btree

import (
	"math/rand"
	"sync"
	"testing"

	"probe/internal/disk"
)

// This file stress-tests the MVCC machinery itself: concurrent root
// publication (writers committing new versions), reader pin/unpin
// (snapshot open/close), and version garbage collection, all racing —
// run it with -race. The property layer (package probe's
// TestMVCCIsolationProperty) checks read *contents*; here the focus is
// the version-chain lifecycle: no torn pins, no double frees, full
// drain once quiescent, and an allocation-bounded snapshot open.

// TestMVCCStressRace races writers, snapshot readers, and an explicit
// GC loop against one tree. Writers use disjoint key ranges so the
// final state is checkable; readers verify that each pinned version
// is internally consistent (a full iteration sees exactly Len()
// strictly-ascending keys — impossible if any of its pages were
// reclaimed or overwritten underneath it).
func TestMVCCStressRace(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 128, disk.LRU)
	tr, err := New(pool, Config{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 2
		readers   = 4
		writerOps = 1500
	)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	liveCounts := make([]int, writers)

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 97))
			var live []Key
			for i := 0; i < writerOps; i++ {
				if len(live) == 0 || rng.Intn(100) < 60 {
					k := Key{Hi: rng.Uint64(), Lo: uint64(w)<<32 | uint64(i)}
					if err := tr.Insert(k, nil); err != nil {
						t.Errorf("writer %d: insert: %v", w, err)
						return
					}
					live = append(live, k)
				} else {
					j := rng.Intn(len(live))
					ok, err := tr.Delete(live[j])
					if err != nil || !ok {
						t.Errorf("writer %d: delete: ok=%v err=%v", w, ok, err)
						return
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			liveCounts[w] = len(live)
		}(w)
	}
	go func() { writerWG.Wait(); close(writersDone) }()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i > 0 {
					select {
					case <-writersDone:
						return
					default:
					}
				}
				s := tr.Snapshot()
				want := s.Len()
				c := s.Cursor()
				n := 0
				var last Key
				ok, err := c.First()
				for ; ok && err == nil; ok, err = c.Next() {
					k := c.Key()
					if n > 0 && !last.Less(k) {
						t.Errorf("reader %d: snapshot seq %d out of order at entry %d", r, s.Seq(), n)
						s.Release()
						return
					}
					last = k
					n++
				}
				if err != nil {
					t.Errorf("reader %d: iterate snapshot seq %d: %v", r, s.Seq(), err)
					s.Release()
					return
				}
				if n != want {
					t.Errorf("reader %d: snapshot seq %d iterated %d entries, Len says %d",
						r, s.Seq(), n, want)
					s.Release()
					return
				}
				s.Release()
			}
		}(r)
	}

	// The GC antagonist: explicit collection racing the writers' own
	// commit-time collection and the readers' pin/unpin.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			tr.CollectGarbage()
			_ = tr.MVCCStats()
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: everything released, so explicit GC must drain the
	// whole version chain.
	tr.CollectGarbage()
	st := tr.MVCCStats()
	if st.PinnedSnapshots != 0 || st.RetainedVersions != 0 || st.RetainedPages != 0 {
		t.Fatalf("version chain not drained: %+v", st)
	}
	if st.FreeFailures != 0 {
		t.Fatalf("%d pages failed to free: %+v", st.FreeFailures, st)
	}
	want := 0
	for _, n := range liveCounts {
		want += n
	}
	if tr.Len() != want {
		t.Fatalf("final Len %d, writers left %d live keys", tr.Len(), want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOpenAllocs bounds the allocation cost of the untraced
// read-only snapshot open: pinning the current version and releasing
// it costs the Snapshot handle and nothing else once the pinnedVers
// table is warm, and pinning into a caller's value (how the DB layer
// pins every untraced read) costs nothing at all.
func TestSnapshotOpenAllocs(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 64, disk.LRU)
	tr, err := New(pool, Config{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(Key{Hi: uint64(i) * 2654435761, Lo: uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pin table so its backing array reaches steady-state
	// capacity before measuring.
	s := tr.Snapshot()
	s.Release()

	allocs := testing.AllocsPerRun(500, func() {
		s := tr.Snapshot()
		s.Release()
	})
	if allocs > 1 {
		t.Errorf("snapshot open+release costs %.1f allocs/op, want <= 1", allocs)
	}
	var into Snapshot
	if allocs := testing.AllocsPerRun(500, func() { tr.SnapshotInto(&into).Release() }); allocs != 0 {
		t.Errorf("a snapshot pinned into a caller's value costs %.1f allocs/op, want 0", allocs)
	}
}
