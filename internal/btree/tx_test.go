package btree

import (
	"errors"
	"math/rand"
	"testing"
)

// TestCommitBatchAtomicPublish: a batch of mixed inserts and deletes
// publishes exactly one new version whose content equals applying the
// mutations in order.
func TestCommitBatchAtomicPublish(t *testing.T) {
	tree := newTestTree(t, 256, 4, 64)
	for i := uint64(0); i < 20; i++ {
		if err := tree.Insert(Key{Hi: i, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := tree.MVCCStats().Seq

	muts := []Mutation{
		{Key: Key{Hi: 100, Lo: 1}},
		{Key: Key{Hi: 5, Lo: 5}, Delete: true},
		{Key: Key{Hi: 101, Lo: 2}},
		{Key: Key{Hi: 6, Lo: 6}, Delete: true},
		{Key: Key{Hi: 999, Lo: 9}, Delete: true}, // absent: no-op
	}
	if err := tree.CommitBatch(before, muts); err != nil {
		t.Fatal(err)
	}
	if got := tree.MVCCStats().Seq; got != before+1 {
		t.Fatalf("batch advanced seq %d -> %d, want exactly one publish", before, got)
	}
	if tree.Len() != 20 {
		t.Fatalf("Len = %d, want 20 (+2 inserts -2 deletes)", tree.Len())
	}
	for _, k := range []Key{{Hi: 100, Lo: 1}, {Hi: 101, Lo: 2}} {
		if _, ok, err := tree.Get(k); err != nil || !ok {
			t.Fatalf("Get(%v) = %v, %v; want present", k, ok, err)
		}
	}
	for _, k := range []Key{{Hi: 5, Lo: 5}, {Hi: 6, Lo: 6}} {
		if _, ok, err := tree.Get(k); err != nil || ok {
			t.Fatalf("Get(%v) = %v, %v; want absent", k, ok, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitBatchSnapshotUndisturbed: a snapshot pinned before a batch
// never observes any of its effects.
func TestCommitBatchSnapshotUndisturbed(t *testing.T) {
	tree := newTestTree(t, 256, 4, 64)
	for i := uint64(0); i < 10; i++ {
		if err := tree.Insert(Key{Hi: i, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Snapshot()
	defer snap.Release()

	if err := tree.CommitBatch(snap.Seq(), []Mutation{
		{Key: Key{Hi: 50, Lo: 0}},
		{Key: Key{Hi: 3, Lo: 3}, Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := snap.Get(Key{Hi: 50, Lo: 0}); ok {
		t.Fatal("snapshot sees a key inserted after it was pinned")
	}
	if _, ok, _ := snap.Get(Key{Hi: 3, Lo: 3}); !ok {
		t.Fatal("snapshot lost a key deleted after it was pinned")
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len changed to %d", snap.Len())
	}
}

// TestCommitBatchConflict: first-committer-wins — after another write
// touches a key in the write-set, the batch fails with ErrConflict and
// publishes nothing; disjoint concurrent writes do not conflict.
func TestCommitBatchConflict(t *testing.T) {
	tree := newTestTree(t, 256, 4, 64)
	for i := uint64(0); i < 10; i++ {
		if err := tree.Insert(Key{Hi: i, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Snapshot()
	defer snap.Release()
	base := snap.Seq()

	// A later committer deletes key 4.
	if ok, err := tree.Delete(Key{Hi: 4, Lo: 4}); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	seqAfter := tree.MVCCStats().Seq

	// Overlapping write-set: must conflict, nothing published.
	err := tree.CommitBatch(base, []Mutation{
		{Key: Key{Hi: 4, Lo: 4}},
		{Key: Key{Hi: 70, Lo: 0}},
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("overlapping batch: got %v, want ErrConflict", err)
	}
	if got := tree.MVCCStats().Seq; got != seqAfter {
		t.Fatalf("conflicting batch published a version (%d -> %d)", seqAfter, got)
	}
	if _, ok, _ := tree.Get(Key{Hi: 70, Lo: 0}); ok {
		t.Fatal("conflicting batch leaked a partial write")
	}

	// Disjoint write-set from the same base: wins.
	if err := tree.CommitBatch(base, []Mutation{
		{Key: Key{Hi: 71, Lo: 0}},
	}); err != nil {
		t.Fatalf("disjoint batch: %v", err)
	}
}

// TestCommitBatchValidationBelowPrunedFloor: once the commit log has
// been pruned past a base sequence, validation fails conservatively.
func TestCommitBatchValidationBelowPrunedFloor(t *testing.T) {
	tree := newTestTree(t, 256, 4, 64)
	base := tree.MVCCStats().Seq
	// With nothing pinned, each commit prunes the log up to itself.
	for i := uint64(0); i < 5; i++ {
		if err := tree.Insert(Key{Hi: i, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	tree.CollectGarbage()
	if n := tree.MVCCStats().CommitRecords; n != 0 {
		t.Fatalf("commit log not pruned with nothing pinned: %d records", n)
	}
	err := tree.CommitBatch(base, []Mutation{{Key: Key{Hi: 90, Lo: 0}}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("below-floor base: got %v, want conservative ErrConflict", err)
	}
}

// TestCommitBatchPinnedKeepsLog: a pinned snapshot holds the horizon,
// so the records a transaction needs survive arbitrary interleaved
// commits, and a disjoint batch from the old base still succeeds.
func TestCommitBatchPinnedKeepsLog(t *testing.T) {
	tree := newTestTree(t, 256, 4, 64)
	if err := tree.Insert(Key{Hi: 1, Lo: 1}, nil); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	defer snap.Release()
	base := snap.Seq()
	for i := uint64(10); i < 40; i++ {
		if err := tree.Insert(Key{Hi: i, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := tree.MVCCStats().CommitRecords; n != 30 {
		t.Fatalf("commit log pruned under a pinned snapshot: %d records, want 30", n)
	}
	if err := tree.CommitBatch(base, []Mutation{
		{Key: Key{Hi: 90, Lo: 0}},
	}); err != nil {
		t.Fatalf("disjoint batch under long pin: %v", err)
	}
	if err := tree.CommitBatch(base, []Mutation{
		{Key: Key{Hi: 20, Lo: 20}},
	}); !errors.Is(err, ErrConflict) {
		t.Fatalf("overlapping batch under long pin: got %v, want ErrConflict", err)
	}
}

// TestCommitBatchEmpty: empty and all-no-op batches publish nothing.
func TestCommitBatchEmpty(t *testing.T) {
	tree := newTestTree(t, 256, 4, 64)
	base := tree.MVCCStats().Seq
	if err := tree.CommitBatch(base, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.CommitBatch(base, []Mutation{{Key: Key{Hi: 7, Lo: 7}, Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if got := tree.MVCCStats().Seq; got != base {
		t.Fatalf("no-op batch advanced seq %d -> %d", base, got)
	}
}

// TestCommitBatchRandomizedVsSerial: seeded random batches applied via
// CommitBatch match a model applying the same mutations serially.
func TestCommitBatchRandomizedVsSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := newTestTree(t, 256, 4+rng.Intn(6), 128)
		model := map[Key]uint64{}
		for batch := 0; batch < 20; batch++ {
			base := tree.MVCCStats().Seq
			n := 1 + rng.Intn(8)
			muts := make([]Mutation, 0, n)
			staged := make(map[Key]bool) // key -> live after batch
			for i := 0; i < n; i++ {
				k := Key{Hi: uint64(rng.Intn(40)), Lo: uint64(rng.Intn(4))}
				live, stagedHere := staged[k]
				if !stagedHere {
					_, live = model[k]
				}
				if live {
					muts = append(muts, Mutation{Key: k, Delete: true})
					staged[k] = false
				} else {
					muts = append(muts, Mutation{Key: k})
					staged[k] = true
				}
			}
			if err := tree.CommitBatch(base, muts); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			for k, live := range staged {
				if live {
					model[k] = k.Hi
				} else {
					delete(model, k)
				}
			}
		}
		if tree.Len() != len(model) {
			t.Fatalf("seed %d: Len %d, model %d", seed, tree.Len(), len(model))
		}
		for k := range model {
			if _, ok, err := tree.Get(k); err != nil || !ok {
				t.Fatalf("seed %d: missing %v (%v)", seed, k, err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
