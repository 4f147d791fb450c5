package disk_test

import (
	"math/rand"
	"slices"
	"testing"

	"probe/internal/core"
	"probe/internal/disk"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// recordingStore is a Store that records the page id of every read.
type recordingStore struct {
	disk.Store
	reads []disk.PageID
}

func (s *recordingStore) Read(id disk.PageID, buf []byte) error {
	s.reads = append(s.reads, id)
	return s.Store.Read(id, buf)
}

// evictionRule is one buffer replacement policy for simulate: touch
// reorders the resident pages on a hit, victim picks the page a miss
// evicts. Resident pages are ordered oldest first.
type evictionRule struct {
	name   string
	touch  bool // a hit moves the page to the back (LRU)
	victim func(resident []disk.PageID) int
}

// simulate replays the reference string refs against capacity frames
// under rule and returns its misses: the physical reads.
func simulate(refs []disk.PageID, capacity int, rule evictionRule) int {
	var resident []disk.PageID
	misses := 0
	for _, id := range refs {
		if i := slices.Index(resident, id); i >= 0 {
			if rule.touch {
				resident = append(slices.Delete(resident, i, i+1), id)
			}
			continue
		}
		misses++
		if len(resident) == capacity {
			v := rule.victim(resident)
			resident = slices.Delete(resident, v, v+1)
		}
		resident = append(resident, id)
	}
	return misses
}

// ablationQueries builds the ablation's index (5000 uniform points,
// 20 entries a leaf, 1 KB pages) on store under a pool of the given
// frames, and runs its ten range queries through the lazy merge on a
// cold pool. It returns the number of queries and the physical reads
// they made, summed from each query's own counts.
func ablationQueries(t *testing.T, store disk.Store, frames int, before func()) (queries, reads int) {
	t.Helper()
	g := zorder.MustGrid(2, 10)
	pool := disk.MustPool(store, frames, disk.LRU)
	ix, err := core.NewIndex(pool, g, core.IndexConfig{LeafCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad(workload.Uniform(g, 5000, 3)); err != nil {
		t.Fatal(err)
	}
	boxes, err := workload.Queries(g, workload.QuerySpec{Volume: 0.04, Aspect: 1}, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	pool.Invalidate()
	before()
	for _, box := range boxes {
		_, st, err := ix.RangeSearch(box, core.MergeLazy)
		if err != nil {
			t.Fatal(err)
		}
		reads += int(st.PhysReads)
	}
	return len(boxes), reads
}

// TestEvictionPolicyAblation validates the paper's LRU choice (Section
// 4) against FIFO and Random replacement on the range-query workload.
// The pool keeps LRU alone, so the other policies are simulated over
// the workload's page reference string. Under a one-frame pool every
// access to a page other than the last is a physical read, so the
// store records the string with repeats of the previous page
// collapsed; such a repeat is a hit under every policy, so the
// collapsed string gives every policy its exact miss count. The LRU
// simulator is checked against a real 16-frame pool on the same
// workload, whose store is read once per miss and at no other time:
// the queries' own physical reads are every read of its store.
func TestEvictionPolicyAblation(t *testing.T) {
	const frames = 16
	rec := &recordingStore{Store: disk.MustMemStore(1024)}
	queries, _ := ablationQueries(t, rec, 1, func() { rec.reads = nil })
	refs := rec.reads

	lru := evictionRule{name: "lru", touch: true, victim: func([]disk.PageID) int { return 0 }}
	fifo := evictionRule{name: "fifo", victim: func([]disk.PageID) int { return 0 }}
	rng := rand.New(rand.NewSource(0x5eed))
	random := evictionRule{name: "random", victim: func(r []disk.PageID) int { return rng.Intn(len(r)) }}

	pooled := &recordingStore{Store: disk.MustMemStore(1024)}
	_, reads := ablationQueries(t, pooled, frames, func() { pooled.reads = nil })
	got := map[string]int{}
	for _, rule := range []evictionRule{lru, fifo, random} {
		got[rule.name] = simulate(refs, frames, rule)
		t.Logf("%-6s %.2f physical reads/query (%d references)", rule.name, float64(got[rule.name])/float64(queries), len(refs))
	}
	if got["lru"] != reads || len(pooled.reads) != reads {
		t.Fatalf("LRU simulator: %d reads, the %d-frame pool %d (%d from the store)", got["lru"], frames, reads, len(pooled.reads))
	}
	if got["lru"] > got["fifo"] || got["lru"] > got["random"] {
		t.Errorf("LRU reads more pages than another policy: %v", got)
	}
}
